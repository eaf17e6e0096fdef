"""K-means over highlighted window matrices, and the codebooks that keep the centroids.

``kmeans_fit`` takes one ``(n_windows, window_len)`` matrix and returns the
centroid matrix, SSE and iteration count of the best of its restarts, each
Lloyd's iterations from distance-weighted (k-means++ style) seeding.
``elbow_sweep`` reads the SSE per k and recommends the knee, the point
farthest from the chord. ``assign`` maps every row of a window matrix to its
nearest centroid in one batched pass. A ``Codebook`` is one feature's
centroids with their window config and training metadata, persisted as
versioned JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import read_json
from .windowing import WindowConfig

CODEBOOK_FORMAT_VERSION = 1

DEFAULT_K = 300  # operating point used on the original four-driver data
DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-6
DEFAULT_RESTARTS = 5
# the keys save_codebook writes, less format_version (checked first) and
# trained_at (always null)
_CODEBOOK_KEYS = (
    "feature", "k", "window_len", "stride_len", "sample_period_s", "window_s", "stride_s",
    "filter_name", "centroids", "sse", "seed", "training_meta",
)
# rows per distance block in _assign_all: the block's temporaries (rows * k *
# window_len floats, 1.2 MB at k=300 and 32 samples) stay cache-sized
ASSIGN_CHUNK = 16


class ClusterError(Exception):
    pass


class InfeasibleKError(ClusterError):
    """k exceeds the number of (distinct) training segments."""


@dataclass(frozen=True)
class Codebook:
    """Trained centroids representing one feature's trusted driving patterns."""

    feature: str
    k: int
    centroids: np.ndarray  # shape (k, window_len)
    sse: float
    cfg: WindowConfig
    trip_ids: tuple[str, ...]
    segment_count: int
    iterations: int
    seed: int

    def __post_init__(self) -> None:
        if self.centroids.shape != (self.k, self.cfg.window_len):
            raise ClusterError(
                f"centroid array {self.centroids.shape} does not match "
                f"(k={self.k}, window_len={self.cfg.window_len})"
            )
        if self.sse < 0:
            raise ClusterError("sse must be nonnegative")


@dataclass(frozen=True)
class ElbowCurve:
    points: tuple[tuple[int, float], ...]  # (k, best sse), k strictly increasing
    recommended_k: int


def _plusplus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
            continue
        idx = rng.choice(n, p=d2 / total)
        centroids[j] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


def _assign_all(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances; ties go to lowest index.

    Exact pairwise differences, ``ASSIGN_CHUNK`` rows at a time.
    """
    n = len(x)
    labels = np.empty(n, dtype=np.intp)
    best_d2 = np.empty(n)
    for lo in range(0, n, ASSIGN_CHUNK):
        hi = min(lo + ASSIGN_CHUNK, n)
        d2 = ((x[lo:hi, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels[lo:hi] = np.argmin(d2, axis=1)
        best_d2[lo:hi] = d2[np.arange(hi - lo), labels[lo:hi]]
    return labels, best_d2


def lloyd(
    x: np.ndarray,
    init_centroids: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float, int, list[float]]:
    """Run Lloyd's iterations.

    Returns (centroids, labels, sse, iterations, sse_trace) where sse_trace
    holds the SSE after the initial assignment and after each iteration.
    """
    centroids = init_centroids.copy()
    k = len(centroids)
    labels, d2 = _assign_all(x, centroids)
    trace = [float(d2.sum())]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_centroids = centroids.copy()
        for j in range(k):
            members = x[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
            else:
                # reseed an empty cluster at the point farthest from its centroid
                _, cur_d2 = _assign_all(x, new_centroids)
                new_centroids[j] = x[np.argmax(cur_d2)]
        shift = float(np.max(np.sum((new_centroids - centroids) ** 2, axis=1)))
        centroids = new_centroids
        labels, d2 = _assign_all(x, centroids)
        trace.append(float(d2.sum()))
        if shift < tol:
            break
    return centroids, labels, float(d2.sum()), iterations, trace


def kmeans_fit(
    x: np.ndarray,
    k: int,
    seed: int,
    restarts: int = DEFAULT_RESTARTS,
    strict_k: bool = True,
) -> tuple[np.ndarray, float, int]:
    """``(centroids, sse, iterations)`` of the best k-means restart over the rows of ``x``.

    Deterministic given the seed. Unless ``strict_k``, k is capped at the
    number of distinct rows instead of being rejected.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or not len(x):
        raise ClusterError(f"expected a non-empty (n_windows, window_len) matrix, got shape {x.shape}")
    if k < 1:
        raise InfeasibleKError("k must be positive")
    distinct = len(np.unique(x, axis=0))
    if not strict_k:
        k = min(k, distinct)
    if k > len(x):
        raise InfeasibleKError(f"k={k} exceeds segment count {len(x)}")
    if k > distinct:
        raise InfeasibleKError(f"k={k} exceeds distinct segment count {distinct}")

    best: tuple[np.ndarray, float, int] | None = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        init = _plusplus_init(x, k, rng)
        centroids, _, sse, iterations, _ = lloyd(x, init, DEFAULT_MAX_ITER, DEFAULT_TOL)
        if best is None or sse < best[1]:
            best = (centroids, sse, iterations)
    return best


def knee_index(points: list[tuple[int, float]]) -> int:
    """Index of the curve point farthest from the chord joining its endpoints.

    Axes are rescaled to [0, 1] so k and SSE contribute comparably.
    """
    if len(points) <= 2:
        return 0
    ks = np.array([p[0] for p in points], dtype=float)
    sses = np.array([p[1] for p in points], dtype=float)
    ks = (ks - ks[0]) / (ks[-1] - ks[0])
    span = sses[0] - sses[-1]
    sses = (sses - sses[-1]) / span if span != 0 else np.zeros_like(sses)
    # distance from (kx, sy) to the chord from (0, s0) to (1, s_last)
    x0, y0 = ks[0], sses[0]
    x1, y1 = ks[-1], sses[-1]
    num = np.abs((y1 - y0) * ks - (x1 - x0) * sses + x1 * y0 - y1 * x0)
    return int(np.argmax(num))


def elbow_sweep(
    x: np.ndarray, k_values: list[int], seed: int, restarts: int = DEFAULT_RESTARTS
) -> ElbowCurve:
    """SSE per k with knee-point recommendation."""
    if list(k_values) != sorted(set(k_values)):
        raise ClusterError("k_values must be strictly increasing")
    points = [(k, kmeans_fit(x, k, seed, restarts=restarts)[1]) for k in k_values]
    return ElbowCurve(points=tuple(points), recommended_k=points[knee_index(points)][0])


def assign(windows: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid index and Euclidean distance per window row; ties break low."""
    if windows.ndim != 2 or windows.shape[1] != centroids.shape[1]:
        raise ClusterError(
            f"window matrix of shape {windows.shape} does not match "
            f"centroid window_len {centroids.shape[1]}"
        )
    labels, d2 = _assign_all(windows, centroids)
    return labels, np.sqrt(d2)


def save_codebook(cb: Codebook, path: str | Path) -> None:
    """Persist as versioned JSON; float serialization round-trips exactly.

    ``trained_at`` is always null: runs are deterministic, so none is recorded.
    """
    doc = {
        "format_version": CODEBOOK_FORMAT_VERSION,
        "feature": cb.feature,
        "k": cb.k,
        "window_len": cb.cfg.window_len,
        "stride_len": cb.cfg.stride_len,
        "sample_period_s": cb.cfg.sample_period_s,
        "window_s": cb.cfg.window_s,
        "stride_s": cb.cfg.stride_s,
        "filter_name": "hann",
        "centroids": cb.centroids.tolist(),
        "sse": cb.sse,
        "seed": cb.seed,
        "trained_at": None,
        "training_meta": {
            "trip_ids": list(cb.trip_ids),
            "segment_count": cb.segment_count,
            "iterations": cb.iterations,
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_codebook(path: str | Path) -> Codebook:
    """A codebook written by ``save_codebook``; a file that is not JSON, a missing key,
    a feature other than the one the file is named after (``codebook_<feature>.json``),
    trip ids that are not a list of strings, a filter other than hann, a k that is
    not a positive int or a non-finite number is rejected."""
    doc = read_json(path, ClusterError)
    if not isinstance(doc, dict) or doc.get("format_version") != CODEBOOK_FORMAT_VERSION:
        raise ClusterError(f"{path}: unsupported codebook format")
    missing = [key for key in _CODEBOOK_KEYS if key not in doc]
    if missing:
        raise ClusterError(f"{path} lacks keys {missing}")
    feature, k, sse, meta = doc["feature"], doc["k"], doc["sse"], doc["training_meta"]
    if not isinstance(feature, str) or Path(path).name != f"codebook_{feature}.json":
        raise ClusterError(f"{path}: feature {feature!r} does not match the file name")
    if doc["filter_name"] != "hann":
        raise ClusterError(f"{path}: unsupported filter {doc['filter_name']!r}")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ClusterError(f"{path}: k must be a positive int, got {k!r}")
    if isinstance(sse, bool) or not isinstance(sse, (int, float)) or not math.isfinite(sse):
        raise ClusterError(f"{path}: sse must be a finite number, got {sse!r}")
    trip_ids = meta.get("trip_ids", []) if isinstance(meta, dict) else None
    if not isinstance(trip_ids, list) or not all(isinstance(t, str) for t in trip_ids):
        raise ClusterError(f"{path}: training_meta must be an object whose trip_ids are strings")
    try:
        cfg = WindowConfig(doc["sample_period_s"], doc["window_s"], doc["stride_s"])
        centroids = np.array(doc["centroids"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ClusterError(f"{path}: malformed codebook: {exc}") from exc
    if not np.isfinite(centroids).all():
        raise ClusterError(f"{path} has non-finite centroid values")
    if cfg.window_len != doc["window_len"] or cfg.stride_len != doc["stride_len"]:
        raise ClusterError(f"{path}: stored window/stride lengths disagree with config")
    return Codebook(
        feature=feature,
        k=k,
        centroids=centroids,
        sse=sse,
        cfg=cfg,
        trip_ids=tuple(trip_ids),
        segment_count=meta.get("segment_count", 0),
        iterations=meta.get("iterations", 0),
        seed=doc["seed"],
    )
