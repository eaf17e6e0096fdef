"""Per-feature k-means codebooks over highlighted window matrices.

Training takes one ``(n_windows, window_len)`` matrix per feature: Lloyd's
iterations with distance-weighted (k-means++ style) seeding, best-of-restarts
by SSE, elbow sweep with maximum-distance-to-chord knee detection, and
versioned JSON persistence of trained codebooks. ``assign`` maps every row of
a window matrix to its nearest centroid in one batched pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .windowing import WindowConfig

CODEBOOK_FORMAT_VERSION = 1

DEFAULT_K = 300  # operating point used on the original four-driver data
DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-6
DEFAULT_RESTARTS = 5


class ClusterError(Exception):
    pass


class InfeasibleKError(ClusterError):
    """k exceeds the number of (distinct) training segments."""


@dataclass(frozen=True)
class TrainingMeta:
    trip_ids: tuple[str, ...]
    segment_count: int
    iterations: int
    seed: int


@dataclass(frozen=True)
class Codebook:
    """Trained centroids representing one feature's trusted driving patterns."""

    feature: str
    k: int
    centroids: np.ndarray  # shape (k, window_len)
    sse: float
    cfg: WindowConfig
    meta: TrainingMeta

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


def _assign_all(
    x: np.ndarray, centroids: np.ndarray, chunk: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances; ties go to lowest index.

    Exact pairwise differences, chunked to bound memory at large k.
    """
    n = len(x)
    labels = np.empty(n, dtype=np.intp)
    best_d2 = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
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
    feature: str,
    k: int,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    restarts: int = DEFAULT_RESTARTS,
    cfg: WindowConfig | None = None,
    trip_ids: tuple[str, ...] = (),
    strict_k: bool = True,
) -> Codebook:
    """Best-of-restarts k-means codebook over the rows of ``x``; deterministic given the seed.

    Unless ``strict_k``, k is capped at the number of distinct rows instead of
    being rejected.
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
        centroids, _, sse, iterations, _ = lloyd(x, init, max_iter, tol)
        if best is None or sse < best[1]:
            best = (centroids, sse, iterations)
    centroids, sse, iterations = best

    if cfg is None:
        window_len = x.shape[1]
        cfg = WindowConfig(sample_period_s=1.0, window_s=float(window_len), stride_s=float(window_len) / 2)
    return Codebook(
        feature=feature,
        k=k,
        centroids=centroids,
        sse=sse,
        cfg=cfg,
        meta=TrainingMeta(
            trip_ids=tuple(trip_ids),
            segment_count=len(x),
            iterations=iterations,
            seed=seed,
        ),
    )


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
    x: np.ndarray,
    feature: str,
    k_values: list[int],
    seed: int,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    cfg: WindowConfig | None = None,
) -> ElbowCurve:
    """SSE per k with knee-point recommendation."""
    if list(k_values) != sorted(set(k_values)):
        raise ClusterError("k_values must be strictly increasing")
    points = []
    for k in k_values:
        cb = kmeans_fit(x, feature, k, seed, max_iter=max_iter, tol=tol, restarts=restarts, cfg=cfg)
        points.append((k, cb.sse))
    return ElbowCurve(points=tuple(points), recommended_k=points[knee_index(points)][0])


def assign(windows: np.ndarray, cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid index and Euclidean distance per window row; ties break low."""
    if windows.ndim != 2 or windows.shape[1] != cb.cfg.window_len:
        raise ClusterError(
            f"window matrix of shape {windows.shape} does not match "
            f"codebook window_len {cb.cfg.window_len}"
        )
    labels, d2 = _assign_all(windows, cb.centroids)
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
        "filter_name": cb.cfg.filter_name,
        "centroids": [list(row) for row in cb.centroids.tolist()],
        "sse": cb.sse,
        "seed": cb.meta.seed,
        "trained_at": None,
        "training_meta": {
            "trip_ids": list(cb.meta.trip_ids),
            "segment_count": cb.meta.segment_count,
            "iterations": cb.meta.iterations,
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_codebook(path: str | Path) -> Codebook:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format_version") != CODEBOOK_FORMAT_VERSION:
        raise ClusterError(f"unsupported codebook format {doc.get('format_version')!r}")
    cfg = WindowConfig(
        sample_period_s=doc["sample_period_s"],
        window_s=doc["window_s"],
        stride_s=doc["stride_s"],
        filter_name=doc["filter_name"],
    )
    if cfg.window_len != doc["window_len"] or cfg.stride_len != doc["stride_len"]:
        raise ClusterError("stored window/stride lengths disagree with config")
    meta = doc.get("training_meta", {})
    return Codebook(
        feature=doc["feature"],
        k=doc["k"],
        centroids=np.array(doc["centroids"], dtype=float),
        sse=doc["sse"],
        cfg=cfg,
        meta=TrainingMeta(
            trip_ids=tuple(meta.get("trip_ids", ())),
            segment_count=meta.get("segment_count", 0),
            iterations=meta.get("iterations", 0),
            seed=doc["seed"],
        ),
    )
