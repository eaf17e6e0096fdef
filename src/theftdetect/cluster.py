"""K-means over highlighted window matrices, and the codebooks that keep the centroids.

``kmeans_fit`` takes one ``(n_windows, window_len)`` matrix and returns the
centroid matrix, SSE and iteration count of the best of its restarts, each
Lloyd's iterations from distance-weighted (k-means++ style) seeding.
``elbow_sweep`` reads the SSE per k and recommends the knee, the point
farthest from the chord. ``assign`` maps every row of a window matrix to its
nearest centroid in one batched pass. A ``Codebook`` is one feature's
centroids with their window config and training metadata, persisted as one
flat JSON object of format version 4: its centroids are one base64 string
whose byte count must be exactly k rows of ``window_len`` float64, k stored
beside them. Only version 4 loads; an older file asks for ``train`` again.

Nearest-centroid search (``_assign_all``, the hot loop of Lloyd's iterations
and of scoring) ranks centroids by one BLAS product per block of rows and
recomputes exact differences only for those a rounding bound cannot rule
out, so its labels and squared distances equal the exact search's bit for
bit. k-means++ seeding (``_plusplus_init``) prunes the same way: one BLAS
product per seed bounds every row's distance to it, and only rows the new
seed might bring closer are recomputed exactly. Its draws are those of
``rng.choice`` over exact distances, and Lloyd's iterations start from the
assignment it leaves, the exact search's against the seeds. Lloyd's update
sums each cluster's rows as one contiguous slice of the label-sorted matrix,
in the order ``x[labels == j].mean(axis=0)`` does.
"""

from __future__ import annotations

import base64
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import DataError, InfeasibleKError
from .ingest import read_json, write_json
from .windowing import WindowConfig

CODEBOOK_FORMAT_VERSION = 4

DEFAULT_K = 300  # operating point used on the original four-driver data
DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-6
DEFAULT_RESTARTS = 5
# rows per block in _assign_all: each of a block's temporaries holds rows * k
# floats (154 kB at k=300), so they and BLAS's packing buffers stay cache-sized
ASSIGN_CHUNK = 64
_FLOAT = np.finfo(float)
# version 4 centroids: k rows of window_len little-endian float64 in C order, base64-encoded
_CENTROID_DTYPE = np.dtype("<f8")
# the kind of value each key save_codebook writes must hold (format_version is
# checked first), and each kind's check; Python compares any int with a float exactly
_CODEBOOK_KEYS = {
    "feature": "a string", "sample_period_s": "a finite number", "window_s": "a finite number",
    "stride_s": "a finite number", "k": "a positive int", "centroids": "a string",
    "sse": "a finite number", "seed": "a nonnegative int", "trip_ids": "a list of strings",
    "segment_count": "a nonnegative int", "iterations": "a nonnegative int",
}
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a finite number": lambda v: type(v) in (int, float) and abs(v) <= float(_FLOAT.max),
    "a nonnegative int": lambda v: type(v) is int and v >= 0,
    "a positive int": lambda v: type(v) is int and v > 0,
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
}


@dataclass(frozen=True)
class Codebook:
    """Trained centroids representing one feature's trusted driving patterns."""

    feature: str
    centroids: np.ndarray  # shape (k, window_len), k >= 1
    sse: float
    cfg: WindowConfig
    trip_ids: tuple[str, ...]
    segment_count: int
    iterations: int
    seed: int

    def __post_init__(self) -> None:
        if self.centroids.shape[1:] != (self.cfg.window_len,) or not len(self.centroids):
            raise DataError(
                f"centroid array {self.centroids.shape} is not (k, window_len={self.cfg.window_len})"
            )
        if self.sse < 0:
            raise DataError("sse must be nonnegative")


@dataclass(frozen=True)
class ElbowCurve:
    points: tuple[tuple[int, float], ...]  # (k, best sse), k strictly increasing
    recommended_k: int


def _check_span(*matrices: np.ndarray, count: int = 1) -> None:
    """Reject rows whose squared distances could overflow.

    No squared distance between rows of ``matrices`` exceeds the squared
    diameter of their bounding box, and no sum of ``count`` of them exceeds
    ``count`` times it; that bound must be finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = count * np.sum(np.ptp(np.concatenate(matrices), axis=0) ** 2)
    if not np.isfinite(bound):
        raise DataError("window values are not finite or span too wide a range for squared distances")


def _slack(nx: np.ndarray, nc_max: float, length: int) -> np.ndarray:
    """Per-row rounding slack ``(8d + 32) (eps (nx_i + nc_max) + 2^-1074)`` of the
    expanded squared distances, derived in ``_assign_all``; infinite for a row whose
    ``nx_i + nc_max`` exceeds a sixteenth of the largest double, so that it keeps
    every centroid and no step of the expansion can overflow unnoticed."""
    slack = (8 * length + 32) * (_FLOAT.eps * (nx + nc_max) + _FLOAT.smallest_subnormal)
    slack[~(nx <= _FLOAT.max / 16 - nc_max)] = np.inf
    return slack


def _plusplus_init(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ seeds (Arthur & Vassilvitskii, SODA 2007) and the exact search's
    ``(labels, d2)`` of every row against them.

    Each seed after the first is row ``i`` with probability ``d2_i / sum(d2)``,
    drawn as ``rng.choice(n, p=d2 / sum(d2))`` does: one ``rng.random()``
    searched in the normalised cumulative sum. ``d2_i`` is the exact search's
    squared distance ``((x_i - c) ** 2).sum()`` to the nearest seed so far,
    lowered only on a strict decrease, so ties keep the lowest index.

    A new seed ``c = x_s`` can lower ``d2_i`` only where ``d2_i`` exceeds its
    exact distance to ``c``, and only those rows are recomputed exactly. With
    ``x' = fl(x - r)`` centred on the midpoint ``r`` of the rows' bounding box
    and ``nx = ||x'||^2``, one product gives ``a_i = nx_i + nx_s - 2 x'_i . x'_s``.
    ``c`` is a row, so its ``nc`` is ``nx_s <= max nx``, and ``_assign_all``'s
    bound gives ``|a_i - d2_new_i| <= e_i``, about (4d + 16) u (nx_i + max nx)
    with u = 2^-53. The slack ``s_i = (8d + 32) (eps (nx_i + max nx) + 2^-1074)``
    is 4 e_i. A row is skipped only when ``a_i > fl(d2_i + s_i)``; then
    ``d2_new_i >= a_i - e_i > d2_i + s_i - e_i - u (d2_i + s_i) >= d2_i``, as
    ``d2_i <= 2 (nx_i + max nx)`` keeps that rounding under 3 u (nx_i + max nx),
    far below the 3 e_i to spare. A row whose ``nx_i + max nx`` exceeds a
    sixteenth of the largest double, or whose ``a_i`` is NaN, is always recomputed.
    """
    n, length = x.shape
    centroids = np.empty((k, length))
    centroids[0] = x[rng.integers(n)]
    labels = np.zeros(n, dtype=np.intp)
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    xc = x - (0.5 * x.min(axis=0) + 0.5 * x.max(axis=0))
    nx = np.einsum("ij,ij->i", xc, xc)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = _slack(nx, nx.max(), length)
        for j in range(1, k):
            total = d2.sum()
            if total <= 0:
                centroids[j] = x[rng.integers(n)]
                continue
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = cdf.searchsorted(rng.random(), side="right")
            centroids[j] = x[idx]
            approx = xc @ (-2.0 * xc[idx])
            approx += nx + nx[idx]
            rows = np.flatnonzero(~(approx > d2 + slack))
            exact = np.sum((x[rows] - centroids[j]) ** 2, axis=1)
            lower = exact < d2[rows]
            d2[rows[lower]] = exact[lower]
            labels[rows[lower]] = j
    return centroids, labels, d2


def _assign_all(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances; ties go to lowest index.

    The result is bit for bit that of the exact search, which computes
    ``d2_ij = ((x_i - c_j) ** 2).sum()`` for every pair and takes the first
    minimum of each row; here only a few pairs per row are computed that way.
    Per ``ASSIGN_CHUNK`` rows:

    1. Centre on ``r``, the midpoint of the centroids' bounding box:
       ``x' = fl(x - r)`` and ``c' = fl(c - r)``. Expand
       ``a_ij = nx_i + nc_j - 2 g_ij`` with ``nx = ||x'||^2``, ``nc = ||c'||^2``
       and one BLAS product ``g = x' @ c'.T``.
    2. Keep the pairs with ``a_ij <= min_l a_il + s_i``, recompute their exact
       ``d2`` and take the first minimum of each row.

    Why the kept pairs hold the exact search's choice (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 3.1). Let u = 2^-53,
    eps = 2u, γ_k = ku / (1 - ku), d the window length, S = ||x'|| + ||c'||.

    - A sum of d products, in any order and with or without FMA, is off by at
      most γ_d times the sum of their magnitudes. So the computed ``nx``, ``nc``
      and ``g`` are off by at most γ_d (||x'||^2 + ||c'||^2 + 2 ||x'|| ||c'||)
      = γ_d S^2 in ``a``, and the two additions add γ_2 (1 + γ_d) S^2:
      ``|a - ||x' - c'||^2| <= γ_{d+2} S^2``.
    - Centring moves each coordinate of ``x' - c'`` by at most
      u/(1-u) (|x'_t| + |c'_t|) from ``x_t - c_t``, so ``||x' - c'||`` is within
      u S/(1-u) of ``||x - c||`` and their squares are within 3u S^2.
    - The exact search's ``d2`` is within γ_{d+2} ||x - c||^2 <= γ_{d+3} S^2
      of ``||x - c||^2``.

    So ``|a_ij - d2_ij| <= γ_{2d+8} S^2 <= e_i``, where
    ``e_i = 2 γ_{2d+8} (nx_i + max nc) / (1 - γ_d)``, about (4d + 16) u (nx_i + max nc).
    If the exact search picks j*, then for every l
    ``a_ij* <= d2_ij* + e_i <= d2_il + e_i <= a_il + 2 e_i``: j* is kept when
    ``s_i >= 2 e_i``. The slack used, ``s_i = (8d + 32) (eps (nx_i + max nc) + 2^-1074)``,
    is twice that. The margin covers the rounding of ``s_i`` and of
    ``min + s_i``, at most about 3u (nx_i + max nc). Gradual underflow adds at
    most 2^-1075 to each product, under 6d 2^-1074 in 2 e_i, which the
    ``2^-1074`` term covers.

    A row keeps every centroid when ``nx_i + max nc`` exceeds a sixteenth of
    the largest double, so no step of the expansion overflows. Centring keeps
    ``nx`` and ``nc`` near the squared diameter of the rows and centroids
    together. That is finite for every matrix ``kmeans_fit`` and ``assign``
    accept, even where ``||x||^2`` is not.
    """
    n, length = x.shape
    labels = np.empty(n, dtype=np.intp)
    best_d2 = np.empty(n)
    ref = 0.5 * centroids.min(axis=0) + 0.5 * centroids.max(axis=0)
    cc = centroids - ref
    nc = np.einsum("ij,ij->i", cc, cc)
    nc_max = nc.max()
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, ASSIGN_CHUNK):
            hi = min(lo + ASSIGN_CHUNK, n)
            xc = x[lo:hi] - ref
            nx = np.einsum("ij,ij->i", xc, xc)
            approx = xc @ cc.T
            approx *= -2.0
            approx += nx[:, None]
            approx += nc
            slack = _slack(nx, nc_max, length)
            # NaN compares false, so a row whose bound is NaN keeps every centroid
            rows, cols = np.nonzero(~(approx > (approx.min(axis=1) + slack)[:, None]))
            exact = ((x[lo + rows] - centroids[cols]) ** 2).sum(axis=1)
            # every row keeps its approximate minimum; rows ascend, and columns
            # ascend within a row, so a row's first pair at its minimum has the lowest index
            row_min = np.minimum.reduceat(exact, np.flatnonzero(np.diff(rows, prepend=-1)))
            ties = np.flatnonzero(exact == row_min[rows])
            first = ties[np.diff(rows[ties], prepend=-1) != 0]
            labels[lo:hi] = cols[first]
            best_d2[lo:hi] = exact[first]
    return labels, best_d2


def lloyd(
    x: np.ndarray,
    init_centroids: np.ndarray,
    labels: np.ndarray,
    d2: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float, int, list[float]]:
    """Run Lloyd's iterations from ``init_centroids`` and ``(labels, d2)``, the exact
    search's assignment of ``x`` to them, which ``_plusplus_init`` returns.

    Returns (centroids, labels, sse, iterations, sse_trace) where sse_trace
    holds the SSE of the initial assignment and after each iteration.
    Each update sorts the rows by label once, with a stable sort, so that a
    cluster's members are one contiguous slice in row order and its mean
    sums them exactly as ``x[labels == j].mean(axis=0)`` would.
    """
    centroids = init_centroids.copy()
    k = len(centroids)
    trace = [float(d2.sum())]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        grouped = x[np.argsort(labels, kind="stable")]
        filled = np.flatnonzero(counts)
        for j in filled:
            new_centroids[j] = np.add.reduce(grouped[bounds[j]:bounds[j + 1]], axis=0)
        new_centroids[filled] /= counts[filled, None]
        for j in np.flatnonzero(counts == 0):
            # reseed an empty cluster at the point farthest from the centroids
            # as they stand when its turn comes: updated below j, old from j on
            _, cur_d2 = _assign_all(x, np.concatenate([new_centroids[:j], centroids[j:]]))
            new_centroids[j] = x[np.argmax(cur_d2)]
        shift = float(np.max(np.sum((new_centroids - centroids) ** 2, axis=1)))
        centroids = new_centroids
        labels, d2 = _assign_all(x, centroids)
        trace.append(float(d2.sum()))
        if shift < tol:
            break
    return centroids, labels, float(d2.sum()), iterations, trace


def kmeans_fit(
    x: np.ndarray, k: int | None, seed: int, restarts: int = DEFAULT_RESTARTS
) -> tuple[np.ndarray, float, int]:
    """``(centroids, sse, iterations)`` of the best k-means restart over the rows of ``x``.

    Deterministic given the seed. A ``k`` of None is ``DEFAULT_K`` capped at
    the number of distinct rows; any other k beyond it is rejected. So is a
    matrix whose row count times squared bounding-box diameter, a bound on
    every sum of squared distances k-means computes, is not finite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or not len(x):
        raise DataError(f"expected a non-empty (n_windows, window_len) matrix, got shape {x.shape}")
    _check_span(x, count=len(x))
    distinct = len(np.unique(x, axis=0))
    if k is None:
        k = min(DEFAULT_K, distinct)
    if k < 1:
        raise InfeasibleKError("k must be positive")
    if k > len(x):
        raise InfeasibleKError(f"k={k} exceeds segment count {len(x)}")
    if k > distinct:
        raise InfeasibleKError(f"k={k} exceeds distinct segment count {distinct}")

    best: tuple[np.ndarray, float, int] | None = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        seeded = _plusplus_init(x, k, rng)
        centroids, _, sse, iterations, _ = lloyd(x, *seeded, DEFAULT_MAX_ITER, DEFAULT_TOL)
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
        raise DataError("k_values must be strictly increasing")
    points = [(k, kmeans_fit(x, k, seed, restarts=restarts)[1]) for k in k_values]
    return ElbowCurve(points=tuple(points), recommended_k=points[knee_index(points)][0])


def assign(windows: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid index and Euclidean distance per window row; ties break low.

    The windows are rejected unless the bounding box of their rows and the
    centroids has a finite squared diameter, which bounds every squared distance.
    """
    if windows.ndim != 2 or windows.shape[1] != centroids.shape[1]:
        raise DataError(
            f"window matrix of shape {windows.shape} does not match "
            f"centroid window_len {centroids.shape[1]}"
        )
    _check_span(windows, centroids)
    labels, d2 = _assign_all(windows, centroids)
    return labels, np.sqrt(d2)


def save_codebook(cb: Codebook, path: str | Path) -> None:
    """Persist as format version 4 JSON; the centroid bytes and the sse round-trip exactly."""
    blob = np.ascontiguousarray(cb.centroids, dtype=_CENTROID_DTYPE).tobytes()
    doc = {
        "format_version": CODEBOOK_FORMAT_VERSION,
        "feature": cb.feature,
        "sample_period_s": cb.cfg.sample_period_s,
        "window_s": cb.cfg.window_s,
        "stride_s": cb.cfg.stride_s,
        "k": len(cb.centroids),
        "centroids": base64.b64encode(blob).decode("ascii"),
        "sse": cb.sse,
        "seed": cb.seed,
        "trip_ids": list(cb.trip_ids),
        "segment_count": cb.segment_count,
        "iterations": cb.iterations,
    }
    write_json(doc, path)


def load_codebook(path: str | Path) -> Codebook:
    """A codebook written by ``save_codebook``; a file that is not JSON, is not format
    version 4 (an older file asks for ``train`` again), lacks a key or holds a value its
    ``_CODEBOOK_KEYS`` check rejects, is named after another feature than its own
    (``codebook_<feature>.json``), has a window config ``WindowConfig`` rejects, or whose
    centroids are not exactly k finite rows of ``window_len`` float64 is rejected."""
    doc = read_json(path, DataError)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != CODEBOOK_FORMAT_VERSION:
        raise DataError(f"{path} is not a format version {CODEBOOK_FORMAT_VERSION} codebook "
                        f"(format_version {version!r}); run `train` again to rewrite it")
    for key, kind in _CODEBOOK_KEYS.items():
        if key not in doc:
            raise DataError(f"{path} lacks key {key!r}")
        if not _KINDS[kind](doc[key]):
            raise DataError(f"{path}: {key} must be {kind}, got {reprlib.repr(doc[key])}")
    feature, k = doc["feature"], doc["k"]
    if Path(path).name != f"codebook_{feature}.json":
        raise DataError(f"{path}: feature {feature!r} does not match the file name")
    try:
        cfg = WindowConfig(doc["sample_period_s"], doc["window_s"], doc["stride_s"])
        blob = base64.b64decode(doc["centroids"], validate=True)
    except (DataError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed codebook: {exc}") from None
    if len(blob) != _CENTROID_DTYPE.itemsize * k * cfg.window_len:
        raise DataError(f"{path}: {len(blob)} centroid bytes are not k={k} rows of "
                        f"{cfg.window_len} float64")
    centroids = np.frombuffer(blob, dtype=_CENTROID_DTYPE).astype(float).reshape(k, cfg.window_len)
    if not np.isfinite(centroids).all():
        raise DataError(f"{path} has non-finite centroid values")
    try:
        return Codebook(feature=feature, centroids=centroids, sse=doc["sse"], cfg=cfg,
                        trip_ids=tuple(doc["trip_ids"]), segment_count=doc["segment_count"],
                        iterations=doc["iterations"], seed=doc["seed"])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
