"""K-means over highlighted window matrices, and the codebooks that keep the centroids.

``feasible_k`` checks one ``(n_windows, window_len)`` matrix and settles its
k. ``kmeans_fit`` fits a stack of such matrices with one row count, such as
the essential features' windows of the same trips, and returns per matrix the
centroid matrix, SSE and iteration count of the best of its restarts, each
Lloyd's iterations from distance-weighted (k-means++ style) seeding.
``elbow_sweep`` reads the SSE per k and recommends the knee, the point
farthest from the chord. ``assign`` maps every row of a window matrix to its
nearest centroid in one batched pass. A ``Codebook`` is one feature's
centroids with their window config and training metadata, persisted as one
flat JSON object of format version 4: its centroids are one base64 string
whose byte count must be exactly k rows of ``window_len`` float64, k stored
beside them. Only version 4 loads; an older file asks for ``train`` again.

A chain is one restart of one matrix, and it draws from its own generator, so
each matrix's fit is the one it would have alone. k-means++ seeding
(``_plusplus_init``) advances every chain one draw per step and keeps the
seeds as row indices. One batched BLAS product per step bounds every row's
distance to every chain's new seed, and only rows a new seed might bring
closer are recomputed exactly. Its draws are those of ``rng.choice`` over
exact distances. Lloyd's iterations (``lloyd``) then run one matrix's
restarts together from the assignment the seeding leaves, each chain
stopping on its own. Lloyd's update sums each cluster's rows from zero in
row order, as ``x[labels == j].mean(axis=0)`` does, adding one member of
every cluster per step.

Nearest-centroid search (``_assign_all``, the hot loop of Lloyd's iterations
and of scoring) searches a stack of centroid sets at once, in blocks of
``ASSIGN_CHUNK`` rows in total across the sets. It ranks centroids by one
BLAS product per block and recomputes exact differences only for those a
rounding bound cannot rule out, so its labels and squared distances equal the
exact search's bit for bit. Scoring searches a stack of one set.
"""

from __future__ import annotations

import base64
import reprlib
from collections.abc import Sequence
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


def _slack(nx: np.ndarray, nc_max: np.ndarray, length: int) -> np.ndarray:
    """Per-row rounding slack ``(8d + 32) (eps (nx_i + nc_max) + 2^-1074)`` of the
    expanded squared distances, derived in ``_assign_all``; infinite for a row whose
    ``nx_i + nc_max`` exceeds a sixteenth of the largest double, so that it keeps
    every centroid and no step of the expansion can overflow unnoticed. ``nc_max``
    broadcasts against ``nx``: one value per centroid set."""
    slack = (8 * length + 32) * (_FLOAT.eps * (nx + nc_max) + _FLOAT.smallest_subnormal)
    slack[~(nx <= _FLOAT.max / 16 - nc_max)] = np.inf
    return slack


def _pair_pieces(count: int, k: int, length: int) -> list[slice]:
    """Slices over ``count`` index pairs such that each slice's rows, gathered,
    hold at most ``ASSIGN_CHUNK * max(k, length)`` floats: no more than one search
    block holds in its products over k centroids or in its rows."""
    step = ASSIGN_CHUNK * max(k, length) // length
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact squared distances ``((a - b) ** 2).sum(axis=1)`` of two gathered row
    blocks, computed in ``a``'s memory."""
    a -= b
    a *= a
    return a.sum(axis=1)


def _plusplus_init(
    xs: np.ndarray, ks: Sequence[int], rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ seeds (Arthur & Vassilvitskii, SODA 2007) of many chains, drawn in
    lock-step, and the exact search's ``(labels, d2)`` of every row against them.

    ``xs`` stacks the matrices ``(matrices, n, window_len)``, and ``rngs`` holds
    R generators per matrix, matrix by matrix: chain ``c`` seeds matrix
    ``c // R`` with that matrix's k of ``ks``, drawing from ``rngs[c]``. Returns
    ``(seeds, labels, d2)``. Row c of ``seeds`` (``(chains, max k)``) starts with
    chain c's seeds as row indices of its matrix; ``labels`` and ``d2`` are
    ``(chains, n)``. Every chain's draws and results are those of the chain
    seeded alone, one draw per step, and a chain stops drawing at its k.

    Each seed after the first is row ``i`` with probability ``d2_i / sum(d2)``,
    drawn as ``rng.choice(n, p=d2 / sum(d2))`` does: one ``rng.random()``
    searched in the normalised cumulative sum. A chain whose ``sum(d2)`` is zero
    draws ``rng.integers(n)`` instead. ``d2_i`` is the exact search's squared
    distance ``((x_i - c) ** 2).sum()`` to the nearest seed so far, lowered only
    on a strict decrease, so ties keep the lowest index.

    A new seed ``c = x_s`` can lower ``d2_i`` only where ``d2_i`` exceeds its
    exact distance to ``c``, and only those rows are recomputed exactly. With
    ``x' = fl(x - r)`` centred on the midpoint ``r`` of the matrix's bounding box
    and ``nx = ||x'||^2``, one batched product per step gives every chain's
    ``a_i = nx_i + nx_s - 2 x'_i . x'_s``. ``c`` is a row, so its ``nc`` is
    ``nx_s <= max nx``, and ``_assign_all``'s bound, which holds for any
    summation order, gives ``|a_i - d2_new_i| <= e_i``, about
    (4d + 16) u (nx_i + max nx) with u = 2^-53. The slack
    ``s_i = (8d + 32) (eps (nx_i + max nx) + 2^-1074)`` is 4 e_i. A row is
    skipped only when ``a_i > fl(d2_i + s_i)``; then
    ``d2_new_i >= a_i - e_i > d2_i + s_i - e_i - u (d2_i + s_i) >= d2_i``, as
    ``d2_i <= 2 (nx_i + max nx)`` keeps that rounding under 3 u (nx_i + max nx),
    far below the 3 e_i to spare. A row whose ``nx_i + max nx`` exceeds a
    sixteenth of the largest double, or whose ``a_i`` is NaN, is always recomputed.
    """
    n_matrices, n, length = xs.shape
    restarts = len(rngs) // n_matrices
    chain_k = np.repeat(ks, restarts)
    k_max = int(chain_k.max())
    chain_x = np.arange(len(rngs)) // restarts  # each chain's matrix
    # row i of chain c's matrix is rows[base[c] + i]
    rows, base = xs.reshape(-1, length), chain_x * n
    seeds = np.zeros((len(rngs), k_max), dtype=np.intp)
    labels = np.zeros((len(rngs), n), dtype=np.intp)
    d2 = np.empty((len(rngs), n))
    for c, rng in enumerate(rngs):
        seeds[c, 0] = rng.integers(n)
        x = xs[chain_x[c]]
        d2[c] = np.sum((x - x[seeds[c, 0]]) ** 2, axis=1)
    mid = 0.5 * xs.min(axis=1, keepdims=True) + 0.5 * xs.max(axis=1, keepdims=True)
    # x'.T of each matrix, C-contiguous, as _assign_all keeps c'.T
    xc_t = np.subtract(xs.transpose(0, 2, 1), mid.transpose(0, 2, 1), order="C")
    nx = np.einsum("fij,fij->fj", xc_t, xc_t)
    # per step, over every chain: those that do not draw compute values no one reads
    u = np.zeros(len(rngs))
    new = np.empty((n_matrices, restarts, length))  # each chain's new seed, centred, times -2
    # the normalised cumulative sums, then each row's bound; and the products
    cdf, approx = np.empty((len(rngs), n)), np.empty((n_matrices, restarts, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slack = _slack(nx, nx.max(axis=1, keepdims=True), length)[:, None, :]
        for j in range(1, k_max):
            totals = d2.sum(axis=1)
            drew = (chain_k > j) & (totals > 0)
            for c in np.flatnonzero(chain_k > j).tolist():
                if drew[c]:
                    u[c] = rngs[c].random()
                else:
                    seeds[c, j] = rngs[c].integers(n)
            if not drew.any():
                continue
            np.divide(d2, totals[:, None], out=cdf)
            np.cumsum(cdf, axis=1, out=cdf)
            cdf /= cdf[:, -1:].copy()
            # the count of entries <= u is searchsorted(u, side="right") of a nondecreasing cdf
            idx = np.count_nonzero(cdf <= u[:, None], axis=1)
            seeds[drew, j] = idx[drew]
            np.multiply(xc_t[chain_x, :, idx], -2.0, out=new.reshape(-1, length))
            np.matmul(new, xc_t, out=approx)
            approx += nx[:, None, :]
            approx += nx[chain_x, idx].reshape(n_matrices, restarts, 1)
            bound = np.add(d2.reshape(approx.shape), slack, out=cdf.reshape(approx.shape))
            hits = np.flatnonzero(~(approx > bound) & drew.reshape(n_matrices, restarts, 1))
            for p in _pair_pieces(len(hits), k_max, length):
                c, i = np.divmod(hits[p], n)
                exact = _sq_dist(rows[base[c] + i], rows[base[c] + idx[c]])
                lower = exact < d2[c, i]
                d2[c[lower], i[lower]] = exact[lower]
                labels[c[lower], i[lower]] = j
    return seeds, labels, d2


def _assign_all(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances of the rows of ``x`` against
    each set of a ``(sets, k, window_len)`` centroid stack, each ``(sets, n)``;
    ties go to lowest index.

    The result is bit for bit that of the exact search, which computes
    ``d2_ij = ((x_i - c_j) ** 2).sum()`` for every pair and takes the first
    minimum of each row; here only a few pairs per row are computed that way.
    A block holds ``ASSIGN_CHUNK`` rows in total across the sets (at least one
    row per set), so its products hold at most ``ASSIGN_CHUNK * k`` floats, as
    one set's block would. Per block and set:

    1. Centre on ``r``, the midpoint of the set's bounding box:
       ``x' = fl(x - r)`` and ``c' = fl(c - r)``. Expand
       ``a_ij = nx_i + nc_j - 2 g_ij`` with ``nx = ||x'||^2``, ``nc = ||c'||^2``
       and one BLAS product, batched over the sets, ``-2 g = x' @ (-2 c').T``
       (scaling by -2 is exact).
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
    sets, k, length = centroids.shape
    n = len(x)
    labels = np.empty((sets, n), dtype=np.intp)
    best_d2 = np.empty((sets, n))
    ref = 0.5 * centroids.min(axis=1, keepdims=True) + 0.5 * centroids.max(axis=1, keepdims=True)
    # c'.T of each set, C-contiguous: OpenBLAS on several threads runs a batched
    # product with a transposed operand about 100 times slower
    cc_t = np.subtract(centroids.transpose(0, 2, 1), ref.transpose(0, 2, 1), order="C")
    nc = np.einsum("sij,sij->sj", cc_t, cc_t)
    nc_max = nc.max(axis=1, keepdims=True)
    cc_t *= -2.0
    flat = centroids.reshape(-1, length)
    step = max(1, ASSIGN_CHUNK // sets)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            xc = x[lo:hi] - ref
            nx = np.einsum("sij,sij->si", xc, xc)
            approx = np.matmul(xc, cc_t)
            approx += nx[:, :, None]
            approx += nc[:, None, :]
            slack = _slack(nx, nc_max, length)
            # NaN compares false, so a row whose bound is NaN keeps every centroid
            kept = ~(approx > (approx.min(axis=2) + slack)[:, :, None])
            group, cols = np.divmod(np.flatnonzero(kept), k)  # group: set * (hi - lo) + row
            s, rows = np.divmod(group, hi - lo)
            exact = np.empty(len(cols))
            for p in _pair_pieces(len(cols), k, length):
                exact[p] = _sq_dist(x[lo + rows[p]], flat[s[p] * k + cols[p]])
            # every group keeps its approximate minimum; groups ascend, and columns
            # ascend within one, so its first pair at its minimum has the lowest index
            row_min = np.minimum.reduceat(exact, np.flatnonzero(np.diff(group, prepend=-1)))
            ties = np.flatnonzero(exact == row_min[group])
            first = ties[np.diff(group[ties], prepend=-1) != 0]
            labels[:, lo:hi] = cols[first].reshape(sets, -1)
            best_d2[:, lo:hi] = exact[first].reshape(sets, -1)
    return labels, best_d2


def _update(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One chain's Lloyd update: each cluster's mean, summed from zero in row order as
    ``x[labels == j].mean(axis=0)`` sums it, and each empty cluster reseeded at the
    point farthest from the centroids as they stand when its turn comes: updated
    below it, old from it on."""
    k, length = centroids.shape
    counts = np.bincount(labels, minlength=k)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    filled = np.flatnonzero(counts)
    sums = np.zeros((k, length))
    if length == 1:  # numpy sums a one-column slice as a 1-D array: pairwise, not row by row
        for j in filled:
            sums[j] = np.add.reduce(x[order[starts[j]:starts[j] + counts[j]]], axis=0)
    else:  # member p of every cluster with more than p members, one step per p
        live = filled
        for p in range(counts.max()):
            live = live[counts[live] > p]
            sums[live] += x[order[starts[live] + p]]
    new = centroids.copy()
    new[filled] = sums[filled] / counts[filled, None]
    for j in np.flatnonzero(counts == 0):
        _, cur_d2 = _assign_all(x, np.concatenate([new[:j], centroids[j:]])[None])
        new[j] = x[np.argmax(cur_d2[0])]
    return new


def lloyd(
    x: np.ndarray,
    seeds: np.ndarray,
    labels: np.ndarray,
    d2: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, list[float], list[int], list[list[float]]]:
    """Run Lloyd's iterations of several chains over ``x`` together. Chain r starts
    from the centroids ``x[seeds[r]]`` (``seeds`` is a ``(chains, k)`` array of row
    indices) and from ``(labels[r], d2[r])``, the exact search's assignment of
    ``x`` to them, as ``_plusplus_init`` returns them.

    Returns (centroids, labels, sse, iterations, sse_traces): the
    ``(chains, k, window_len)`` centroids and ``(chains, n)`` labels the chains
    end with, and per chain its SSE, iteration count and SSE trace, which holds
    the SSE of the initial assignment and after each iteration. A chain stops
    after ``max_iter`` iterations, or after the first whose update moves no
    centroid by a squared distance of ``tol`` or more, and ends as it would
    have run alone.
    """
    centroids = x[seeds]
    labels = np.array(labels)
    traces = [[float(row.sum())] for row in d2]
    iterations = [0] * len(centroids)
    active = np.arange(len(centroids))
    for iteration in range(1, max_iter + 1):
        if not len(active):
            break
        shift = np.empty(len(active))
        for a, r in enumerate(active):
            new = _update(x, centroids[r], labels[r])
            shift[a] = np.max(np.sum((new - centroids[r]) ** 2, axis=1))
            centroids[r] = new
        # a stack of every chain is passed as is, not copied
        searched = centroids if len(active) == len(centroids) else centroids[active]
        labels[active], d2 = _assign_all(x, searched)
        for r, row in zip(active, d2):
            traces[r].append(float(row.sum()))
            iterations[r] = iteration
        active = active[~(shift < tol)]
    return centroids, labels, [trace[-1] for trace in traces], iterations, traces


def feasible_k(x: np.ndarray, k: int | None) -> int:
    """The k ``kmeans_fit`` fits to the rows of ``x``: ``k`` itself, or for None
    ``DEFAULT_K`` capped at the number of distinct rows.

    Rejected: anything but a non-empty matrix; a matrix whose row count times
    squared bounding-box diameter, a bound on every sum of squared distances
    k-means computes, is not finite; and a k below 1 or beyond the row count
    or the distinct row count.
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
    return k


def kmeans_fit(
    xs: np.ndarray, ks: Sequence[int], seed: int, restarts: int = DEFAULT_RESTARTS
) -> list[tuple[np.ndarray, float, int]]:
    """``(centroids, sse, iterations)`` of the best k-means restart over the rows of
    each matrix of the stack ``xs`` ``(matrices, n, window_len)``, fitted together.

    Each k is the one ``feasible_k`` returned for its matrix. Restart r of every
    matrix draws from ``default_rng((seed, r))``, so each fit is deterministic
    given the seed, and the same fitted alone or beside other matrices. Every
    chain (a restart of a matrix) is seeded in lock-step; then each matrix's
    restarts run Lloyd's iterations together, and the first restart with the
    lowest SSE wins.
    """
    xs = np.asarray(xs, dtype=float)
    rngs = [np.random.default_rng((seed, r)) for _ in xs for r in range(restarts)]
    seeds, labels, d2 = _plusplus_init(xs, ks, rngs)
    fits = []
    for f, (x, k) in enumerate(zip(xs, ks)):
        chains = slice(f * restarts, (f + 1) * restarts)
        centroids, _, sse, iterations, _ = lloyd(
            x, seeds[chains, :k], labels[chains], d2[chains], DEFAULT_MAX_ITER, DEFAULT_TOL
        )
        best = int(np.argmin(sse))
        fits.append((centroids[best].copy(), sse[best], iterations[best]))
        del centroids  # the next matrix's chains need the room
    return fits


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
    """SSE per k with knee-point recommendation; each k is fitted on its own."""
    if not len(k_values):
        raise DataError("k_values must be non-empty")
    if list(k_values) != sorted(set(k_values)):
        raise DataError("k_values must be strictly increasing")
    points = [(k, kmeans_fit(np.asarray(x)[None], [feasible_k(x, k)], seed, restarts)[0][1])
              for k in k_values]
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
    labels, d2 = _assign_all(windows, centroids[None])
    return labels[0], np.sqrt(d2[0])


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
