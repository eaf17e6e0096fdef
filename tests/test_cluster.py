import base64
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import centroid_matrix, fit_codebook, make_windows
from theftdetect import DataError, InfeasibleKError
from theftdetect.cluster import (
    ASSIGN_CHUNK,
    Codebook,
    _assign_all,
    _plusplus_init,
    assign,
    elbow_sweep,
    kmeans_fit,
    knee_index,
    lloyd,
    load_codebook,
    save_codebook,
)
from theftdetect.windowing import WindowConfig


def test_k1_centroid_is_mean():
    rng = np.random.default_rng(0)
    x = make_windows(rng, 50, 8)
    centroids, sse, _ = kmeans_fit(x, 1, seed=0)
    np.testing.assert_allclose(centroids[0], x.mean(axis=0), atol=1e-12)
    expected_sse = float(((x - x.mean(axis=0)) ** 2).sum())
    assert sse == pytest.approx(expected_sse, rel=1e-12)


def test_k_equals_n_zero_sse():
    rng = np.random.default_rng(1)
    _, sse, _ = kmeans_fit(make_windows(rng, 20, 6), 20, seed=0)
    assert sse <= 1e-18


def test_blobs_recovered():
    rng = np.random.default_rng(2)
    centers = np.array([[0.0] * 4, [20.0] * 4, [-15.0] * 4])
    x, truth = [], []
    for label, c in enumerate(centers):
        for _ in range(25):
            x.append(c + rng.normal(0, 0.3, 4))
            truth.append(label)
    x = np.array(x)
    centroids, _, _ = kmeans_fit(x, 3, seed=0)
    # brute-force nearest-mean labeling must match blob identity up to permutation
    got = assign(x, centroids)[0].tolist()
    mapping = {}
    for g, t in zip(got, truth):
        mapping.setdefault(t, g)
        assert mapping[t] == g
    assert len(set(mapping.values())) == 3


def test_assign_matches_brute_force():
    rng = np.random.default_rng(3)
    windows = make_windows(rng, 6, 10)
    centroids, _, _ = kmeans_fit(make_windows(rng, 12, 10), 5, seed=1)
    labels, dists = assign(windows, centroids)
    for row, idx, dist in zip(windows, labels, dists):
        brute = [float(np.linalg.norm(row - c)) for c in centroids]
        assert idx == int(np.argmin(brute))
        assert dist == pytest.approx(min(brute), rel=1e-12)


def test_assign_rejects_wrong_window_len():
    rng = np.random.default_rng(10)
    centroids, _, _ = kmeans_fit(make_windows(rng, 12, 10), 5, seed=1)
    with pytest.raises(DataError, match="window_len"):
        assign(make_windows(rng, 3, 9), centroids)
    with pytest.raises(DataError, match="window_len"):
        assign(make_windows(rng, 1, 10)[0], centroids)


def test_assign_exact_match_and_tie_break():
    x = np.array([[0.0, 0, 0, 0], [2.0, 0, 0, 0], [4.0, 0, 0, 0]])
    centroids, _, _ = kmeans_fit(x, 3, seed=0)
    # window equal to a centroid
    (idx,), (dist,) = assign(x[1:2], centroids)
    assert dist == 0.0
    assert np.allclose(centroids[idx], x[1])
    # equidistant between two centroids: lowest index wins
    mid = np.array([1.0, 0, 0, 0])
    (idx,), _ = assign(mid[None, :], centroids)
    candidates = [
        i for i, c in enumerate(centroids) if np.isclose(np.linalg.norm(mid - c), 1.0)
    ]
    assert idx == min(candidates)


def test_infeasible_k():
    rng = np.random.default_rng(4)
    with pytest.raises(InfeasibleKError):
        kmeans_fit(make_windows(rng, 5, 4), 6, seed=0)
    with pytest.raises(InfeasibleKError):
        kmeans_fit(np.ones((5, 4)), 2, seed=0)


@pytest.mark.parametrize("row, value", [(0, math.nan), (0, math.inf), (0, 1e308), (slice(0, 5), 1e153)],
                         ids=["nan", "inf", "diameter-overflows", "sum-overflows"])
def test_kmeans_rejects_non_finite_or_overflowing_windows(row, value):
    """A matrix whose row count times squared bounding-box diameter is not finite
    is a data error, before any distance is computed (no numpy warning)."""
    x = make_windows(np.random.default_rng(5), 10, 32)
    x[row] += value
    with pytest.raises(DataError, match="not finite or span too wide a range"):
        kmeans_fit(x, 2, seed=0)


def training_meta(cb):
    return cb.trip_ids, cb.segment_count, cb.iterations, cb.seed


def test_non_strict_k_capped_at_distinct_rows():
    x = np.repeat(np.eye(4), 3, axis=0)  # 12 rows, 4 distinct
    centroids, sse, iterations = kmeans_fit(x, None, seed=0)
    assert centroids.shape == (4, 4)
    assert sse == 0.0
    assert iterations >= 1


def test_rejects_empty_or_non_matrix_input():
    with pytest.raises(DataError):
        kmeans_fit(np.empty((0, 4)), 1, seed=0)
    with pytest.raises(DataError):
        kmeans_fit(np.ones(4), 1, seed=0)


def test_determinism():
    rng = np.random.default_rng(5)
    x = make_windows(rng, 40, 8)
    a_centroids, a_sse, a_iterations = kmeans_fit(x, 7, seed=123)
    b_centroids, b_sse, b_iterations = kmeans_fit(x, 7, seed=123)
    np.testing.assert_array_equal(a_centroids, b_centroids)
    assert (a_sse, a_iterations) == (b_sse, b_iterations)


def test_lloyd_sse_non_increasing_and_converged_invariants():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(200, 8))
    init = x[rng.choice(200, 10, replace=False)]
    centroids, labels, sse, _, trace = lloyd(x, init, *_assign_all(x, init), max_iter=100, tol=0.0)
    assert all(a >= b for a, b in zip(trace, trace[1:]))
    # converged assignments are nearest-centroid
    for i in range(len(x)):
        d2 = ((centroids - x[i]) ** 2).sum(axis=1)
        assert labels[i] == int(np.argmin(d2))
    # centroids equal their cluster means
    for j in range(10):
        members = x[labels == j]
        if len(members):
            np.testing.assert_allclose(centroids[j], members.mean(axis=0), atol=1e-9)


def test_elbow_recommends_true_cluster_count():
    rng = np.random.default_rng(7)
    centers = np.array([[0.0] * 6, [12.0] * 6, [-10.0] * 6])
    x = np.array([c + rng.normal(0, 0.4, 6) for c in centers for _ in range(20)])
    curve = elbow_sweep(x, list(range(1, 9)), seed=0, restarts=3)
    assert curve.recommended_k == 3
    ks = [k for k, _ in curve.points]
    assert ks == sorted(ks)


def test_elbow_k_equals_n_point():
    rng = np.random.default_rng(8)
    curve = elbow_sweep(make_windows(rng, 10, 4), [10], seed=0, restarts=2)
    assert curve.points[0][1] <= 1e-18


def test_knee_index_toy():
    points = [(1, 100.0), (2, 40.0), (3, 5.0), (4, 4.0), (5, 3.0)]
    assert points[knee_index(points)][0] == 3


def test_codebook_json_round_trip_bit_faithful(tmp_path):
    rng = np.random.default_rng(9)
    cfg = WindowConfig(sample_period_s=1.0, window_s=8.0, stride_s=4.0)
    cb = fit_codebook(make_windows(rng, 15, 8), 4, cfg, seed=2, feature="speed", trip_ids=("t1", "t2"))
    path = tmp_path / "codebook_speed.json"
    save_codebook(cb, path)
    loaded = load_codebook(path)
    np.testing.assert_array_equal(loaded.centroids, cb.centroids)
    assert loaded.sse == cb.sse
    assert loaded.feature == cb.feature
    assert loaded.cfg == cb.cfg
    assert training_meta(loaded) == training_meta(cb)
    doc = json.loads(path.read_text())
    assert set(doc) == {
        "format_version", "feature", "sample_period_s", "window_s", "stride_s", "k",
        "centroids", "sse", "seed", "trip_ids", "segment_count", "iterations",
    }
    # 4 rows of 8 little-endian float64, base64-encoded: 256 bytes in 344 characters
    assert (doc["format_version"], doc["k"]) == (4, 4)
    assert doc["centroids"] == base64.b64encode(cb.centroids.astype("<f8").tobytes()).decode("ascii")
    assert len(doc["centroids"]) == 344


@settings(max_examples=60, deadline=None)
@given(window_len=st.integers(2, 6), cells=st.lists(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]),
    min_size=6, max_size=30))
@example(window_len=2, cells=[-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308])
def test_version_4_round_trip_is_bit_exact(tmp_path_factory, window_len, cells):
    k = len(cells) // window_len
    cfg = WindowConfig(sample_period_s=1.0, window_s=float(window_len), stride_s=1.0)
    cb = Codebook(feature="f", centroids=np.array(cells[: k * window_len]).reshape(k, window_len),
                  sse=0.5, cfg=cfg, trip_ids=("t",), segment_count=k, iterations=1, seed=0)
    path = tmp_path_factory.mktemp("v4") / "codebook_f.json"
    save_codebook(cb, path)
    assert json.loads(path.read_text())["k"] == k
    loaded = load_codebook(path)
    assert loaded.centroids.dtype == np.float64 and loaded.centroids.shape == (k, window_len)
    assert loaded.centroids.tobytes() == cb.centroids.tobytes()


def test_older_codebook_versions_ask_for_train_again(tmp_path):
    """Version 3 files (no k, the training counts under training_meta), version 2 files
    (centroids as JSON lists of rows) and version 1 files (five more derived keys) are
    rejected, naming the file and asking for ``train`` again."""
    rng = np.random.default_rng(10)
    cfg = WindowConfig(sample_period_s=2.0, window_s=12.0, stride_s=6.0)
    cb = fit_codebook(make_windows(rng, 15, 6), 3, cfg, seed=4, feature="speed", trip_ids=("t1",))
    path = tmp_path / "codebook_speed.json"
    save_codebook(cb, path)
    v4 = json.loads(path.read_text())
    meta = {key: v4.pop(key) for key in ("trip_ids", "segment_count", "iterations")}
    k = v4.pop("k")
    v3 = {**v4, "format_version": 3, "training_meta": meta}
    v2 = {**v3, "format_version": 2, "centroids": centroid_matrix(v3).tolist()}
    v1 = {**v2, "format_version": 1, "k": k, "window_len": 6, "stride_len": 3,
          "filter_name": "hann", "trained_at": None}
    for older in (v1, v2, v3):
        path.write_text(json.dumps(older))
        message = f"{path} is not a format version 4 codebook (format_version {older['format_version']})"
        with pytest.raises(DataError, match="^" + re.escape(message + "; run `train` again")):
            load_codebook(path)


def exact_search(x, centroids, chunk=16):
    """The reference search: exact differences to every centroid, ``chunk`` rows at a time."""
    n = len(x)
    labels = np.empty(n, dtype=np.intp)
    best_d2 = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d2 = ((x[lo:hi, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels[lo:hi] = np.argmin(d2, axis=1)
        best_d2[lo:hi] = d2[np.arange(hi - lo), labels[lo:hi]]
    return labels, best_d2


def mask_lloyd(x, init_centroids, max_iter, tol):
    """The reference Lloyd's iterations: one boolean mask and ``mean`` per cluster,
    and an exact search over the centroids as they stand for each empty one."""
    centroids = init_centroids.copy()
    labels, d2 = exact_search(x, centroids)
    trace = [float(d2.sum())]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_centroids = centroids.copy()
        for j in range(len(centroids)):
            members = x[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
            else:
                _, cur_d2 = exact_search(x, new_centroids)
                new_centroids[j] = x[np.argmax(cur_d2)]
        shift = float(np.max(np.sum((new_centroids - centroids) ** 2, axis=1)))
        centroids = new_centroids
        labels, d2 = exact_search(x, centroids)
        trace.append(float(d2.sum()))
        if shift < tol:
            break
    return centroids, labels, float(d2.sum()), iterations, trace


@st.composite
def search_cases(draw):
    """(rows, centroids) with exact ties, 1-ulp near-ties, zero rows, magnitudes
    from 1e-3 to 1e6 and an offset so large that ||x||^2 overflows."""
    n = draw(st.integers(1, 3 * ASSIGN_CHUNK + 5))
    k = draw(st.integers(1, 40))
    # around numpy's pairwise-summation block edges (8 and 128 terms)
    d = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 16, 32, 33, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "grid", "offset"]))
    if kind == "normal":
        scale = 10.0 ** draw(st.integers(-3, 6))
        x, c = scale * rng.normal(size=(n, d)), scale * rng.normal(size=(k, d))
    elif kind == "grid":  # halves: every squared distance is exact, so ties are exact
        x, c = 0.5 * rng.integers(-3, 4, size=(n, d)), 0.5 * rng.integers(-3, 4, size=(k, d))
    else:  # a few ulps apart at 1e155 or more: the differences square finitely, ||x||^2 does not
        base = draw(st.sampled_from([1e155, -3e157, 1e160]))
        step = abs(np.spacing(base))
        x = base + step * rng.integers(-50, 51, size=(n, d))
        c = base + step * rng.integers(-50, 51, size=(k, d))
    i, j, r = rng.integers(k), rng.integers(k), rng.integers(n)
    if draw(st.booleans()):  # duplicate centroids
        c[j] = c[i]
    if draw(st.booleans()):  # a row on a centroid
        x[r] = c[i]
    if draw(st.booleans()):  # a centroid 1 ulp from another in one coordinate
        t = rng.integers(d)
        c[j] = c[i]
        c[j, t] = np.nextafter(c[i, t], np.inf)
    if draw(st.booleans()):  # a row midway between two centroids: exactly equidistant on the grid
        x[r] = 0.5 * (c[i] + c[j])
    if kind != "offset" and draw(st.booleans()):  # all-zero rows
        x[rng.integers(n, size=max(1, n // 4))] = 0.0
    return x, c


@settings(max_examples=300, deadline=None)
@given(case=search_cases())
def test_assign_all_matches_exact_search_bit_for_bit(case):
    x, c = case
    labels, d2 = _assign_all(x, c)
    want_labels, want_d2 = exact_search(x, c)
    np.testing.assert_array_equal(labels, want_labels)
    assert d2.tobytes() == want_d2.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3 * ASSIGN_CHUNK),
    d=st.sampled_from([1, 4, 32]),
    k=st.integers(1, 30),
    duplicates=st.integers(0, 3),
    max_iter=st.integers(1, 20),
    tol=st.sampled_from([0.0, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=40, d=4, k=6, duplicates=2, max_iter=10, tol=0.0, seed=0).via("two empty clusters")
def test_lloyd_matches_mask_lloyd_bit_for_bit(n, d, k, duplicates, max_iter, tol, seed):
    """Duplicate initial centroids leave the higher-indexed copy empty after the
    first assignment, so the reseed path runs."""
    rng = np.random.default_rng(seed)
    x = 10.0 * rng.normal(size=(n, d))
    k = min(k, n)
    init = x[rng.choice(n, k, replace=False)]
    for j in rng.choice(k, min(duplicates, k - 1), replace=False):
        init[j] = init[0] if j else init[-1]
    got = lloyd(x, init, *exact_search(x, init), max_iter, tol)
    want = mask_lloyd(x, init, max_iter, tol)
    assert got[0].tobytes() == want[0].tobytes()
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2:] == want[2:]


def choice_plusplus_init(x, k, rng):
    """The reference seeding: ``rng.choice`` over exact differences to every row at each step."""
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


@settings(max_examples=300, deadline=None)
@given(case=search_cases(), seed=st.integers(0, 2**32 - 1))
def test_plusplus_init_matches_choice_seeding_bit_for_bit(case, seed):
    """Same seeds, the exact search's assignment against them, and the generator
    left in the same state; the case's centroids only set k (at most the row count)."""
    x, c = case
    k = min(len(c), len(x))
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    centroids, labels, d2 = _plusplus_init(x, k, rng)
    want = choice_plusplus_init(x, k, want_rng)
    assert centroids.tobytes() == want.tobytes()
    want_labels, want_d2 = exact_search(x, centroids)
    np.testing.assert_array_equal(labels, want_labels)
    assert d2.tobytes() == want_d2.tobytes()
    assert rng.random() == want_rng.random()


def test_assign_rejects_windows_too_far_to_square():
    """Windows whose squared distances to the centroids overflow are a data
    error, with no numpy warning; so are non-finite ones."""
    centroids = make_windows(np.random.default_rng(11), 4, 8)
    for value in (1e308, -1e200, math.nan, math.inf):
        windows = make_windows(np.random.default_rng(12), 3, 8)
        windows[1, 3] = value
        with pytest.raises(DataError, match="not finite or span too wide a range"):
            assign(windows, centroids)
