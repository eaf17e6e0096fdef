import json
import math

import numpy as np
import pytest

from conftest import fit_codebook, make_windows
from theftdetect import DataError, InfeasibleKError
from theftdetect.cluster import (
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
    centroids, labels, sse, _, trace = lloyd(x, init, max_iter=100, tol=0.0)
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
    for key in (
        "format_version", "feature", "k", "window_len", "stride_len",
        "sample_period_s", "filter_name", "centroids", "sse", "seed", "trained_at",
    ):
        assert key in doc
