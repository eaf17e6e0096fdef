import numpy as np
import pytest

from theftdetect.cluster import assign, kmeans_fit
from theftdetect.reconstruct import (
    ReconstructError,
    Reconstruction,
    error_series,
    overlap_merge,
    reconstruct_series,
)
from theftdetect.windowing import (
    WindowConfig,
    WindowError,
    hann_filter,
    slide_highlighted,
)


def small_cfg(window=8.0, stride=4.0):
    return WindowConfig(sample_period_s=1.0, window_s=window, stride_s=stride)


def train_codebook(series, cfg, k=None):
    windows = slide_highlighted(series, cfg)
    return kmeans_fit(windows, "f", k or len(windows), seed=0, cfg=cfg)


def nearest(series, cb):
    """Nearest centroid index and distance per window, as reconstruction finds them."""
    return assign(slide_highlighted(series, cb.cfg), cb)


def test_perfect_codebook_reconstructs_exactly():
    rng = np.random.default_rng(0)
    series = rng.normal(size=60)
    cfg = small_cfg()
    cb = train_codebook(series, cfg)
    rec = reconstruct_series(series, cb)
    np.testing.assert_allclose(rec.reconstructed, rec.original_assembled, atol=1e-9)
    assert nearest(series, cb)[1].max() <= 1e-9
    assert error_series(rec).max() <= 1e-9


def test_single_window_is_nearest_centroid():
    rng = np.random.default_rng(1)
    cfg = small_cfg()
    train = rng.normal(size=40)
    cb = train_codebook(train, cfg, k=3)
    series = rng.normal(size=8)
    rec = reconstruct_series(series, cb)
    (idx,), _ = nearest(series, cb)
    np.testing.assert_array_equal(rec.reconstructed, cb.centroids[idx])


@pytest.mark.parametrize("window, stride", [(8.0, 4.0), (8.0, 3.0), (5.0, 5.0), (6.0, 1.0)])
def test_reconstruct_matches_naive_reference(window, stride):
    # reference: one nearest-centroid search and one overlap add per window,
    # in window order, as the paper describes the pipeline
    rng = np.random.default_rng(8)
    cfg = small_cfg(window, stride)
    cb = train_codebook(rng.normal(size=60), cfg, k=5)
    series = rng.normal(size=47)
    length, step = cfg.window_len, cfg.stride_len
    w = hann_filter(length)
    starts = range(0, len(series) - length + 1, step)
    total = starts[-1] + length
    acc_o, acc_r, count = np.zeros(total), np.zeros(total), np.zeros(total)
    labels, distances = [], []
    for s in starts:
        piece = series[s : s + length] * w
        d2 = np.sum((cb.centroids - piece) ** 2, axis=1)
        idx = int(np.argmin(d2))
        labels.append(idx)
        distances.append(float(np.sqrt(d2[idx])))
        acc_o[s : s + length] += piece
        acc_r[s : s + length] += cb.centroids[idx]
        count[s : s + length] += 1

    rec = reconstruct_series(series, cb)
    nearest_labels, nearest_distances = nearest(series, cb)
    np.testing.assert_array_equal(nearest_labels, labels)
    np.testing.assert_array_equal(nearest_distances, distances)
    np.testing.assert_array_equal(rec.original_assembled, acc_o / count)
    np.testing.assert_array_equal(rec.reconstructed, acc_r / count)


def test_error_series_elementwise_oracle():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=50), rng.normal(size=50)
    err = error_series(Reconstruction(a, b))
    for i in range(50):
        expected = a[i] - b[i] if a[i] >= b[i] else b[i] - a[i]
        assert err[i] == expected


def test_error_series_symmetry_and_sign():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=30), rng.normal(size=30)
    e1 = error_series(Reconstruction(a, b))
    e2 = error_series(Reconstruction(b, a))
    np.testing.assert_array_equal(e1, e2)
    assert (e1 >= 0).all()


def test_error_series_arithmetic():
    assert error_series(Reconstruction(np.array([5.0]), np.array([3.0])))[0] == 2.0


def test_overlap_merge_matches_direct_computation():
    # stride = window/2 with the raised-cosine filter: check the assembled
    # original against a direct per-sample average of covering windows
    rng = np.random.default_rng(4)
    cfg = small_cfg()
    series = rng.normal(size=40)
    cb = train_codebook(series, cfg)
    rec = reconstruct_series(series, cb)

    w = hann_filter(cfg.window_len)
    n = len(rec.original_assembled)
    starts = np.arange(len(nearest(series, cb)[0])) * cfg.stride_len
    for i in range(n):
        contributions = [
            series[i] * w[i - s] for s in starts if s <= i < s + cfg.window_len
        ]
        assert rec.original_assembled[i] == pytest.approx(np.mean(contributions), abs=1e-12)


def test_overlap_merge_order_independent():
    # mirroring the window order (and each window) mirrors the merge: a
    # sample's mean does not depend on which window covers it first
    windows = np.array([[1.0, 2.0], [4.0, 6.0]])
    a = overlap_merge(windows, 1)
    b = overlap_merge(windows[::-1, ::-1], 1)
    np.testing.assert_array_equal(a, b[::-1])
    np.testing.assert_array_equal(a, [1.0, 3.0, 6.0])


def test_overlap_merge_rejects_gaps():
    with pytest.raises(ReconstructError):
        overlap_merge(np.ones((2, 2)), 3)


def test_reconstruct_too_short():
    cfg = small_cfg()
    cb = train_codebook(np.arange(24.0), cfg, k=2)
    with pytest.raises(WindowError):
        reconstruct_series(np.arange(5.0), cb)


def test_reconstruct_length_invariant():
    rng = np.random.default_rng(5)
    cfg = small_cfg()
    cb = train_codebook(rng.normal(size=48), cfg, k=4)
    series = rng.normal(size=31)  # tail beyond last full window dropped
    rec = reconstruct_series(series, cb)
    last_start = (len(nearest(series, cb)[0]) - 1) * cfg.stride_len
    assert len(rec.reconstructed) == last_start + cfg.window_len
    assert len(rec.reconstructed) <= 31


def test_spliced_tail_raises_distances():
    rng = np.random.default_rng(6)
    cfg = small_cfg()
    owner = 10.0 + rng.normal(0, 0.5, 200)
    thief = 40.0 + rng.normal(0, 0.5, 200)
    cb = train_codebook(owner, cfg, k=8)
    spliced = owner.copy()
    spliced[150:] = thief[150:]
    _, distances = nearest(spliced, cb)
    starts = np.arange(len(distances)) * cfg.stride_len
    pre = distances[starts + cfg.window_len <= 150]
    post = distances[starts >= 150]
    assert np.mean(post) > 5 * np.mean(pre)
