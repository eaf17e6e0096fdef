import numpy as np
import pytest

from conftest import fit_codebook
from theftdetect.cluster import assign
from theftdetect.reconstruct import error_series, overlap_merge
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
    return fit_codebook(windows, k or len(windows), cfg)


def nearest(series, cb):
    """Nearest centroid index and distance per window, as reconstruction finds them."""
    return assign(slide_highlighted(series, cb.cfg), cb.centroids)


def test_perfect_codebook_reconstructs_exactly():
    rng = np.random.default_rng(0)
    series = rng.normal(size=60)
    cb = train_codebook(series, small_cfg())
    assert nearest(series, cb)[1].max() <= 1e-9
    assert error_series(series, cb).max() <= 1e-9


def test_single_window_is_nearest_centroid():
    rng = np.random.default_rng(1)
    cfg = small_cfg()
    cb = train_codebook(rng.normal(size=40), cfg, k=3)
    series = rng.normal(size=8)
    (idx,), _ = nearest(series, cb)
    np.testing.assert_array_equal(
        error_series(series, cb), np.abs(series * hann_filter(cfg.window_len) - cb.centroids[idx])
    )


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

    nearest_labels, nearest_distances = nearest(series, cb)
    np.testing.assert_array_equal(nearest_labels, labels)
    np.testing.assert_array_equal(nearest_distances, distances)
    err = error_series(series, cb)
    np.testing.assert_array_equal(err, np.abs(acc_o / count - acc_r / count))
    assert (err >= 0).all()


def test_overlap_merge_matches_direct_computation():
    # stride = window/2 with the raised-cosine filter: check the assembled
    # original against a direct per-sample average of covering windows
    rng = np.random.default_rng(4)
    cfg = small_cfg()
    series = rng.normal(size=40)
    windows = slide_highlighted(series, cfg)
    merged = overlap_merge(windows, cfg.stride_len)

    w = hann_filter(cfg.window_len)
    starts = np.arange(len(windows)) * cfg.stride_len
    for i in range(len(merged)):
        contributions = [
            series[i] * w[i - s] for s in starts if s <= i < s + cfg.window_len
        ]
        assert merged[i] == pytest.approx(np.mean(contributions), abs=1e-12)


def test_overlap_merge_order_independent():
    # mirroring the window order (and each window) mirrors the merge: a
    # sample's mean does not depend on which window covers it first
    windows = np.array([[1.0, 2.0], [4.0, 6.0]])
    a = overlap_merge(windows, 1)
    b = overlap_merge(windows[::-1, ::-1], 1)
    np.testing.assert_array_equal(a, b[::-1])
    np.testing.assert_array_equal(a, [1.0, 3.0, 6.0])


def test_reconstruct_too_short():
    cfg = small_cfg()
    cb = train_codebook(np.arange(24.0), cfg, k=2)
    with pytest.raises(WindowError):
        error_series(np.arange(5.0), cb)


def test_reconstruct_length_invariant():
    rng = np.random.default_rng(5)
    cfg = small_cfg()
    cb = train_codebook(rng.normal(size=48), cfg, k=4)
    series = rng.normal(size=31)  # tail beyond last full window dropped
    err = error_series(series, cb)
    last_start = (len(nearest(series, cb)[0]) - 1) * cfg.stride_len
    assert len(err) == last_start + cfg.window_len
    assert len(err) <= 31


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
