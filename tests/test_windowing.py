import numpy as np
import pytest
from hypothesis import given, strategies as st

from theftdetect import DataError
from theftdetect.windowing import (
    WindowConfig,
    hann_filter,
    slide,
    slide_highlighted,
)


def cfg(window=32, stride=16, period=1.0):
    return WindowConfig(sample_period_s=period, window_s=window, stride_s=stride)


def test_slide_counts_64():
    windows = slide(np.arange(64.0), cfg())
    assert windows.shape == (3, 32)
    assert windows[:, 0].tolist() == [0, 16, 32]  # row i starts at sample i * stride


def test_slide_exact_window():
    windows = slide(np.arange(32.0), cfg())
    assert windows.shape == (1, 32)


def test_slide_too_short():
    with pytest.raises(DataError):
        slide(np.arange(31.0), cfg())


def test_slide_copies_values():
    series = np.arange(64.0)
    windows = slide(series, cfg())
    windows[0, 0] = 99.0
    assert series[0] == 0.0


@given(
    length=st.integers(2, 500),
    window=st.integers(2, 64),
    stride=st.integers(1, 64),
)
def test_slide_count_formula(length, window, stride):
    stride = min(stride, window)
    c = cfg(window=window, stride=stride)
    if length < window:
        with pytest.raises(DataError):
            slide(np.zeros(length), c)
        return
    series = np.arange(float(length))
    windows = slide(series, c)
    assert windows.shape == ((length - window) // stride + 1, window)
    for i, row in enumerate(windows):
        np.testing.assert_array_equal(row, series[i * stride : i * stride + window])
    # the rows at stride cover [0, last_start + window) exactly
    covered = np.zeros(length, dtype=bool)
    covered[windows.astype(int).ravel()] = True
    last = (len(windows) - 1) * stride
    assert covered[: last + window].all()
    assert not covered[last + window :].any()


def test_filter_values_n32():
    # w[n] = 0.5*(1 - cos(2*pi*n/31)) evaluated directly
    w = hann_filter(32)
    assert w[0] == 0.0 and w[31] == 0.0
    assert w[15] == pytest.approx(0.9974346616959475, abs=1e-15)
    assert w[16] == pytest.approx(0.9974346616959475, abs=1e-15)


def test_highlight_all_ones_equals_filter():
    out = slide_highlighted(np.ones(64), cfg())
    assert out.shape == (3, 32)
    for row in out:
        np.testing.assert_allclose(row, hann_filter(32), atol=0)


def test_highlight_all_zeros():
    out = slide_highlighted(np.zeros(64), cfg())
    assert (out == 0).all()


@given(st.integers(2, 200))
def test_filter_endpoints_exactly_zero(n):
    w = hann_filter(n)
    assert w[0] == 0.0
    assert w[n - 1] == 0.0


@given(st.integers(2, 200))
def test_filter_symmetry(n):
    w = hann_filter(n)
    assert np.max(np.abs(w - w[::-1])) < 1e-12


def test_highlight_endpoints_zero_any_segment():
    rng = np.random.default_rng(0)
    out = slide_highlighted(rng.normal(size=80) * 1e6, cfg())
    assert (out[:, 0] == 0.0).all()
    assert (out[:, -1] == 0.0).all()


def test_highlight_linear():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=64), rng.normal(size=64)
    a, b = 2.5, -1.25
    c = cfg()
    lhs = slide_highlighted(a * x + b * y, c)
    rhs = a * slide_highlighted(x, c) + b * slide_highlighted(y, c)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_window_config_validation():
    with pytest.raises(DataError):
        WindowConfig(sample_period_s=1.0, window_s=1.0, stride_s=1.0)  # window_len < 2
    with pytest.raises(DataError):
        WindowConfig(sample_period_s=1.0, window_s=32.0, stride_s=48.0)  # stride > window


def test_seconds_to_samples_round_half_up():
    c = WindowConfig(sample_period_s=0.5, window_s=32.0, stride_s=16.0)
    assert c.window_len == 64
    assert c.stride_len == 32
    c2 = WindowConfig(sample_period_s=3.0, window_s=32.0, stride_s=16.0)
    assert c2.window_len == 11  # 10.67 rounds half up
    assert c2.stride_len == 5
