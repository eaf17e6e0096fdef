"""Sliding-window matrices and zero-endpoint filter highlighting.

A single-feature series becomes one ``(n_windows, window_len)`` matrix whose
row ``i`` is the window starting at sample ``i * stride_len`` (32 s window,
16 s stride by default). Highlighting multiplies every row by a raised-cosine
filter that starts and ends at zero, concentrating the signal mid-window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class WindowError(Exception):
    """Series too short or configuration invalid."""


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def hann_filter(n: int) -> np.ndarray:
    """Symmetric raised cosine: w[i] = 0.5*(1 - cos(2*pi*i/(n-1)))."""
    i = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * i / (n - 1)))


def triangular_filter(n: int) -> np.ndarray:
    i = np.arange(n)
    return 1.0 - np.abs(2.0 * i / (n - 1) - 1.0)


FILTERS = {"hann": hann_filter, "triangular": triangular_filter}


@dataclass(frozen=True)
class WindowConfig:
    """Window/stride in seconds, converted to sample counts (round half up)."""

    sample_period_s: float
    window_s: float = 32.0
    stride_s: float = 16.0
    filter_name: str = "hann"

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0 or self.window_s <= 0 or self.stride_s <= 0:
            raise WindowError("window, stride, and sample period must be positive")
        if self.filter_name not in FILTERS:
            raise WindowError(f"unknown filter {self.filter_name!r}")
        if self.window_len < 2:
            raise WindowError(f"window_len {self.window_len} < 2")
        if not 1 <= self.stride_len <= self.window_len:
            raise WindowError(
                f"stride_len {self.stride_len} must be in [1, {self.window_len}]"
            )

    @property
    def window_len(self) -> int:
        return _round_half_up(self.window_s / self.sample_period_s)

    @property
    def stride_len(self) -> int:
        return _round_half_up(self.stride_s / self.sample_period_s)

    def filter_coefficients(self) -> np.ndarray:
        return FILTERS[self.filter_name](self.window_len)


def slide(series: np.ndarray, cfg: WindowConfig) -> np.ndarray:
    """Full windows at stride intervals, one per row of a new matrix.

    Trailing samples short of a full window are dropped.
    """
    series = np.asarray(series, dtype=float)
    if len(series) < cfg.window_len:
        raise WindowError(f"series of length {len(series)} shorter than window {cfg.window_len}")
    return sliding_window_view(series, cfg.window_len)[:: cfg.stride_len].copy()


def slide_highlighted(series: np.ndarray, cfg: WindowConfig) -> np.ndarray:
    """Window matrix with every row multiplied by the zero-endpoint filter."""
    return slide(series, cfg) * cfg.filter_coefficients()
