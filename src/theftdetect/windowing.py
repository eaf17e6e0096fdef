"""Sliding-window matrices, hann highlighting and the detection-window length.

A single-feature series becomes one ``(n_windows, window_len)`` matrix whose
row ``i`` is the window starting at sample ``i * stride_len`` (32 s window,
16 s stride by default). Highlighting multiplies every row by the hann
(raised-cosine) filter, which starts and ends at zero and so concentrates the
signal mid-window. Verdicts are taken over non-overlapping detection windows
of ``DETECTION_WINDOW_S`` seconds at every sample period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


DETECTION_WINDOW_S = 32.0


class WindowError(Exception):
    """Series too short or configuration invalid."""


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def hann_filter(n: int) -> np.ndarray:
    """Symmetric raised cosine: w[i] = 0.5*(1 - cos(2*pi*i/(n-1)))."""
    i = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * i / (n - 1)))


@dataclass(frozen=True)
class WindowConfig:
    """Window/stride in seconds, converted to sample counts (round half up)."""

    sample_period_s: float
    window_s: float = 32.0
    stride_s: float = 16.0

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.sample_period_s, self.window_s, self.stride_s)):
            raise WindowError("window, stride, and sample period must be finite and positive")
        if self.window_len < 2:
            raise WindowError(f"window_len {self.window_len} < 2")
        if not 1 <= self.stride_len <= self.window_len:
            raise WindowError(
                f"stride_len {self.stride_len} must be in [1, {self.window_len}]"
            )
        if self.detection_len < 1:
            raise WindowError("detection window shorter than one sample")

    @property
    def window_len(self) -> int:
        return _round_half_up(self.window_s / self.sample_period_s)

    @property
    def stride_len(self) -> int:
        return _round_half_up(self.stride_s / self.sample_period_s)

    @property
    def detection_len(self) -> int:
        return _round_half_up(DETECTION_WINDOW_S / self.sample_period_s)


def slide(series: np.ndarray, cfg: WindowConfig) -> np.ndarray:
    """Full windows at stride intervals, one per row of a new matrix.

    Trailing samples short of a full window are dropped.
    """
    series = np.asarray(series, dtype=float)
    if len(series) < cfg.window_len:
        raise WindowError(f"series of length {len(series)} shorter than window {cfg.window_len}")
    return sliding_window_view(series, cfg.window_len)[:: cfg.stride_len].copy()


def slide_highlighted(series: np.ndarray, cfg: WindowConfig) -> np.ndarray:
    """Window matrix with every row multiplied by the hann filter."""
    return slide(series, cfg) * hann_filter(cfg.window_len)
