"""Per-sample reconstruction error of a series against a codebook.

The series becomes a highlighted window matrix, and one batched
nearest-centroid pass replaces each row by its codebook centroid. The
highlighted rows and their centroids are each merged by the arithmetic mean of
overlapping rows, and the error is the absolute difference of the two merged
series, sample for sample.
"""

from __future__ import annotations

import numpy as np

from .cluster import Codebook, assign
from .windowing import slide_highlighted


def overlap_merge(windows: np.ndarray, stride: int) -> np.ndarray:
    """Mean of the rows covering each sample; row i starts at sample i * stride.

    Contributions are summed in row order at every sample. ``WindowConfig``
    bounds the stride by the window length, so every sample is covered.
    """
    n, length = windows.shape
    index = np.arange(n)[:, None] * stride + np.arange(length)
    acc = np.zeros((n - 1) * stride + length)
    np.add.at(acc, index, windows)
    return acc / np.bincount(index.ravel())


def error_series(series: np.ndarray, cb: Codebook) -> np.ndarray:
    """Per-sample absolute difference between the highlighted series and its
    nearest-centroid reconstruction, both overlap-merged."""
    windows = slide_highlighted(series, cb.cfg)
    labels, _ = assign(windows, cb.centroids)
    stride = cb.cfg.stride_len
    return np.abs(overlap_merge(windows, stride) - overlap_merge(cb.centroids[labels], stride))
