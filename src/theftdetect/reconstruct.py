"""Nearest-centroid reconstruction and per-sample reconstruction error.

A validation series becomes a highlighted window matrix, and one batched
nearest-centroid pass replaces each row by its codebook centroid. Overlapping
rows are merged by arithmetic mean; the highlighted original is merged the
same way so the two sequences compare sample-for-sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Codebook, assign
from .windowing import slide_highlighted


class ReconstructError(Exception):
    pass


@dataclass(frozen=True)
class Reconstruction:
    """The highlighted series and its reconstruction, both overlap-merged to one length."""

    original_assembled: np.ndarray
    reconstructed: np.ndarray


def overlap_merge(windows: np.ndarray, stride: int) -> np.ndarray:
    """Mean of the rows covering each sample; row i starts at sample i * stride.

    Contributions are summed in row order at every sample.
    """
    n, length = windows.shape
    if not 1 <= stride <= length:
        raise ReconstructError(f"stride {stride} leaves samples uncovered by windows of {length}")
    index = np.arange(n)[:, None] * stride + np.arange(length)
    acc = np.zeros((n - 1) * stride + length)
    np.add.at(acc, index, windows)
    return acc / np.bincount(index.ravel())


def reconstruct_series(series: np.ndarray, cb: Codebook) -> Reconstruction:
    """Rebuild a series from nearest codebook centroids."""
    cfg = cb.cfg
    windows = slide_highlighted(series, cfg)
    labels, _ = assign(windows, cb)
    return Reconstruction(
        original_assembled=overlap_merge(windows, cfg.stride_len),
        reconstructed=overlap_merge(cb.centroids[labels], cfg.stride_len),
    )


def error_series(rec: Reconstruction) -> np.ndarray:
    """Per-sample absolute difference between original and reconstruction."""
    return np.abs(rec.original_assembled - rec.reconstructed)
