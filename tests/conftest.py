import base64

import numpy as np
from hypothesis import settings

from theftdetect.cluster import DEFAULT_RESTARTS, Codebook, feasible_k, kmeans_fit
from theftdetect.windowing import WindowConfig

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a red
# CI run reproduces with the same command; without the flag examples stay random
settings.register_profile("ci", derandomize=True, deadline=None)


def make_windows(rng: np.random.Generator, n: int, length: int) -> np.ndarray:
    return rng.normal(size=(n, length))


def fit_one(x, k, seed=0, restarts=DEFAULT_RESTARTS):
    """``(centroids, sse, iterations)`` of ``kmeans_fit`` over the one matrix ``x``,
    its k checked (a None settled) by ``feasible_k`` first."""
    return kmeans_fit(np.asarray(x)[None], [feasible_k(x, k)], seed, restarts)[0]


def fit_codebook(windows, k, cfg, seed=0, restarts=DEFAULT_RESTARTS, feature="f", trip_ids=()):
    """A codebook of ``kmeans_fit`` centroids over ``windows``, as ``cli.train_codebooks`` builds one."""
    centroids, sse, iterations = fit_one(windows, k, seed, restarts)
    return Codebook(
        feature=feature, centroids=centroids, sse=sse, cfg=cfg,
        trip_ids=tuple(trip_ids), segment_count=len(windows), iterations=iterations, seed=seed,
    )


def centroid_matrix(doc):
    """The centroids of a codebook document: k little-endian float64 rows of
    window_len values, base64-encoded."""
    cfg = WindowConfig(doc["sample_period_s"], doc["window_s"], doc["stride_s"])
    return np.frombuffer(base64.b64decode(doc["centroids"]), dtype="<f8").reshape(-1, cfg.window_len)
