import numpy as np
from hypothesis import settings

from theftdetect.cluster import DEFAULT_RESTARTS, Codebook, kmeans_fit
from theftdetect.windowing import WindowConfig

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a red
# CI run reproduces with the same command; without the flag examples stay random
settings.register_profile("ci", derandomize=True, deadline=None)


def make_windows(rng: np.random.Generator, n: int, length: int) -> np.ndarray:
    return rng.normal(size=(n, length))


def fit_codebook(windows, k, cfg, seed=0, restarts=DEFAULT_RESTARTS, feature="f", trip_ids=()):
    """A codebook of ``kmeans_fit`` centroids over ``windows``, as ``cli.train_codebooks`` builds one."""
    centroids, sse, iterations = kmeans_fit(windows, k, seed, restarts=restarts)
    return Codebook(
        feature=feature, centroids=centroids, sse=sse, cfg=cfg,
        trip_ids=tuple(trip_ids), segment_count=len(windows), iterations=iterations, seed=seed,
    )


def as_version_1(doc):
    """A version 2 codebook document as version 1 wrote it: the same keys, plus five
    that version 2 derives or never varied."""
    cfg = WindowConfig(doc["sample_period_s"], doc["window_s"], doc["stride_s"])
    return {**doc, "format_version": 1, "k": len(doc["centroids"]), "window_len": cfg.window_len,
            "stride_len": cfg.stride_len, "filter_name": "hann", "trained_at": None}
