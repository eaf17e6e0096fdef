"""Owner-only automobile theft detection from CAN-derived trip time series.

Pipeline: ingest trip CSVs -> select essential features on the training and
catalog trips -> hann-highlighted (n_windows, window_len) matrix per feature
-> per-feature k-means centroids, kept in a codebook -> per-sample error of
the batched nearest-centroid reconstruction -> mean error per 32 s detection
window > threshold -> strict-majority vote of the m models over the
(models, windows) theft matrix. One ``WindowConfig`` holds the window, stride
and detection-window lengths in samples. The three exception classes below,
one per nonzero exit code of the command line, are the only ones raised.
"""

__version__ = "0.1.0"


class ConfigError(Exception):
    """A bad setting, config file or thresholds file: exit 1."""


class DataError(Exception):
    """An input that cannot be read or used, or an output that cannot be written: exit 2."""


class InfeasibleKError(DataError):
    """k exceeds the number of (distinct) training segments: exit 3."""
