"""Owner-only automobile theft detection from CAN-derived trip time series.

Pipeline: ingest trip CSVs -> select essential features -> highlighted
(n_windows, window_len) matrix per feature -> per-feature k-means codebooks ->
batched nearest-centroid reconstruction -> per-window mean error > threshold
-> strict-majority vote of the m models over the (models, windows) theft matrix.
"""

__version__ = "0.1.0"
