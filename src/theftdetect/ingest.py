"""File reading and writing, trip CSV ingestion and feature selection.

``read_text`` and ``read_json`` read every input file, as UTF-8, and raise the
caller's error naming a file that cannot be read or decoded. ``write_file``
opens every output file, creating its directory, and raises ``DataError``
naming a file that cannot be written; ``write_json`` writes every JSON output
but the codebooks through it. Trips are CSV files (header row of feature
names, one numeric row per sample). Per-driver summary statistics drive three
rejection rules (missing or non-finite values, invariance at zero,
cross-driver indifference) followed by a separation score that picks the
essential features.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import ConfigError, DataError

MISSING = math.nan

#: Reserved CSV column, ignored for math, checked for uniform sampling.
TIMESTAMP_COLUMN = "timestamp"

#: Per-driver mean, std, min and max all within this fraction of the pooled
#: std of each other make a feature indifferent.
INDIFFERENCE_TOLERANCE = 0.05
#: A rule survivor must score above this to be kept.
SEPARATION_THRESHOLD = 0.5
#: At most this many features are kept.
ESSENTIAL_TARGET = 5


@dataclass
class TripLog:
    """One trip's multivariate time series, uniformly sampled."""

    trip_id: str
    driver_id: str
    sample_period_s: float
    features: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0:
            raise DataError("sample_period_s must be positive")
        if not self.features:
            raise DataError("trip must carry at least one feature")
        lengths = {name: len(v) for name, v in self.features.items()}
        if len(set(lengths.values())) != 1:
            raise DataError(f"feature series lengths differ: {lengths}")
        if self.length < 1:
            raise DataError("trip must contain at least one sample")

    @property
    def length(self) -> int:
        return len(next(iter(self.features.values())))

    @property
    def feature_names(self) -> list[str]:
        return list(self.features)


def read_text(path: str | Path, error: type[ConfigError | DataError]) -> str:
    """The UTF-8 text of ``path``, newlines as stored; a file that cannot be read
    or decoded raises ``error`` naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def read_json(path: str | Path, error: type[ConfigError | DataError]):
    """The JSON document at ``path``; a file that ``read_text`` rejects or that is
    not JSON raises ``error`` naming it."""
    try:
        return json.loads(read_text(path, error))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


@contextmanager
def write_file(path: str | Path) -> Iterator[TextIO]:
    """``path`` open for UTF-8 text writing, newlines as written, its directory created;
    a directory or file that cannot be made or written raises ``DataError`` naming it."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def write_json(doc, path: str | Path) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with write_file(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _infer_ids(path: Path) -> tuple[str, str]:
    stem = path.stem
    driver = stem.split("_", 1)[0] if "_" in stem else stem
    return stem, driver


def parse_trip(
    path: str | Path,
    sample_period_s: float,
    trip_id: str | None = None,
    driver_id: str | None = None,
) -> TripLog:
    """Parse one trip CSV into a TripLog.

    Empty cells become NaN missing markers, never zeros. A reserved
    ``timestamp`` column is dropped from the features after checking that
    consecutive stamps advance by sample_period_s.
    """
    path = Path(path)
    inferred_trip, inferred_driver = _infer_ids(path)
    reader = csv.reader(io.StringIO(read_text(path, DataError), newline=""))
    try:
        header = [h.strip() for h in next(reader, [])]
        if not header:
            raise DataError(f"{path}: no header row of feature names")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate feature names in header")
        columns: list[list[float]] = [[] for _ in header]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {lineno} has {len(row)} cells, expected {len(header)}"
                )
            for col, cell in zip(columns, row):
                cell = cell.strip()
                if cell == "":
                    col.append(MISSING)
                else:
                    try:
                        col.append(float(cell))
                    except ValueError:
                        raise DataError(f"{path}: line {lineno} non-numeric cell {cell!r}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not columns[0]:
        raise DataError(f"{path}: no data rows")

    features = {name: np.asarray(col, dtype=float) for name, col in zip(header, columns)}
    stamps = features.pop(TIMESTAMP_COLUMN, None)
    if stamps is not None:
        deltas = np.diff(stamps)
        if deltas.size and not np.allclose(deltas, sample_period_s, rtol=0, atol=1e-6):
            raise DataError(f"{path}: timestamp column is not uniform at {sample_period_s}s")
    if not features:
        raise DataError(f"{path}: no feature columns besides timestamp")
    return TripLog(
        trip_id=trip_id or inferred_trip,
        driver_id=driver_id or inferred_driver,
        sample_period_s=sample_period_s,
        features=features,
    )




def driver_stats(values: np.ndarray) -> np.ndarray:
    """``[mean, std, min, q1, median, q3, max]`` of the non-missing values."""
    clean = values[~np.isnan(values)]
    q1, median, q3 = np.percentile(clean, [25, 50, 75])
    return np.array([clean.mean(), clean.std(), clean.min(), q1, median, q3, clean.max()])


def select_essential(trips: list[TripLog]) -> tuple[list[str], dict[str, str]]:
    """The essential features of ``trips`` and the selection reason of every feature.

    Rules, in order: a missing (NaN) or infinite value in any trip, or one so
    large that the feature's std overflows ("missing-value"); mean and std
    zero for every driver ("invariance"); with two or more drivers,
    per-driver mean, std, min and max within ``INDIFFERENCE_TOLERANCE`` pooled
    stds of each other ("indifference"). A survivor's separation score is the
    mean pairwise distance between per-driver five-number summaries (mean
    componentwise absolute difference, so one noisy min or max cannot
    dominate) over the pooled IQR, or the pooled std when the IQR is 0. The
    best ``ESSENTIAL_TARGET`` survivors above ``SEPARATION_THRESHOLD``, ranked
    by (-score, name), are "kept"; every other survivor is a
    "statistical-reject". ``reasons`` lists features in first-seen order.
    """
    if not trips:
        raise DataError("cannot select features from zero trips")
    by_driver = [[t for t in trips if t.driver_id == d] for d in sorted({t.driver_id for t in trips})]
    reasons: dict[str, str] = {}
    scores: dict[str, float] = {}
    for name in dict.fromkeys(name for t in trips for name in t.features):
        per_driver = [
            np.concatenate(parts)
            for group in by_driver
            if (parts := [t.features[name] for t in group if name in t.features])
        ]
        pooled = np.concatenate(per_driver)
        with np.errstate(over="ignore", invalid="ignore"):
            pooled_std = pooled.std()
        if not np.isfinite(pooled_std):
            reasons[name] = "missing-value"
            continue
        stats = np.array([driver_stats(v) for v in per_driver])
        # spread across drivers of mean, std, min and max
        spread = np.ptp(stats[:, [0, 1, 2, 6]], axis=0)
        if not stats[:, :2].any():
            reasons[name] = "invariance"
        elif len(stats) >= 2 and (spread <= INDIFFERENCE_TOLERANCE * pooled_std).all():
            reasons[name] = "indifference"
        else:
            reasons[name] = "statistical-reject"
            scores[name] = _separation_score(stats, pooled)
    above = [name for name, score in scores.items() if score > SEPARATION_THRESHOLD]
    essential = sorted(above, key=lambda name: (-scores[name], name))[:ESSENTIAL_TARGET]
    if not essential:
        raise DataError(
            f"no feature scored above the separation threshold {SEPARATION_THRESHOLD}"
        )
    reasons.update(dict.fromkeys(essential, "kept"))
    return essential, reasons


def _separation_score(stats: np.ndarray, pooled: np.ndarray) -> float:
    if len(stats) < 2:
        return math.inf if pooled.std() > 0 else 0.0
    five = stats[:, 2:]
    i, j = np.triu_indices(len(five), 1)
    mean_dist = np.abs(five[i] - five[j]).mean(axis=1).mean()
    q1, q3 = np.percentile(pooled, [25, 75])
    denom = (q3 - q1) or pooled.std()
    return float(mean_dist / denom) if denom else 0.0
