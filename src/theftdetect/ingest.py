"""Trip CSV ingestion, per-driver feature statistics, and feature selection.

Trips arrive as CSV files (header row of feature names, one numeric row per
sample). A catalog of per-driver summary statistics drives three rejection
rules (missing values, cross-driver indifference, invariance at zero) followed
by a cross-driver separation score that picks the essential features.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MISSING = math.nan

#: Reserved CSV column, ignored for math, checked for uniform sampling.
TIMESTAMP_COLUMN = "timestamp"

SELECTION_REASONS = ("missing-value", "indifference", "invariance", "statistical-reject", "kept")


class IngestError(Exception):
    """Base class for ingestion failures."""


class ParseError(IngestError):
    """Malformed CSV content; message names the offending line."""


class EmptyTripError(IngestError):
    """Trip file contains a header but no data rows."""


class NoEssentialFeaturesError(IngestError):
    """No rule survivor scored above the separation threshold."""


@dataclass
class TripLog:
    """One trip's multivariate time series, uniformly sampled."""

    trip_id: str
    driver_id: str
    sample_period_s: float
    features: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if not self.features:
            raise ValueError("trip must carry at least one feature")
        lengths = {name: len(v) for name, v in self.features.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"feature series lengths differ: {lengths}")
        if self.length < 1:
            raise ValueError("trip must contain at least one sample")

    @property
    def length(self) -> int:
        return len(next(iter(self.features.values())))

    @property
    def feature_names(self) -> list[str]:
        return list(self.features)


@dataclass(frozen=True)
class DriverStats:
    """Summary statistics of one feature over all trips of one driver."""

    mean: float
    std: float
    min: float
    max: float
    q1: float
    median: float
    q3: float

    def five_number(self) -> np.ndarray:
        return np.array([self.min, self.q1, self.median, self.q3, self.max])


@dataclass(frozen=True)
class FeatureStats:
    name: str
    has_missing: bool
    per_driver: dict[str, DriverStats]
    pooled_std: float
    pooled_iqr: float


@dataclass(frozen=True)
class FeatureCatalog:
    """Per-feature, per-driver statistics over an ingested trip collection."""

    features: dict[str, FeatureStats]
    drivers: tuple[str, ...]


@dataclass(frozen=True)
class SelectionDecision:
    feature: str
    kept: bool
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in SELECTION_REASONS:
            raise ValueError(f"unknown reason {self.reason!r}")


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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise ParseError(f"{path}: duplicate feature names in header")
        columns: list[list[float]] = [[] for _ in header]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
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
                        raise ParseError(f"{path}: line {lineno} non-numeric cell {cell!r}") from None
    if not columns[0]:
        raise EmptyTripError(f"{path}: no data rows")

    features = {name: np.asarray(col, dtype=float) for name, col in zip(header, columns)}
    stamps = features.pop(TIMESTAMP_COLUMN, None)
    if stamps is not None:
        deltas = np.diff(stamps)
        if deltas.size and not np.allclose(deltas, sample_period_s, rtol=0, atol=1e-6):
            raise ParseError(f"{path}: timestamp column is not uniform at {sample_period_s}s")
    if not features:
        raise ParseError(f"{path}: no feature columns besides timestamp")
    return TripLog(
        trip_id=trip_id or inferred_trip,
        driver_id=driver_id or inferred_driver,
        sample_period_s=sample_period_s,
        features=features,
    )


def _driver_stats(values: np.ndarray) -> DriverStats:
    clean = values[~np.isnan(values)]
    if clean.size == 0:
        clean = np.array([0.0])
    q1, median, q3 = np.percentile(clean, [25, 50, 75])
    return DriverStats(
        mean=float(clean.mean()),
        std=float(clean.std()),
        min=float(clean.min()),
        max=float(clean.max()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
    )


def build_catalog(trips: list[TripLog]) -> FeatureCatalog:
    """Aggregate per-feature statistics for each driver across its trips."""
    if not trips:
        raise IngestError("cannot build a catalog from zero trips")
    drivers = tuple(sorted({t.driver_id for t in trips}))
    names: list[str] = []
    for trip in trips:
        for name in trip.feature_names:
            if name not in names:
                names.append(name)

    features: dict[str, FeatureStats] = {}
    for name in names:
        per_driver: dict[str, DriverStats] = {}
        pooled_parts: list[np.ndarray] = []
        has_missing = False
        for driver in drivers:
            parts = [t.features[name] for t in trips if t.driver_id == driver and name in t.features]
            if not parts:
                continue
            values = np.concatenate(parts)
            if np.isnan(values).any():
                has_missing = True
            per_driver[driver] = _driver_stats(values)
            pooled_parts.append(values)
        pooled = np.concatenate(pooled_parts)
        pooled_clean = pooled[~np.isnan(pooled)]
        if pooled_clean.size == 0:
            pooled_clean = np.array([0.0])
        q1, q3 = np.percentile(pooled_clean, [25, 75])
        features[name] = FeatureStats(
            name=name,
            has_missing=has_missing,
            per_driver=per_driver,
            pooled_std=float(pooled_clean.std()),
            pooled_iqr=float(q3 - q1),
        )
    return FeatureCatalog(features=features, drivers=drivers)


def apply_selection_rules(
    catalog: FeatureCatalog, indifference_tolerance: float = 0.05
) -> list[SelectionDecision]:
    """Reject non-influential features.

    Order: missing values first, then invariance at zero, then cross-driver
    indifference (skipped with fewer than two drivers). Survivors are marked
    kept; the statistical refinement happens in select_essential.
    """
    if indifference_tolerance < 0:
        raise ValueError("indifference_tolerance must be nonnegative")
    decisions = []
    multi_driver = len(catalog.drivers) >= 2
    for name, stats in catalog.features.items():
        reason = _reject_reason(stats, indifference_tolerance, multi_driver)
        if reason is None:
            decisions.append(SelectionDecision(feature=name, kept=True, reason="kept"))
        else:
            decisions.append(SelectionDecision(feature=name, kept=False, reason=reason))
    return decisions


def _reject_reason(stats: FeatureStats, tolerance: float, multi_driver: bool) -> str | None:
    if stats.has_missing:
        return "missing-value"
    per = stats.per_driver.values()
    if all(d.mean == 0.0 and d.std == 0.0 for d in per):
        return "invariance"
    if multi_driver and len(stats.per_driver) >= 2:
        bound = tolerance * stats.pooled_std
        indifferent = True
        for attr in ("mean", "std", "min", "max"):
            values = [getattr(d, attr) for d in per]
            if max(values) - min(values) > bound:
                indifferent = False
                break
        if indifferent:
            return "indifference"
    return None


def separation_score(stats: FeatureStats) -> float:
    """Mean pairwise distance between per-driver five-number summaries,
    normalized by the pooled interquartile range.

    Distance is the mean componentwise absolute difference, so a single noisy
    order statistic (min/max of a long series) cannot dominate the score.
    """
    summaries = [d.five_number() for d in stats.per_driver.values()]
    if len(summaries) < 2:
        return math.inf if stats.pooled_std > 0 else 0.0
    dists = [
        float(np.mean(np.abs(a - b)))
        for i, a in enumerate(summaries)
        for b in summaries[i + 1 :]
    ]
    mean_dist = float(np.mean(dists))
    denom = stats.pooled_iqr or stats.pooled_std
    if denom == 0:
        return 0.0
    return mean_dist / denom


def select_essential(
    decisions: list[SelectionDecision],
    catalog: FeatureCatalog,
    separation_score_threshold: float = 0.5,
) -> list[str]:
    """Rank rule survivors by separation score, keep those above threshold."""
    survivors = [d.feature for d in decisions if d.kept]
    scored = [(separation_score(catalog.features[name]), name) for name in survivors]
    kept = [(s, n) for s, n in scored if s > separation_score_threshold]
    if not kept:
        raise NoEssentialFeaturesError(
            f"no feature scored above the separation threshold {separation_score_threshold}"
        )
    kept.sort(key=lambda item: (-item[0], item[1]))
    return [name for _, name in kept]


def finalize_decisions(
    decisions: list[SelectionDecision], essential: list[str]
) -> list[SelectionDecision]:
    """Demote rule survivors that failed the separation filter."""
    final = []
    for d in decisions:
        if d.kept and d.feature not in essential:
            final.append(SelectionDecision(feature=d.feature, kept=False, reason="statistical-reject"))
        else:
            final.append(d)
    return final
