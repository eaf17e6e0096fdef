"""Deterministic synthetic four-driver corpus with theft-splice trips.

Every driver (A to D, one of them the owner) records the same nine features.
The five ``SEPARABLE_FEATURES`` are AR(1) noise plus a sine around per-driver
levels (``_BASES``, ``_NOISE``, ``_EVENT_AMP``); the two
``INDISTINCT_FEATURES`` are drawn alike for every driver, ``MISSING_FEATURE``
is all-missing and ``ZERO_FEATURE`` all-zero, so every selection rule has
something to reject. A splice trip is an owner trip whose samples from
``SPLICE_FRACTION`` of its length on come from a ``SPLICE_DONOR`` trip. Trips
are written in the CSV format the ingest stage reads, with a JSON manifest and
per-trip ground-truth label CSVs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import DataError
from .ingest import TripLog, read_json, read_text, write_file, write_json
from .windowing import DETECTION_WINDOW_S, _round_half_up

SEPARABLE_FEATURES = (
    "transmission_oil_temperature",
    "back_left_wheel_speed",
    "torque_converter_turbine_speed",
    "idle_engine_speed",
    "torque_converter_speed",
)

INDISTINCT_FEATURES = ("steering_wheel_acceleration", "cabin_air_temperature")
MISSING_FEATURE = "fuel_rail_pressure_raw"
ZERO_FEATURE = "fuel_cutoff_flag"

#: Per-driver base levels for the separable features; gaps are several noise
#: scales wide so per-driver boxplots separate cleanly.
_BASES = {
    "A": (80.0, 42.0, 1900.0, 700.0, 1650.0),
    "B": (104.0, 62.0, 2420.0, 805.0, 2090.0),
    "C": (58.0, 25.0, 1430.0, 610.0, 1260.0),
    "D": (126.0, 80.0, 2890.0, 900.0, 2480.0),
}
_NOISE = (2.0, 1.8, 45.0, 9.0, 40.0)
#: A driver's sine amplitude, in noise scales of each separable feature.
_EVENT_AMP = {"A": 3.0, "B": 5.5, "C": 1.5, "D": 7.5}
SPLICE_FRACTION = 0.75  # a splice trip's final 25% comes from the donor
SPLICE_DONOR = "B"


def ar_sine(rng: np.random.Generator, t: np.ndarray, base: float, ar_coeff: float,
            noise_scale: float, amplitude: float = 0.0, period_s: float = 120.0) -> np.ndarray:
    """``base`` plus a sine of ``amplitude`` and ``period_s`` plus AR(1) noise
    whose shocks are normal with standard deviation ``noise_scale``, at times ``t``."""
    shocks = rng.standard_normal(len(t)) * noise_scale
    noise = np.empty(len(t))
    noise[0] = shocks[0]
    for i in range(1, len(t)):
        noise[i] = ar_coeff * noise[i - 1] + shocks[i]
    return base + amplitude * np.sin(2 * np.pi * t / period_s) + noise


def generate_trip(
    driver: str, duration_s: float, sample_period_s: float, seed: int, trip_id: str
) -> TripLog:
    """One trip of ``driver`` (a key of ``_BASES``), deterministic per seed."""
    n = _round_half_up(duration_s / sample_period_s)
    rng = np.random.default_rng(seed)
    t = np.arange(n) * sample_period_s
    period_s = 90.0 + 20.0 * (ord(driver) - ord("A"))
    features = {
        name: ar_sine(rng, t, base, 0.9, noise, _EVENT_AMP[driver] * noise, period_s)
        for name, base, noise in zip(SEPARABLE_FEATURES, _BASES[driver], _NOISE)
    }
    for name in INDISTINCT_FEATURES:
        features[name] = ar_sine(rng, t, 20.0, 0.5, 1.0)
    features[MISSING_FEATURE] = np.full(n, math.nan)
    features[ZERO_FEATURE] = np.zeros(n)
    return TripLog(trip_id, driver, sample_period_s, features)


def splice_theft(
    victim: TripLog, donor: TripLog, start: int, length: int
) -> tuple[TripLog, np.ndarray]:
    """The victim trip with samples ``[start, start + length)`` of every feature
    taken from the donor trip, and its labels (True = theft sample)."""
    n = min(victim.length, donor.length)
    if start + length > n:
        raise DataError(f"splice [{start}, {start + length}) exceeds trip length {n}")
    features = {name: values.copy() for name, values in victim.features.items()}
    for name, values in features.items():
        values[start : start + length] = donor.features[name][start : start + length]
    labels = np.zeros(victim.length, dtype=bool)
    labels[start : start + length] = True
    spliced = TripLog(f"{victim.trip_id}_spliced", victim.driver_id, victim.sample_period_s, features)
    return spliced, labels


@dataclass(frozen=True)
class CorpusConfig:
    seed: int = 7
    owner: str = "A"
    duration_s: float = 600.0
    sample_period_s: float = 1.0
    owner_train_trips: int = 10
    owner_val_trips: int = 8
    thief_val_trips: int = 2
    non_owner_trips: int = 4
    splice_trips: int = 1

    def __post_init__(self) -> None:
        for key, least in (("owner_train_trips", 1), ("owner_val_trips", 0), ("thief_val_trips", 0),
                           ("non_owner_trips", 0), ("splice_trips", 0)):
            if getattr(self, key) < least:
                raise DataError(f"{key} must be at least {least}, got {getattr(self, key)!r}")


def _write_trip_csv(trip: TripLog, path: Path) -> None:
    columns = [("" if math.isnan(v) else repr(v) for v in values.tolist())
               for values in trip.features.values()]
    with write_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(trip.feature_names)
        writer.writerows(zip(*columns))


def _write_labels_csv(labels: np.ndarray, path: Path) -> None:
    lines = ["label"] + [str(int(v)) for v in labels]
    with write_file(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_corpus(outdir: str | Path, cfg: CorpusConfig = CorpusConfig()) -> dict:
    """Generate and persist the corpus; returns the manifest.

    An unknown owner, trips shorter than one detection window or a splice
    window past the end of a trip is rejected before anything is written.
    """
    if cfg.owner not in _BASES:
        raise DataError(f"unknown owner {cfg.owner!r}")
    if cfg.duration_s < DETECTION_WINDOW_S:
        raise DataError(f"duration {cfg.duration_s}s shorter than one window ({DETECTION_WINDOW_S}s)")
    # every trip has n samples, so one splice window serves every splice trip
    n = _round_half_up(cfg.duration_s / cfg.sample_period_s)
    start = _round_half_up(SPLICE_FRACTION * n)
    length_s = cfg.duration_s * (1.0 - SPLICE_FRACTION)
    length = _round_half_up(length_s / cfg.sample_period_s)
    if cfg.splice_trips > 0 and start + length > n:
        raise DataError(f"splice [{start}, {start + length}) exceeds trip length {n}")

    outdir = Path(outdir)
    thieves = [d for d in _BASES if d != cfg.owner]
    # (driver, role) in trip sequence order; each splice victim is followed by its donor
    plan = (
        [(cfg.owner, "train")] * cfg.owner_train_trips
        + [(cfg.owner, "val-owner")] * cfg.owner_val_trips
        + [(thieves[i % len(thieves)], "val-thief") for i in range(cfg.thief_val_trips)]
        + [(driver, "catalog") for driver in thieves for _ in range(cfg.non_owner_trips)]
        + [(cfg.owner, "val-splice"), (SPLICE_DONOR, "donor")] * cfg.splice_trips
    )
    trips = (
        (role, generate_trip(driver, cfg.duration_s, cfg.sample_period_s,
                             cfg.seed * 100_000 + seq, f"{driver}_trip{seq:03d}"))
        for seq, (driver, role) in enumerate(plan, start=1)
    )
    entries = []
    for role, trip in trips:
        labels = np.full(trip.length, role == "val-thief")
        splice = None
        if role == "val-splice":
            splice = {"victim_trip_id": trip.trip_id, "donor_driver_id": SPLICE_DONOR,
                      "start_fraction": SPLICE_FRACTION, "length_s": length_s}
            _, donor = next(trips)
            trip, labels = splice_theft(trip, donor, start, length)
        entry = {"trip_id": trip.trip_id, "driver_id": trip.driver_id, "role": role,
                 "file": f"trips/{trip.trip_id}.csv", "labels": f"labels/{trip.trip_id}.csv",
                 "splice": splice}
        _write_trip_csv(trip, outdir / entry["file"])
        _write_labels_csv(labels, outdir / entry["labels"])
        entries.append(entry)

    manifest = {
        "seed": cfg.seed,
        "owner": cfg.owner,
        "drivers": sorted(_BASES),
        "sample_period_s": cfg.sample_period_s,
        "duration_s": cfg.duration_s,
        "trips": entries,
    }
    write_json(manifest, outdir / "manifest.json")
    return manifest


# the keys of a manifest trip entry that the pipeline reads
_TRIP_KEYS = ("trip_id", "driver_id", "role", "file", "labels")


def load_manifest(corpus_dir: str | Path) -> dict:
    """The corpus manifest; it must name the owner, the trips and the sample period,
    and each trip entry must give its ``_TRIP_KEYS`` as strings."""
    path = Path(corpus_dir) / "manifest.json"
    manifest = read_json(path, DataError)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("owner"), str):
        raise DataError(f"{path} names no owner")
    if not isinstance(manifest.get("trips"), list):
        raise DataError(f"{path} has no trips list")
    period = manifest.get("sample_period_s")
    if isinstance(period, bool) or not isinstance(period, (int, float)) or not 0 < period < math.inf:
        raise DataError(f"{path} needs a finite, positive sample_period_s, got {period!r}")
    for i, entry in enumerate(manifest["trips"]):
        if not isinstance(entry, dict) or not all(isinstance(entry.get(key), str) for key in _TRIP_KEYS):
            raise DataError(f"{path}: trips[{i}] needs string {', '.join(_TRIP_KEYS)}")
    return manifest


def load_labels(corpus_dir: str | Path, label_file: str) -> np.ndarray:
    """Per-sample ground truth (True = theft) from a ``label`` header and one 0 or 1 a line."""
    path = Path(corpus_dir) / label_file
    lines = [line.strip() for line in read_text(path, DataError).strip().splitlines()[1:]]
    bad = set(lines) - {"0", "1"}
    if bad:
        raise DataError(f"{path}: labels must be 0 or 1, got {sorted(bad)[:3]}")
    return np.array([line == "1" for line in lines], dtype=bool)
