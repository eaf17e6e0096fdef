"""Deterministic synthetic multi-driver corpus with theft-splice trips.

Four drivers (one owner) with per-feature autoregressive profiles, plus
deliberately indistinct, all-missing, and all-zero features so the selection
rules have something to reject. Trips are written in the same CSV format the
ingest stage reads, with a JSON manifest and per-trip ground-truth label CSVs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .ingest import TripLog
from .windowing import DETECTION_WINDOW_S, _round_half_up


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class FeatureSpec:
    """Generator parameters for one feature of one driver."""

    base: float
    ar_coeff: float = 0.0
    noise_scale: float = 1.0
    event_amplitude: float = 0.0
    event_period_s: float = 120.0
    kind: str = "signal"  # signal | zero | missing

    def __post_init__(self) -> None:
        if self.kind == "signal":
            if not 0.0 <= self.ar_coeff < 1.0:
                raise SynthError("ar_coeff must be in [0, 1)")
            if self.noise_scale <= 0:
                raise SynthError("noise_scale must be positive")


@dataclass(frozen=True)
class DriverProfile:
    driver_id: str
    features: dict[str, FeatureSpec]


@dataclass(frozen=True)
class SpliceSpec:
    victim_trip_id: str
    donor_driver_id: str
    start_fraction: float
    length_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < 1.0:
            raise SynthError("start_fraction must be in [0, 1)")
        if self.length_s < 0:
            raise SynthError("length_s must be nonnegative")


def generate_trip(
    profile: DriverProfile,
    duration_s: float,
    sample_period_s: float,
    seed: int,
    trip_id: str | None = None,
) -> TripLog:
    """First-order autoregressive series per feature, deterministic per seed."""
    if duration_s < DETECTION_WINDOW_S:
        raise SynthError(f"duration {duration_s}s shorter than one window ({DETECTION_WINDOW_S}s)")
    n = _round_half_up(duration_s / sample_period_s)
    rng = np.random.default_rng(seed)
    t = np.arange(n) * sample_period_s
    features: dict[str, np.ndarray] = {}
    for name, spec in profile.features.items():
        if spec.kind == "zero":
            features[name] = np.zeros(n)
            continue
        if spec.kind == "missing":
            features[name] = np.full(n, math.nan)
            continue
        shocks = rng.standard_normal(n) * spec.noise_scale
        noise = np.empty(n)
        noise[0] = shocks[0]
        for i in range(1, n):
            noise[i] = spec.ar_coeff * noise[i - 1] + shocks[i]
        events = spec.event_amplitude * np.sin(2 * np.pi * t / spec.event_period_s)
        features[name] = spec.base + events + noise
    return TripLog(
        trip_id=trip_id or f"{profile.driver_id}_seed{seed}",
        driver_id=profile.driver_id,
        sample_period_s=sample_period_s,
        features=features,
    )


def splice_theft(
    victim: TripLog, donor: TripLog, spec: SpliceSpec
) -> tuple[TripLog, np.ndarray]:
    """Replace a window of the victim trip with donor data, for all features.

    Returns the spliced trip and a boolean label array (True = theft sample).
    """
    if set(victim.features) != set(donor.features):
        raise SynthError("victim and donor carry different feature sets")
    if victim.sample_period_s != donor.sample_period_s:
        raise SynthError("victim and donor sample periods differ")
    n = victim.length
    start = _round_half_up(spec.start_fraction * n)
    length = _round_half_up(spec.length_s / victim.sample_period_s)
    if start + length > n:
        raise SynthError(f"splice [{start}, {start + length}) exceeds trip length {n}")
    if donor.length < start + length:
        raise SynthError("donor trip too short for the splice window")
    features = {name: values.copy() for name, values in victim.features.items()}
    for name in features:
        features[name][start : start + length] = donor.features[name][start : start + length]
    labels = np.zeros(n, dtype=bool)
    labels[start : start + length] = True
    spliced = TripLog(
        trip_id=f"{victim.trip_id}_spliced",
        driver_id=victim.driver_id,
        sample_period_s=victim.sample_period_s,
        features=features,
    )
    return spliced, labels


# --- default corpus ---------------------------------------------------------

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
_EVENT_AMP = {"A": 3.0, "B": 5.5, "C": 1.5, "D": 7.5}
SPLICE_FRACTION = 0.75  # a splice trip's final 25% comes from the donor
SPLICE_DONOR = "B"


def default_profiles() -> list[DriverProfile]:
    profiles = []
    for driver, bases in _BASES.items():
        features: dict[str, FeatureSpec] = {}
        for name, base, noise in zip(SEPARABLE_FEATURES, bases, _NOISE):
            features[name] = FeatureSpec(
                base=base,
                ar_coeff=0.9,
                noise_scale=noise,
                event_amplitude=_EVENT_AMP[driver] * noise,
                event_period_s=90.0 + 20.0 * (ord(driver) - ord("A")),
            )
        for name in INDISTINCT_FEATURES:
            # identical spec for every driver: no discriminative value
            features[name] = FeatureSpec(base=20.0, ar_coeff=0.5, noise_scale=1.0)
        features[MISSING_FEATURE] = FeatureSpec(base=0.0, kind="missing")
        features[ZERO_FEATURE] = FeatureSpec(base=0.0, kind="zero")
        profiles.append(DriverProfile(driver_id=driver, features=features))
    return profiles


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
        if self.owner_train_trips < 1 or self.owner_val_trips < 0 or self.thief_val_trips < 0:
            raise SynthError("trip counts must be positive")


def _write_trip_csv(trip: TripLog, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = trip.feature_names
        writer.writerow(names)
        for i in range(trip.length):
            row = []
            for name in names:
                v = trip.features[name][i]
                row.append("" if math.isnan(v) else repr(float(v)))
            writer.writerow(row)


def _write_labels_csv(labels: np.ndarray, path: Path) -> None:
    lines = ["label"] + [str(int(v)) for v in labels]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_corpus(outdir: str | Path, cfg: CorpusConfig = CorpusConfig()) -> dict:
    """Generate and persist the corpus; returns the manifest."""
    outdir = Path(outdir)
    trips_dir = outdir / "trips"
    labels_dir = outdir / "labels"
    trips_dir.mkdir(parents=True, exist_ok=True)
    labels_dir.mkdir(parents=True, exist_ok=True)

    profiles = {p.driver_id: p for p in default_profiles()}
    if cfg.owner not in profiles:
        raise SynthError(f"unknown owner {cfg.owner!r}")
    manifest_trips = []
    trip_seq = 0

    def make_trip(driver: str) -> TripLog:
        nonlocal trip_seq
        trip_seq += 1
        trip_seed = cfg.seed * 100_000 + trip_seq
        trip_id = f"{driver}_trip{trip_seq:03d}"
        trip = generate_trip(
            profiles[driver], cfg.duration_s, cfg.sample_period_s, trip_seed, trip_id=trip_id
        )
        return trip

    def record(trip: TripLog, role: str, labels: np.ndarray, splice: dict | None = None) -> None:
        trip_file = f"trips/{trip.trip_id}.csv"
        label_file = f"labels/{trip.trip_id}.csv"
        _write_trip_csv(trip, outdir / trip_file)
        _write_labels_csv(labels, outdir / label_file)
        manifest_trips.append(
            {
                "trip_id": trip.trip_id,
                "driver_id": trip.driver_id,
                "role": role,
                "file": trip_file,
                "labels": label_file,
                "splice": splice,
            }
        )

    owner = cfg.owner
    for _ in range(cfg.owner_train_trips):
        trip = make_trip(owner)
        record(trip, "train", np.zeros(trip.length, dtype=bool))
    for _ in range(cfg.owner_val_trips):
        trip = make_trip(owner)
        record(trip, "val-owner", np.zeros(trip.length, dtype=bool))

    thieves = [d for d in profiles if d != owner]
    for i in range(cfg.thief_val_trips):
        driver = thieves[i % len(thieves)]
        trip = make_trip(driver)
        record(trip, "val-thief", np.ones(trip.length, dtype=bool))
    for driver in thieves:
        for _ in range(cfg.non_owner_trips):
            trip = make_trip(driver)
            record(trip, "catalog", np.zeros(trip.length, dtype=bool))

    for _ in range(cfg.splice_trips):
        victim = make_trip(owner)
        donor = make_trip(SPLICE_DONOR)
        spec = SpliceSpec(
            victim_trip_id=victim.trip_id,
            donor_driver_id=SPLICE_DONOR,
            start_fraction=SPLICE_FRACTION,
            length_s=cfg.duration_s * (1.0 - SPLICE_FRACTION),
        )
        spliced, labels = splice_theft(victim, donor, spec)
        record(spliced, "val-splice", labels, splice=asdict(spec))

    manifest = {
        "seed": cfg.seed,
        "owner": owner,
        "drivers": sorted(profiles),
        "sample_period_s": cfg.sample_period_s,
        "duration_s": cfg.duration_s,
        "trips": manifest_trips,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def load_manifest(corpus_dir: str | Path) -> dict:
    """The corpus manifest; it must name the owner, the trips and the sample period."""
    path = Path(corpus_dir) / "manifest.json"
    if not path.exists():
        raise SynthError(f"no manifest.json in {corpus_dir}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or not isinstance(manifest.get("owner"), str):
        raise SynthError(f"{path} names no owner")
    if not isinstance(manifest.get("trips"), list):
        raise SynthError(f"{path} has no trips list")
    period = manifest.get("sample_period_s")
    if isinstance(period, bool) or not isinstance(period, (int, float)) or not 0 < period < math.inf:
        raise SynthError(f"{path} needs a finite, positive sample_period_s, got {period!r}")
    return manifest


def load_labels(corpus_dir: str | Path, label_file: str) -> np.ndarray:
    lines = (Path(corpus_dir) / label_file).read_text(encoding="utf-8").strip().splitlines()
    return np.array([bool(int(v)) for v in lines[1:]], dtype=bool)
