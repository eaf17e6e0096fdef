"""Command-line pipeline: synth | ingest | train | detect | evaluate | report.

Each subcommand takes only the flags it reads, and its flags are its only
settings; RunConfig range-checks them. ingest, train and evaluate take the
owner and the sample period from the corpus manifest; scoring reads the
models features.json names, at their codebooks' period.
Exit codes: 0 ok, 1 usage/config, 2 data error, 3 infeasible model.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import ConfigError, DataError, InfeasibleKError
from . import cluster, detect, ingest, reconstruct, synth, windowing
from .cluster import Codebook
from .ingest import TripLog
from .windowing import WindowConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3


@dataclass(frozen=True)
class RunConfig:
    data_dir: str = "corpus"
    out_dir: str = "out"
    owner: str = "A"  # synth; later steps read the manifest's owner
    sample_period_s: float = 1.0  # synth: the corpus period
    window_s: float = 32.0
    stride_s: float = 16.0
    # an explicit k is strict; None is cluster.DEFAULT_K capped at the distinct segment count
    k: int | None = None
    seed: int = 7
    restarts: int = cluster.DEFAULT_RESTARTS
    trips_per_driver: int = 10
    duration_s: float = 600.0

    def __post_init__(self) -> None:
        for key in ("sample_period_s", "window_s", "stride_s", "duration_s"):
            if not 0 < getattr(self, key) <= sys.float_info.max:
                raise ConfigError(f"{key} must be finite and positive, got {getattr(self, key)!r}")
        for key, least in (("restarts", 1), ("trips_per_driver", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)!r}")


# --- pipeline helpers --------------------------------------------------------

# the roles feature selection reads; validation trips never inform it
SELECTION_ROLES = {"train", "catalog"}


def load_corpus_trips(data_dir: str | Path, roles: set[str],
                      columns: list[str] | None = None) -> tuple[dict, list[tuple[dict, TripLog]]]:
    """The manifest and the (entry, TripLog) pairs of its trips whose role is in ``roles``.

    Trips are parsed at the manifest's sample period, ``columns`` as ``ingest.parse_trip`` reads it.
    """
    manifest = synth.load_manifest(data_dir)
    out = []
    for entry in manifest["trips"]:
        if entry["role"] not in roles:
            continue
        trip = ingest.parse_trip(
            Path(data_dir) / entry["file"],
            manifest["sample_period_s"],
            trip_id=entry["trip_id"],
            driver_id=entry["driver_id"],
            columns=columns,
        )
        out.append((entry, trip))
    return manifest, out


def select_features(trips: list[TripLog], out_dir: Path) -> list[str]:
    """The essential features of ``trips``; every decision goes to ``out_dir/features.json``."""
    essential, reasons = ingest.select_essential(trips)
    doc = {
        "essential": essential,
        "decisions": [
            {"feature": feature, "kept": reason == "kept", "reason": reason}
            for feature, reason in reasons.items()
        ],
    }
    ingest.write_json(doc, out_dir / "features.json")
    return essential


def read_essential(models_dir: str | Path) -> list[str]:
    """The features ``models_dir/features.json`` names as essential, one model each."""
    path = Path(models_dir) / "features.json"
    doc = ingest.read_json(path, DataError)
    essential = doc.get("essential") if isinstance(doc, dict) else None
    if not (isinstance(essential, list) and essential and all(isinstance(f, str) for f in essential)):
        raise DataError(f"{path}: 'essential' must be a non-empty list of feature names")
    return essential


def feature_windows(trips: list[TripLog], feature: str, wcfg: WindowConfig) -> np.ndarray:
    """The highlighted window matrices of ``feature`` over ``trips``, stacked in trip
    order; a non-finite sample, or a trip shorter than one window, is a data error
    naming the trip and the feature."""
    matrices = []
    for trip in trips:
        try:
            if not np.isfinite(trip.features[feature]).all():
                raise DataError("non-finite samples")
            matrices.append(windowing.slide_highlighted(trip.features[feature], wcfg))
        except DataError as exc:
            raise DataError(f"trip {trip.trip_id} feature {feature!r}: {exc}") from None
    return np.concatenate(matrices)


def train_codebooks(
    owner_trips: list[TripLog], essential: list[str], cfg: RunConfig
) -> dict[str, Codebook]:
    """One codebook per essential feature, windowed at the trips' sample period; bad
    windows (``feature_windows``), or windows too wide to cluster, are a data error
    naming the feature."""
    wcfg = WindowConfig(owner_trips[0].sample_period_s, cfg.window_s, cfg.stride_s)
    books: dict[str, Codebook] = {}
    trip_ids = tuple(t.trip_id for t in owner_trips)
    for feature in essential:
        windows = feature_windows(owner_trips, feature, wcfg)
        try:
            centroids, sse, iterations = cluster.kmeans_fit(windows, cfg.k, cfg.seed, cfg.restarts)
        except InfeasibleKError:
            raise
        except DataError as exc:
            raise DataError(f"feature {feature!r}: {exc}") from None
        books[feature] = Codebook(
            feature=feature, centroids=centroids, sse=sse, cfg=wcfg,
            trip_ids=trip_ids, segment_count=len(windows), iterations=iterations, seed=cfg.seed,
        )
    return books


def trip_model_verdicts(trip: TripLog, books: dict[str, Codebook]) -> np.ndarray:
    """Representative error per (model, detection window) of one trip, rows in ``books`` order.

    A model's verdict on a window is its error > the model's threshold. The
    trip is taken to be sampled at the codebooks' period. Trips with a missing
    or non-finite sample in a model's feature, or whose windows are too far
    from the centroids to square their distances, are rejected.
    """
    dlen = next(iter(books.values())).cfg.detection_len  # load_models makes every cfg the same
    rows = []
    for feature, cb in books.items():
        series = trip.features.get(feature)
        if series is None:
            raise DataError(f"trip {trip.trip_id} lacks feature {feature!r}")
        if not np.isfinite(series).all():
            raise DataError(f"trip {trip.trip_id} has non-finite {feature!r} samples")
        try:
            rows.append(detect.windows_verdicts(reconstruct.error_series(series, cb), dlen))
        except DataError as exc:
            raise DataError(f"trip {trip.trip_id} feature {feature!r}: {exc}") from None
    return np.stack(rows)


# --- subcommands --------------------------------------------------------------


def cmd_synth(cfg: RunConfig) -> int:
    corpus_cfg = synth.CorpusConfig(
        seed=cfg.seed,
        owner=cfg.owner,
        duration_s=cfg.duration_s,
        sample_period_s=cfg.sample_period_s,
        owner_train_trips=cfg.trips_per_driver,
    )
    manifest = synth.write_corpus(cfg.data_dir, corpus_cfg)
    print(f"wrote {len(manifest['trips'])} trips to {cfg.data_dir}")
    return EXIT_OK


def cmd_ingest(cfg: RunConfig) -> int:
    _, corpus = load_corpus_trips(cfg.data_dir, SELECTION_ROLES)
    essential = select_features([t for _, t in corpus], Path(cfg.out_dir))
    print(f"essential features: {', '.join(essential)}")
    print(f"wrote {Path(cfg.out_dir) / 'features.json'}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    features_file = out_dir / "features.json"
    if features_file.exists():
        essential = read_essential(out_dir)
        manifest, corpus = load_corpus_trips(cfg.data_dir, roles={"train"}, columns=essential)
    else:
        manifest, corpus = load_corpus_trips(cfg.data_dir, SELECTION_ROLES)
        essential = select_features([t for _, t in corpus], out_dir)
    # clustering reads owner training trips only
    owner = manifest["owner"]
    owner_trips = [t for e, t in corpus if e["role"] == "train" and e["driver_id"] == owner]
    if not owner_trips:
        raise DataError(f"no training trips for owner {owner!r} in {cfg.data_dir}")
    absent = [f for f in essential if any(f not in t.features for t in owner_trips)]
    if absent:
        raise DataError(f"{features_file}: owner training trips lack essential features {absent}")
    if len(essential) < ingest.ESSENTIAL_TARGET:
        print(
            f"warning: only {len(essential)} essential features survived selection",
            file=sys.stderr,
        )
    books = train_codebooks(owner_trips, essential, cfg)
    # thresholds tuned for the codebooks being replaced must not score the new ones
    thresholds_file = out_dir / "thresholds.json"
    try:
        thresholds_file.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot remove {thresholds_file}: {exc.strerror}") from None
    for feature, cb in books.items():
        path = out_dir / f"codebook_{feature}.json"
        cluster.save_codebook(cb, path)
        print(f"wrote {path} (k={len(cb.centroids)}, sse={cb.sse:.6g})")
    return EXIT_OK


def load_models(models_dir: str | Path) -> dict[str, Codebook]:
    """The codebooks features.json names, by file name; all share one window config and seed."""
    names = sorted(f"codebook_{feature}.json" for feature in read_essential(models_dir))
    books = {cb.feature: cb for cb in (cluster.load_codebook(Path(models_dir) / n) for n in names)}
    if len({(cb.cfg, cb.seed) for cb in books.values()}) > 1:
        raise DataError(f"codebooks in {models_dir} disagree on their window config or seed")
    return books


def load_thresholds(models_dir: str | Path, features: list[str]) -> dict[str, float]:
    """Per-model thresholds from ``thresholds.json``; every model in ``features``
    needs a finite, nonnegative one."""
    path = Path(models_dir) / "thresholds.json"
    if not path.exists():
        raise ConfigError(f"no thresholds in {models_dir}: run `evaluate` first")
    thresholds = ingest.read_json(path, ConfigError)
    if not isinstance(thresholds, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {type(thresholds).__name__}")
    for feature in features:
        theta = thresholds.get(feature)
        if isinstance(theta, bool) or not isinstance(theta, (int, float)) or not 0 <= theta < math.inf:
            raise ConfigError(f"model {feature!r} needs a finite, nonnegative threshold, got {theta!r}")
    return thresholds


def cmd_detect(cfg: RunConfig, trip_path: str, models_dir: str) -> int:
    books = load_models(models_dir)
    thresholds = load_thresholds(models_dir, list(books))
    wcfg = next(iter(books.values())).cfg
    trip = ingest.parse_trip(trip_path, wcfg.sample_period_s, columns=list(books))
    errors = trip_model_verdicts(trip, books)
    theft = errors > np.array([[thresholds[f]] for f in books])
    votes, flagged = detect.ensemble_vote(theft)
    starts = range(0, errors.shape[1] * wcfg.detection_len, wcfg.detection_len)
    report: dict = {
        "trip_id": trip.trip_id,
        "models": {},
        "ensemble": [
            {"window_start": s, "theft_votes": v, "is_theft": t}
            for s, v, t in zip(starts, votes.tolist(), flagged.tolist())
        ],
    }
    for feature, model_errors, model_theft in zip(books, errors.tolist(), theft.tolist()):
        report["models"][feature] = {
            "threshold": thresholds[feature],
            "verdicts": [
                {"window_start": s, "representative_error": e, "is_theft": t}
                for s, e, t in zip(starts, model_errors, model_theft)
            ],
        }
    path = Path(cfg.out_dir) / f"detection_{trip.trip_id}.json"
    ingest.write_json(report, path)
    print(f"wrote {path} ({int(flagged.sum())} theft windows)")
    return EXIT_OK


def evaluate(cfg: RunConfig, models_dir: str) -> tuple[dict, dict[str, detect.RocCurve]]:
    """Tune per-model thresholds on the validation split and score everything.

    Returns the report and the ROC curve of every model.
    """
    books = load_models(models_dir)
    wcfg = next(iter(books.values())).cfg
    # splice trips are a localization demo, not part of the 8:2 validation split
    manifest, val = load_corpus_trips(cfg.data_dir, {"val-owner", "val-thief"}, columns=list(books))
    if (period := manifest["sample_period_s"]) != wcfg.sample_period_s:
        raise DataError(f"corpus {cfg.data_dir} is sampled every {period} s, "
                        f"but the codebooks in {models_dir} every {wcfg.sample_period_s} s")
    if not val:
        raise DataError(f"no validation trips in {cfg.data_dir}")
    owner_count = sum(1 for e, _ in val if e["role"] == "val-owner")
    thief_count = len(val) - owner_count

    trip_errors, trip_labels = [], []
    for entry, trip in val:
        trip_errors.append(trip_model_verdicts(trip, books))
        sample_labels = synth.load_labels(cfg.data_dir, entry["labels"])
        if len(sample_labels) != trip.length:
            raise DataError(
                f"{Path(cfg.data_dir) / entry['labels']} has {len(sample_labels)} labels "
                f"for the {trip.length} samples of trip {trip.trip_id}"
            )
        # a window is theft iff most of its samples are: its mean 0/1 label exceeds 0.5
        window_theft = detect.windows_verdicts(sample_labels, wcfg.detection_len) > 0.5
        trip_labels.append(window_theft[: trip_errors[-1].shape[1]])
    # one row per model, validation windows in trip order
    errors = np.concatenate(trip_errors, axis=1)
    labels = np.concatenate(trip_labels)

    report: dict = {
        "owner": manifest["owner"],
        "seed": next(iter(books.values())).seed,
        "validation": {"owner_trips": owner_count, "thief_trips": thief_count},
        "models": {},
    }
    thresholds: dict[str, float] = {}
    curves: dict[str, detect.RocCurve] = {}
    theft = []
    for feature, model_errors in zip(books, errors):
        curve = detect.roc_sweep(model_errors, labels, detect.threshold_grid(model_errors))
        theta = detect.optimize_threshold(curve)
        curves[feature] = curve
        thresholds[feature] = theta
        theft.append(model_errors > theta)
        report["models"][feature] = {
            "threshold": theta,
            "auc": curve.auc,
            "metrics": detect.compute_metrics(theft[-1], labels),
        }
    _, flagged = detect.ensemble_vote(np.array(theft))
    report["ensemble"] = {
        "rule": f"majority {len(books) // 2 + 1} of {len(books)}",
        "metrics": detect.compute_metrics(flagged, labels),
    }

    report["thresholds"] = thresholds
    return report, curves


def cmd_evaluate(cfg: RunConfig, models_dir: str) -> int:
    report, curves = evaluate(cfg, models_dir)
    out_dir = Path(cfg.out_dir)
    # thresholds first: a report is never left whose thresholds were not saved
    ingest.write_json(report["thresholds"], Path(models_dir) / "thresholds.json")
    ingest.write_json(report, out_dir / "report.json")
    tables = [(f"roc_{feature}.csv", detect.roc_csv(curve)) for feature, curve in curves.items()]
    for name, text in tables + [("report.md", render_markdown(report))]:
        with ingest.write_file(out_dir / name) as fh:
            fh.write(text)
    for _, feature, threshold, m in report_rows(report):
        head = "ensemble:" if threshold is None else f"{feature}: threshold={threshold:.6g}"
        print(
            f"{head} acc={m['accuracy']:.4f} prec={m['precision']:.4f} "
            f"rec={m['recall']:.4f} f1={m['f1']:.4f}"
        )
    print(f"wrote {out_dir / 'report.json'}")
    return EXIT_OK


def report_rows(report: dict) -> Iterator[tuple[str, str, float | None, dict]]:
    """(model, feature, threshold, metrics) per table row; the ensemble row has
    the vote rule as its feature and no threshold."""
    for i, (feature, block) in enumerate(report["models"].items(), start=1):
        yield f"Model {i}", feature, block["threshold"], block["metrics"]
    yield "Ensemble", report["ensemble"]["rule"], None, report["ensemble"]["metrics"]


def render_markdown(report: dict) -> str:
    lines = [
        "| Model | Feature | Optimized Threshold | Accuracy | Precision | Recall | F1 Score |",
        "|---|---|---|---|---|---|---|",
    ]
    for model, feature, threshold, m in report_rows(report):
        theta = "" if threshold is None else f"{threshold:.6g}"
        lines.append(
            f"| {model} | {feature} | {theta} | "
            f"{m['accuracy']:.4f} | {m['precision']:.4f} | {m['recall']:.4f} | {m['f1']:.4f} |"
        )
    return "\n".join(lines) + "\n"


def cmd_report(cfg: RunConfig, report_path: str) -> int:
    report = ingest.read_json(report_path, DataError)
    rows = ["model,feature,threshold,accuracy,precision,recall,f1"]
    try:
        markdown = render_markdown(report)
        for model, feature, threshold, m in report_rows(report):
            if threshold is None:
                feature, threshold = "majority", ""
            rows.append(
                f"{model},{feature},{threshold},{m['accuracy']},"
                f"{m['precision']},{m['recall']},{m['f1']}"
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{report_path} is not an evaluate report: {exc!r}") from None
    out_dir = Path(cfg.out_dir)
    for name, text in (("report.md", markdown), ("report.csv", "\n".join(rows) + "\n")):
        with ingest.write_file(out_dir / name) as fh:
            fh.write(text)
    print(f"wrote {out_dir / 'report.md'} and {out_dir / 'report.csv'}")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------


# add_argument keywords per flag; a flag whose dest is a RunConfig field sets it
_FLAGS: dict[str, dict] = {
    "--data": {"dest": "data_dir"},
    "--out": {"dest": "out_dir"},
    "--owner": {},
    "--seed": {"type": int},
    "--sample-period": {"dest": "sample_period_s", "type": float},
    "--window": {"dest": "window_s", "type": float},
    "--stride": {"dest": "stride_s", "type": float},
    "--k": {"type": int},
    "--restarts": {"type": int},
    "--trips": {"dest": "trips_per_driver", "type": int},
    "--duration": {"dest": "duration_s", "type": float},
    "--models": {"required": True},
    "--trip": {"required": True},
    "--report": {"dest": "report_path", "required": True},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theftdetect",
        description="Owner-only automobile theft detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command: str, help_text: str, *flags: str) -> None:
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])

    # each subcommand takes only the flags it reads, except `ingest --seed`, `evaluate --seed`
    # and `detect --data`: nothing reads them, but benchmark/workloads.py passes all three
    add("synth", "generate the synthetic corpus",
        "--data", "--seed", "--owner", "--sample-period", "--trips", "--duration")
    add("ingest", "pick the essential features", "--data", "--out", "--seed")
    add("train", "train per-feature codebooks on owner trips",
        "--data", "--out", "--seed", "--window", "--stride", "--k", "--restarts")
    add("evaluate", "tune thresholds and compute metrics", "--data", "--out", "--models", "--seed")
    add("detect", "score one trip against trained models", "--data", "--out", "--models", "--trip")
    add("report", "render the markdown and CSV tables of a report", "--out", "--report")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = RunConfig(**{k: v for k, v in vars(args).items()
                           if k in RunConfig.__dataclass_fields__ and v is not None})
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "detect":
            return cmd_detect(cfg, args.trip, args.models)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.models)
        return cmd_report(cfg, args.report_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleKError as exc:
        print(f"infeasible model: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
