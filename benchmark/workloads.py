"""Workloads of the theftdetect benchmark: set-up, timed phase and output checks.

The program is driven only through ``theftdetect.cli.main`` (in-process,
stdout captured) and the corpus generator ``synth.write_corpus``.

paper-default  set-up: synth the default corpus (10 owner training trips of
               600 s, 8:2 owner:thief validation, catalog and splice trips).
               Timed: ingest -> train (k=300) -> evaluate -> detect (splice
               trip) -> report. The paper's operating point; every layer runs.
train-large    the same pipeline with 20 owner training trips (720 segments
               per feature, 2.4 per centroid), so Lloyd iterations dominate
               (about 4 per restart, ~76% of train time).
hour-trips     set-up also trains the codebooks on the default corpus and
               synthesises 16:4 validation trips of 3,600 s plus a splice trip.
               Timed: evaluate (2,240 windows, the O(T*N) ROC sweep dominates)
               -> detect (splice trip) -> report; no k-means fitting.

An untraced run makes at least MIN_PASSES passes and, within each pass, calls
``evaluate`` until EVALUATE_MIN_S have passed (five calls on the 600 s
corpora, one on hour-trips); pipeline_s counts the median of those calls.
Between and after its passes, every workload runs a closed loop with one
client calling ``detect`` once per scoring trip (validation and splice trips,
in turn), each call issued when the previous one has written its report.
paper-default and train-large also score extra 600 s splice trips from a
second generated corpus, so that splice_f1 rests on 32 theft windows, not 4.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
from theftdetect import cli, synth

from spans import LAYER_METRICS, Tracer, median_totals

# (name, unit, better). Quality metrics come from `evaluate`, which tunes each
# threshold on the same windows it then scores.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("evaluate_s", "s", "lower"),
    ("detect_p50_ms", "ms", "lower"),
    ("detect_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("min_model_accuracy", "fraction", "higher"),
    ("ensemble_precision", "fraction", "higher"),
    ("ensemble_recall", "fraction", "higher"),
    ("min_model_auc", "fraction", "higher"),
    ("splice_f1", "fraction", "higher"),
    ("codebook_sse_gmean", "sse", "lower"),
)

WORKLOADS = ("paper-default", "train-large", "hour-trips")

# The seeded acceptance run (tests/test_acceptance.py, scripts/run_pipeline.py)
# on which the project requires every model to reach ACCURACY_BAR.
ACCEPTANCE_SEED = 7
ACCURACY_BAR = 0.95
# Per-model floor on the 600 s corpora (180 windows per model) at other seeds:
# there the unchanged program misses ACCURACY_BAR at some seeds, the lowest
# seen being 0.917 (15 of 180 windows wrong).
MODEL_ACCURACY_FLOOR = 0.9
DETECTION_WINDOW = 32  # samples: the CLI's default 32 s windows at 1 s sampling
# Timings drift by tens of percent within seconds on a shared 2-vCPU VM, so
# each timing is a median of samples spread over the run: at least four passes
# (train-large's ~6 s passes fill the run; hour-trips runs a few seconds past
# --seconds), and within a pass `evaluate` repeated for at least EVALUATE_MIN_S.
MIN_PASSES = 4
EVALUATE_MIN_S = 1.0
SETUPS = 3  # set-ups per run; setup_s is their median

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Scale:
    train_trips: int  # owner training trips of the default corpus
    large_train_trips: int  # owner training trips of train-large
    duration_s: float  # trip length of both training corpora
    hour_duration_s: float  # trip length of the hour-trips scoring corpus
    hour_val: tuple[int, int]  # owner:thief validation trips of hour-trips
    min_detect_calls: int  # 110 leaves at least 10 samples beyond p90
    extra_splices: int  # extra 600 s splice trips scored by paper-default and train-large
    train_flags: tuple[str, ...] = ()  # extra `train` flags; none means k=300


SCALES = {
    "full": Scale(10, 20, 600.0, 3600.0, (16, 4), 110, 7),
    # a few seconds per workload, for benchmark/selfcheck.py; k below the
    # segment count so that codebook SSE stays positive
    "tiny": Scale(3, 4, 200.0, 400.0, (4, 2), 12, 2, ("--k", "12", "--restarts", "2")),
}


class CheckFailed(Exception):
    """An output the benchmark needs is missing or malformed."""


@dataclass
class Inputs:
    corpus: Path  # corpus the pipeline trains on
    scoring: Path  # corpus whose validation and splice trips are scored
    splices: Path | None  # corpus of extra splice trips to score
    models: Path | None  # codebooks trained in set-up (hour-trips)
    setup_s: float
    train_s: float | None  # ingest + train inside set-up (hour-trips)


@dataclass
class Trip:
    """One scoring trip: its corpus and its manifest entry."""

    corpus: Path
    entry: dict

    @property
    def path(self) -> Path:
        return self.corpus / self.entry["file"]

    @property
    def report(self) -> str:
        return f"detection_{Path(self.entry['file']).stem}.json"

    @property
    def is_splice(self) -> bool:
        return self.entry["role"] == "val-splice"


@dataclass
class Pass:
    times: dict[str, float]  # wall time per stage; evaluate's is the median call
    out: Path
    models: Path
    evaluate: list[float]  # every evaluate call of the pass

    @property
    def pipeline_s(self) -> float:
        return sum(self.times.values())

    @property
    def wall_s(self) -> float:
        """The pass's own duration, every evaluate call included."""
        return self.pipeline_s - self.times["evaluate"] + sum(self.evaluate)

    @property
    def train_s(self) -> float | None:
        if "train" not in self.times:
            return None
        return self.times["ingest"] + self.times["train"]


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from None


class Bench:
    """One workload run: drives the CLI, counts operations and failed checks."""

    def __init__(self, workload: str, seed: int, scale: Scale, work: Path) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    # --- operations and checks ------------------------------------------------

    def cli(self, *argv: object) -> float:
        """Run one CLI command with its output captured; return its wall time."""
        args = [str(a) for a in argv]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(args)
        except (Exception, SystemExit) as exc:  # an error the CLI does not catch itself
            code = repr(exc)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.fail(f"theftdetect {' '.join(args)} exited {code}: {buf.getvalue().strip()[-400:]}")
        return elapsed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    # --- set-up ---------------------------------------------------------------

    def set_up(self, index: int) -> Inputs:
        """Generate the inputs (and, for hour-trips, train the codebooks)."""
        s = self.scale
        root = self.work / f"setup-{index}"
        corpus = root / "corpus"
        trips = s.large_train_trips if self.workload == "train-large" else s.train_trips
        start = time.perf_counter()
        self.cli("synth", "--data", corpus, "--seed", self.seed, "--trips", trips,
                 "--duration", s.duration_s)
        if self.workload != "hour-trips":
            # seed + 1 keeps every generated trip's seed (corpus seed * 100000 +
            # trip number) apart from those of the first corpus
            splices = root / "splices"
            synth.write_corpus(splices, synth.CorpusConfig(
                seed=self.seed + 1, duration_s=s.duration_s, owner_train_trips=1,
                owner_val_trips=0, thief_val_trips=0, non_owner_trips=0,
                splice_trips=s.extra_splices,
            ))
            return Inputs(corpus, corpus, splices, None, time.perf_counter() - start, None)
        models = root / "models"
        train_s = self.cli("ingest", "--data", corpus, "--out", models, "--seed", self.seed)
        train_s += self.cli("train", "--data", corpus, "--out", models, "--seed", self.seed,
                            *s.train_flags)
        # seed + 1 keeps the hour-long trips' generator seeds apart from those
        # of the training trips
        hours = root / "hours"
        synth.write_corpus(hours, synth.CorpusConfig(
            seed=self.seed + 1, duration_s=s.hour_duration_s, owner_train_trips=1,
            owner_val_trips=s.hour_val[0], thief_val_trips=s.hour_val[1], non_owner_trips=0,
        ))
        return Inputs(corpus, hours, None, models, time.perf_counter() - start, train_s)

    def set_up_all(self, tracer: Tracer | None) -> tuple[Inputs, list[Inputs]]:
        """Set up SETUPS times; the second one is traced when tracing."""
        runs = []
        first_digests: dict[str, str] = {}
        for i in range(1, SETUPS + 1):
            if tracer is not None and i == 2:
                with tracer.run("setup"):
                    inputs = self.set_up(i)
            else:
                inputs = self.set_up(i)
            runs.append(inputs)
            digests = tree_digests(self.work / f"setup-{i}")
            if i == 1:
                first_digests = digests
            else:
                self.check(digests == first_digests,
                           f"set-up {i} is not byte-identical to set-up 1 (corpus/codebooks)")
                shutil.rmtree(self.work / f"setup-{i}")
        return runs[0], runs

    # --- timed pass -------------------------------------------------------------

    def scoring_trips(self, inputs: Inputs) -> list[Trip]:
        """Validation and splice trips; the scoring corpus's splice trip first
        among the splice trips."""
        trips = []
        for corpus in (inputs.scoring, inputs.splices):
            if corpus is not None:
                manifest = read_json(corpus / "manifest.json")
                trips += [Trip(corpus, t) for t in manifest["trips"]
                          if t["role"] in ("val-owner", "val-thief", "val-splice")]
        if not any(t.is_splice for t in trips):
            raise CheckFailed("scoring corpus has no splice trip")
        return trips

    def run_pass(self, inputs: Inputs, index: int, splice: Trip,
                 evaluate_min_s: float = 0.0) -> Pass:
        """One pipeline pass; `evaluate` is called until `evaluate_min_s` have
        passed, at least once."""
        root = self.work / f"pass-{index}"
        out = root / "out"
        times: dict[str, float] = {}
        if inputs.models is None:
            models = root / "models"
            times["ingest"] = self.cli("ingest", "--data", inputs.corpus, "--out", models,
                                       "--seed", self.seed)
            times["train"] = self.cli("train", "--data", inputs.corpus, "--out", models,
                                      "--seed", self.seed, *self.scale.train_flags)
        else:
            models = inputs.models
        failed = self.failed
        evaluate = [self.cli("evaluate", "--data", inputs.scoring, "--models", models,
                             "--out", out, "--seed", self.seed)]
        while sum(evaluate) < evaluate_min_s and self.failed == failed:
            evaluate.append(self.cli("evaluate", "--data", inputs.scoring, "--models", models,
                                     "--out", out, "--seed", self.seed))
        times["evaluate"] = statistics.median(evaluate)
        times["detect"] = self.cli("detect", "--data", splice.corpus, "--models", models,
                                   "--out", out, "--trip", splice.path)
        times["report"] = self.cli("report", "--out", out, "--report", out / "report.json")
        return Pass(times, out, models, evaluate)

    def pass_digests(self, p: Pass, splice: Trip) -> dict[str, str]:
        files = sorted(p.models.glob("codebook_*.json")) + [
            p.out / "report.json", p.out / splice.report]
        return {f.name: sha256(f) for f in files if f.exists()}

    def check_pass(self, p: Pass, index: int, first: dict[str, str], splice: Trip) -> dict[str, str]:
        """Digest a pass; passes after the first must match it byte for byte."""
        digests = self.pass_digests(p, splice)
        if index > 1:
            self.check(digests == first, f"pass {index} outputs differ from pass 1 (codebooks, "
                                         "report.json or splice detection report)")
            shutil.rmtree(p.out.parent)
        return digests

    def detect_call(self, p: Pass, trip: Trip, seen: dict[str, str]) -> float:
        elapsed = self.cli("detect", "--data", trip.corpus, "--models", p.models,
                           "--out", self.work / "loop", "--trip", trip.path)
        report = self.work / "loop" / trip.report
        digest = sha256(report) if report.exists() else ""
        if trip.report in seen:
            self.check(digest == seen[trip.report], f"{trip.report} changed between calls")
        else:
            seen[trip.report] = digest
        return elapsed

    def loop_splices(self, trips: list[Trip]) -> list[tuple[Trip, Path]]:
        return [(t, self.work / "loop" / t.report) for t in trips if t.is_splice]

    # --- output checks and quality metrics --------------------------------------

    def quality(self, p: Pass, splices: list[tuple[Trip, Path]]) -> dict[str, float]:
        """Check the first pass's outputs and the splice trips' detection
        reports, and return the quality metrics."""
        report = read_json(p.out / "report.json")
        models = report.get("models") or {}
        ensemble = (report.get("ensemble") or {}).get("metrics")
        self.check(bool(models) and ensemble is not None, "report.json lacks models or ensemble")
        if not models or ensemble is None:
            raise CheckFailed("report.json lacks models or ensemble")
        accuracies = {f: b["metrics"]["accuracy"] for f, b in models.items()}
        below = sorted(f for f, a in accuracies.items() if a < ACCURACY_BAR)
        # The bar holds on the seeded acceptance run and on hour-trips (2,240
        # windows per model) at every seed tried, but not on every seed of the
        # 600 s corpora (180 windows per model).
        bar_applies = self.scale is SCALES["full"] and (
            self.workload == "hour-trips"
            or (self.workload == "paper-default" and self.seed == ACCEPTANCE_SEED))
        if bar_applies:
            self.check(not below, f"models below accuracy {ACCURACY_BAR}: {below}")
        else:
            floor = min(accuracies.values())
            self.check(floor >= MODEL_ACCURACY_FLOOR,
                       f"model accuracy {floor:.4f} below the floor {MODEL_ACCURACY_FLOOR}")
            if below:
                self.notes.append(f"models below accuracy {ACCURACY_BAR}, which is checked "
                                  f"only on hour-trips and the seed-7 acceptance run: {below}")
        self.check(ensemble["accuracy"] >= ACCURACY_BAR,
                   f"ensemble accuracy {ensemble['accuracy']:.4f} below {ACCURACY_BAR}")
        best = max(b["metrics"]["precision"] for b in models.values())
        self.check(ensemble["precision"] >= best,
                   f"ensemble precision {ensemble['precision']:.4f} below best model {best:.4f}")

        tp = flagged = theft = windows = 0
        for trip, report in splices:
            counts = self.splice_counts(trip, report)
            tp, flagged, theft, windows = (a + b for a, b in zip((tp, flagged, theft, windows), counts))
        fp, owner = flagged - tp, windows - theft
        self.check(2 * tp > theft and 2 * fp < owner,
                   f"splice trips: {tp} of {theft} theft and {fp} of {owner} owner windows flagged")
        precision = tp / flagged if flagged else 0.0
        recall = tp / theft if theft else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0

        sses = [read_json(f)["sse"] for f in sorted(p.models.glob("codebook_*.json"))]
        self.check(bool(sses) and min(sses) > 0, "codebooks missing or with zero SSE")
        return {
            "min_model_accuracy": min(accuracies.values()),
            "ensemble_precision": ensemble["precision"],
            "ensemble_recall": ensemble["recall"],
            "min_model_auc": min(b["auc"] for b in models.values()),
            "splice_f1": f1,
            "codebook_sse_gmean": math.exp(statistics.fmean(math.log(s) for s in sses)),
        }

    def splice_counts(self, trip: Trip, report: Path) -> tuple[int, int, int, int]:
        """Theft windows flagged, windows flagged, theft windows and all windows
        of the ensemble's verdicts on one splice trip.

        Ground truth is computed here from the sample labels: a detection
        window is theft when more than half of its samples are spliced.
        """
        detection = read_json(report)
        voted = detection.get("ensemble")
        if not voted:
            raise CheckFailed("splice detection report has no ensemble verdicts")
        lines = (trip.corpus / trip.entry["labels"]).read_text(encoding="utf-8").split()[1:]
        labels = [v == "1" for v in lines]
        tp = flagged = theft = 0
        for window in voted:
            start = window["window_start"]
            is_theft = 2 * sum(labels[start:start + DETECTION_WINDOW]) > DETECTION_WINDOW
            theft += is_theft
            flagged += window["is_theft"]
            tp += is_theft and window["is_theft"]
        return tp, flagged, theft, len(voted)

    # --- whole runs -------------------------------------------------------------

    def measure(self, seconds: float) -> Result:
        """Untraced run: every end-to-end metric."""
        inputs, setups = self.set_up_all(None)
        trips = self.scoring_trips(inputs)
        splice = next(t for t in trips if t.is_splice)
        # Detect calls are spread over the whole run, between passes, so that
        # every timing samples the machine's speed across all of it. One
        # cycle over the scoring trips and one pass give the time estimates
        # that plan how many passes fit beside the detect minimum.
        start = time.perf_counter()
        latencies: list[float] = []
        seen: dict[str, str] = {}

        def detect_calls(n: int) -> None:
            for _ in range(n):
                trip = trips[len(latencies) % len(trips)]
                latencies.append(self.detect_call(passes[0], trip, seen))

        passes = [self.run_pass(inputs, 1, splice, EVALUATE_MIN_S)]
        first = self.check_pass(passes[0], 1, {}, splice)
        detect_calls(len(trips))
        spare = (seconds - (time.perf_counter() - start)
                 - self.scale.min_detect_calls * statistics.median(latencies))
        planned = max(MIN_PASSES, 1 + int(spare // passes[0].wall_s))
        block = math.ceil(max(0, self.scale.min_detect_calls - len(latencies)) / planned)
        detect_calls(block)
        while len(passes) < planned:
            p = self.run_pass(inputs, len(passes) + 1, splice, EVALUATE_MIN_S)
            passes.append(p)
            self.check_pass(p, len(passes), first, splice)
            detect_calls(block)
        while time.perf_counter() - start + statistics.median(latencies) <= seconds:
            detect_calls(1)
        quality = self.quality(passes[0], self.loop_splices(trips))

        if inputs.train_s is None:
            train = [q.train_s for q in passes]
        else:
            train = [s.train_s for s in setups]
        result = Result(notes=["quality metrics come from evaluate, which tunes each "
                               "threshold on the windows it scores"])
        result.metrics = {
            "setup_s": statistics.median(s.setup_s for s in setups),
            "pipeline_s": statistics.median(q.pipeline_s for q in passes),
            "train_s": statistics.median(train),
            "evaluate_s": statistics.median(x for q in passes for x in q.evaluate),
            "detect_p50_ms": 1000 * statistics.median(latencies),
            "detect_p90_ms": 1000 * p90(latencies),
            "peak_rss_mb": peak_rss_mb(),
            **quality,
        }
        result.samples = {
            "setup_s": len(setups), "pipeline_s": len(passes), "train_s": len(train),
            "evaluate_s": sum(len(q.evaluate) for q in passes), "detect_p50_ms": len(latencies),
            "detect_p90_ms": len(latencies),
        }
        return result

    def trace(self, seconds: float) -> Result:
        """Traced run: every per-layer metric, from alternating traced and
        untraced units (a pass plus one detect call per scoring trip)."""
        tracer = Tracer()
        inputs, setups = self.set_up_all(tracer)
        trips = self.scoring_trips(inputs)
        splice = next(t for t in trips if t.is_splice)
        start = time.perf_counter()
        units: dict[bool, list[tuple[Pass, list[float]]]] = {False: [], True: []}
        first: dict[str, str] = {}
        seen: dict[str, str] = {}
        unit_s: list[float] = []
        index = 0
        while True:
            index += 1
            traced = index % 2 == 0
            unit_start = time.perf_counter()
            with tracer.run(f"unit-{index}") if traced else contextlib.nullcontext():
                p = self.run_pass(inputs, index, splice)
                lat = [self.detect_call(p, t, seen) for t in trips]
            unit_s.append(time.perf_counter() - unit_start)
            units[traced].append((p, lat))
            digests = self.check_pass(p, index, first, splice)
            first = first or digests
            if index >= 2 and time.perf_counter() - start + statistics.median(unit_s) > seconds:
                break
        self.quality(units[False][0][0], self.loop_splices(trips))

        setup_layers = tracer.totals("setup")
        unit_layers = median_totals(tracer, [f"unit-{i}" for i in range(2, index + 1, 2)])
        layers = {n: setup_layers.get(n, 0.0) + unit_layers.get(n, 0.0)
                  for n in set(setup_layers) | set(unit_layers)}

        def overhead(values) -> float:
            return statistics.median(values(True)) - statistics.median(values(False))

        if inputs.train_s is None:
            train_overhead = overhead(lambda t: [p.train_s for p, _ in units[t]])
        else:  # hour-trips trains in set-up: set-up 2 was traced, 1 and 3 were not
            untraced = [s.train_s for i, s in enumerate(setups) if i != 1]
            train_overhead = setups[1].train_s - statistics.median(untraced)
        layers["trace.overhead.pipeline_s"] = overhead(lambda t: [p.pipeline_s for p, _ in units[t]])
        layers["trace.overhead.train_s"] = train_overhead
        layers["trace.overhead.detect_p50_ms"] = 1000 * overhead(
            lambda t: [x for _, lat in units[t] for x in lat])

        result = Result(layers=layers)
        names = [name for name, _, _ in LAYER_METRICS]
        result.metrics = {n: layers.get(n, 0.0) for n in names}
        absent = sorted(tracer.absent)
        if absent:
            result.notes.append(f"absent from the program (reported as 0): {absent}")
        result.samples = {"traced_units": len(units[True]), "untraced_units": len(units[False])}
        return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: Scale,
                 work: Path) -> tuple[Bench, Result]:
    """Run one workload in `work`, which is removed afterwards. An error that
    stops the run counts as one failed check and leaves the metrics empty."""
    bench = Bench(workload, seed, scale, work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = bench.trace(seconds) if trace else bench.measure(seconds)
    except Exception as exc:  # CheckFailed, or an error from a changed program
        bench.attempted += 1
        bench.fail(f"run stopped: {exc!r}")
        result = Result()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.notes[:0] = bench.notes
    return bench, result


def env_record(seed: int) -> dict:
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10, check=False)
        for line in lscpu.stdout.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower():
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.TimeoutExpired):
        caches = {"error": "lscpu unavailable"}
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "os_threads": threads,
        "seed": seed,
    }
