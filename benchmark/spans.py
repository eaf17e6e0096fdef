"""In-memory spans around theftdetect's public functions, recorded from outside.

Each hook replaces one public function at the place its caller looks it up, so
the program's files stay untouched:

* a module attribute that callers read at call time: ``cli`` calls
  ``ingest.parse_trip`` and ``cluster.kmeans_fit``; ``kmeans_fit`` calls the
  module-global ``lloyd``; ``cli.main`` calls the global ``cmd_train``;
* a name another module imported: ``reconstruct`` imports ``assign``,
  ``slide`` and ``highlight`` by name, so those hooks patch ``reconstruct``
  and time only the scoring path.

A span is ``[name, start, end, parent index, run id]``. A hooked name that the
program no longer defines is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

# Where a counter reads its values from: (positional args, result) -> increments.
CountFn = Callable[[tuple, object], dict]


def _rows(args: tuple, trip: object) -> dict:
    return {"ingest.rows": trip.length}


def _segments(args: tuple, segments: object) -> dict:
    return {"windowing.segments": len(segments)}


def _lloyd(args: tuple, result: object) -> dict:
    # Exact-difference distances cost sub, square and add per element, for the
    # initial assignment and one per iteration. Reseed passes of empty
    # clusters are invisible from here, so this is a lower bound.
    x, init = args[0], args[1]
    iterations = result[3]
    n, length = x.shape
    return {
        "cluster.lloyd.iterations": iterations,
        "cluster.distance_ops": (iterations + 1) * n * len(init) * length * 3,
    }


def _codebook_bytes(args: tuple, cb: object) -> dict:
    return {"cluster.codebook_bytes": os.path.getsize(args[0])}


def _samples(args: tuple, rec: object) -> dict:
    return {"reconstruct.samples": len(rec.reconstructed)}


def _comparisons(args: tuple, curve: object) -> dict:
    return {"detect.roc_sweep.comparisons": len(args[0]) * len(args[1])}


def _windows(args: tuple, verdicts: object) -> dict:
    return {"detect.windows": len(verdicts)}


# (module under theftdetect, attribute, span name, counter)
HOOKS: tuple[tuple[str, str, str, CountFn | None], ...] = (
    ("synth", "write_corpus", "synth.write_corpus", None),
    ("ingest", "parse_trip", "ingest.parse_trip", _rows),
    ("ingest", "build_catalog", "ingest.build_catalog", None),
    ("ingest", "apply_selection_rules", "ingest.select", None),
    ("ingest", "select_essential", "ingest.select", None),
    ("ingest", "finalize_decisions", "ingest.select", None),
    ("windowing", "slide_highlighted", "windowing.slide_highlighted", _segments),
    ("reconstruct", "slide", "windowing.slide", None),
    ("reconstruct", "highlight", "windowing.highlight", None),
    ("cluster", "kmeans_fit", "cluster.kmeans_fit", None),
    ("cluster", "lloyd", "cluster.lloyd", _lloyd),
    ("reconstruct", "assign", "cluster.assign", None),
    ("cluster", "load_codebook", "cluster.load_codebook", _codebook_bytes),
    ("cluster", "save_codebook", "cluster.save_codebook", None),
    ("reconstruct", "reconstruct_series", "reconstruct.reconstruct_series", _samples),
    ("reconstruct", "error_series", "reconstruct.error_series", None),
    ("detect", "threshold_grid", "detect.threshold_grid", None),
    ("detect", "roc_sweep", "detect.roc_sweep", _comparisons),
    ("detect", "optimize_threshold", "detect.optimize_threshold", None),
    ("detect", "compute_metrics", "detect.compute_metrics", None),
    ("detect", "windows_verdicts", "detect.windows_verdicts", _windows),
    ("detect", "ensemble_vote", "detect.ensemble_vote", None),
    ("detect", "write_detection_report", "detect.write_detection_report", None),
    ("cli", "cmd_ingest", "cli.cmd_ingest", None),
    ("cli", "cmd_train", "cli.cmd_train", None),
    ("cli", "evaluate", "cli.evaluate", None),
    ("cli", "cmd_detect", "cli.cmd_detect", None),
    ("cli", "cmd_report", "cli.cmd_report", None),
    ("cli", "load_corpus_trips", "cli.load_corpus_trips", None),
    ("cli", "load_models", "cli.load_models", None),
    ("cli", "train_codebooks", "cli.train_codebooks", None),
    ("cli", "trip_model_verdicts", "cli.trip_model_verdicts", None),
)

# Per-layer metrics of the traced run: (name, unit, end-to-end metric it should
# move and where). "<span>.s" is inclusive time, "<span>.self_s" excludes the
# hooked spans inside it, "<span>.calls" counts spans; other names are counters.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("synth.write_corpus.s", "s", "setup_s on all workloads"),
    ("ingest.parse_trip.s", "s", "detect_p50_ms on hour-trips; train_s slightly on train-large"),
    ("ingest.parse_trip.calls", "count", "detect_p50_ms on hour-trips"),
    ("ingest.rows", "count", "detect_p50_ms on hour-trips"),
    ("ingest.build_catalog.s", "s", "train_s and pipeline_s, a little"),
    ("ingest.select.s", "s", "train_s and pipeline_s, a little"),
    ("windowing.slide_highlighted.s", "s", "train_s"),
    ("windowing.segments", "count", "train_s"),
    ("windowing.slide.s", "s", "detect_p50_ms (reconstruct path)"),
    ("windowing.highlight.calls", "count", "detect_p50_ms (reconstruct path)"),
    ("cluster.kmeans_fit.s", "s", "pipeline_s on paper-default"),
    ("cluster.kmeans_fit.self_s", "s", "pipeline_s on paper-default (seeding, distinct-row check)"),
    ("cluster.lloyd.s", "s", "train_s on train-large"),
    ("cluster.lloyd.calls", "count", "train_s on train-large"),
    ("cluster.lloyd.iterations", "count", "train_s on train-large"),
    ("cluster.distance_ops", "ops", "train_s on train-large (computed lower bound)"),
    ("cluster.assign.calls", "count", "detect_p50_ms and evaluate_s on hour-trips"),
    ("cluster.assign.s", "s", "detect_p50_ms and evaluate_s on hour-trips"),
    ("cluster.load_codebook.s", "s", "detect_p50_ms"),
    ("cluster.load_codebook.calls", "count", "detect_p50_ms"),
    ("cluster.codebook_bytes", "bytes", "detect_p50_ms"),
    ("cluster.save_codebook.s", "s", "train_s"),
    ("reconstruct.reconstruct_series.s", "s", "detect_p50_ms and evaluate_s on hour-trips"),
    ("reconstruct.reconstruct_series.calls", "count", "detect_p50_ms and evaluate_s on hour-trips"),
    ("reconstruct.samples", "count", "detect_p50_ms and evaluate_s on hour-trips"),
    ("reconstruct.error_series.s", "s", "detect_p50_ms and evaluate_s on hour-trips"),
    ("detect.roc_sweep.s", "s", "evaluate_s on hour-trips; flat on paper-default"),
    ("detect.roc_sweep.comparisons", "count", "evaluate_s on hour-trips"),
    ("detect.threshold_grid.s", "s", "evaluate_s"),
    ("detect.optimize_threshold.s", "s", "evaluate_s"),
    ("detect.compute_metrics.s", "s", "evaluate_s"),
    ("detect.windows_verdicts.s", "s", "detect_p90_ms"),
    ("detect.windows", "count", "detect_p90_ms"),
    ("detect.ensemble_vote.s", "s", "detect_p90_ms"),
    ("detect.write_detection_report.s", "s", "detect_p90_ms"),
    ("cli.cmd_ingest.s", "s", "train_s, pipeline_s"),
    ("cli.cmd_ingest.self_s", "s", "train_s, pipeline_s"),
    ("cli.cmd_train.s", "s", "train_s, pipeline_s"),
    ("cli.cmd_train.self_s", "s", "train_s, pipeline_s"),
    ("cli.evaluate.s", "s", "evaluate_s"),
    ("cli.evaluate.self_s", "s", "evaluate_s"),
    ("cli.cmd_detect.s", "s", "detect_p50_ms"),
    ("cli.cmd_detect.self_s", "s", "detect_p50_ms"),
    ("cli.cmd_report.s", "s", "pipeline_s"),
    ("cli.cmd_report.self_s", "s", "pipeline_s"),
    ("cli.load_corpus_trips.s", "s", "train_s, evaluate_s"),
    ("cli.load_models.s", "s", "detect_p50_ms, evaluate_s"),
    ("cli.train_codebooks.s", "s", "train_s"),
    ("cli.trip_model_verdicts.s", "s", "detect_p50_ms, evaluate_s"),
    ("trace.overhead.pipeline_s", "s", "traced minus untraced pipeline_s"),
    ("trace.overhead.train_s", "s", "traced minus untraced train_s"),
    ("trace.overhead.detect_p50_ms", "ms", "traced minus untraced detect_p50_ms"),
)


class Tracer:
    """Wraps the hooked functions while a run is active and keeps its spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._run_id = ""

    @contextmanager
    def run(self, run_id: str) -> Iterator[None]:
        """Trace every hooked call made inside the block under ``run_id``."""
        self._run_id = run_id
        restore = []
        try:
            for module_name, attr, name, count in HOOKS:
                try:
                    module = importlib.import_module(f"theftdetect.{module_name}")
                except ModuleNotFoundError:
                    self.absent.add(name)
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.add(name)
                    continue
                setattr(module, attr, self._wrap(original, name, count))
                restore.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def _wrap(self, fn: Callable, name: str, count: CountFn | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        run_id = self._run_id

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else None, run_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    counts[run_id].update(count(args, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    # the function changed shape; its counters read as absent
                    self.absent.add(f"{name} counters")
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self, run_id: str) -> dict[str, float]:
        """Inclusive time, self time and calls per span name, plus counters."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent is not None:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[index]
            out[f"{name}.calls"] += 1
        out.update(self.counts[run_id])
        return dict(out)


def median_totals(tracer: Tracer, run_ids: list[str]) -> dict[str, float]:
    """Per-name median over runs; a name missing from a run counts as 0."""
    per_run = [tracer.totals(r) for r in run_ids]
    names = set().union(*per_run) if per_run else set()
    return {n: statistics.median(t.get(n, 0.0) for t in per_run) for n in names}
