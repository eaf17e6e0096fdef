#!/usr/bin/env python3
"""Fast self-check of the benchmark on a tiny corpus (under a minute).

    python3 benchmark/selfcheck.py

1. BENCHMARK.json names the same metrics, units and directions as the
   benchmark's own tables, and every workload, untraced and traced, emits
   each named metric with its unit and passes its output checks.
2. The output checks fire: with a deliberately wrong thresholds.json (every
   threshold 0, then every threshold huge) the splice-trip check fails, and
   the rewritten detection report fails the byte-identity check.
3. A run whose ``evaluate`` fails (its models directory removed first) counts
   the failures, still prints its result line, and exits 1.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SEED = 3


def check_metric_tables(spec: dict) -> None:
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == set(workloads.END_TO_END), declared ^ set(workloads.END_TO_END)
    # every per-layer metric is a time or an amount of work: lower is better
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    own = {(name, unit, "lower") for name, unit, _ in LAYER_METRICS}
    assert declared == own, declared ^ own
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def check_emitted(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                   "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got.items()) ^ set(want.items()))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations and checks")


def check_checks_fire() -> None:
    work = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    bench = workloads.Bench("paper-default", SEED, workloads.SCALES["tiny"], work)
    try:
        inputs = bench.set_up(1)
        splice = next(t for t in bench.scoring_trips(inputs) if t.is_splice)
        first: dict[str, str] = {}
        for index, wrong in enumerate((0.0, 1e12), start=1):
            p = bench.run_pass(inputs, index, splice)
            splices = [(splice, p.out / splice.report)]
            bench.quality(p, splices)
            assert bench.failed == 0, bench.failures
            first = first or bench.pass_digests(p, splice)
            thresholds = json.loads((p.models / "thresholds.json").read_text())
            (p.models / "thresholds.json").write_text(
                json.dumps({feature: wrong for feature in thresholds}))
            bench.cli("detect", "--data", splice.corpus, "--models", p.models,
                      "--out", p.out, "--trip", splice.path)
            with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED lines
                bench.quality(p, splices)
                assert bench.failed == 1 and "splice trips" in bench.failures[-1], bench.failures
                bench.check_pass(p, 2, first, splice)
            assert bench.failed == 2 and "differ" in bench.failures[-1], bench.failures
            print(f"ok  thresholds all {wrong:g}: the splice and byte-identity checks fired")
            bench.failed, bench.failures = 0, []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_stopped_run() -> None:
    original = workloads.cli.main

    def broken(argv: list[str]) -> int:
        if argv[0] == "evaluate":
            shutil.rmtree(argv[argv.index("--models") + 1], ignore_errors=True)
        return original(argv)

    out = io.StringIO()
    workloads.cli.main = broken
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "paper-default", "--seed", str(SEED), "--seconds", "1",
                             "--trace", "0", "--scale", "tiny"])
    finally:
        workloads.cli.main = original
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    failures = json.loads(next(x for x in lines if x.startswith("detail "))[7:])["failures"]
    assert code == 1 and not result["correct"] and result["failed"] >= 2, (code, result)
    assert any(f.startswith("theftdetect evaluate") for f in failures), failures
    assert failures[-1].startswith("run stopped"), failures
    print(f"ok  evaluate without models: {result['failed']} of {result['attempted']} failed, "
          "result line printed, exit 1")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_tables(spec)
    print("ok  BENCHMARK.json matches the benchmark's metric tables")
    check_checks_fire()
    check_stopped_run()
    check_emitted(spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
