#!/usr/bin/env python3
"""theftdetect benchmark: one workload per process, outputs checked.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload paper-default --seed 7 --seconds 30 --trace 0

Workloads are paper-default, train-large and hour-trips (see workloads.py);
``--workload all`` runs each of them in its own process, one after another.
``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs traced and
untraced units in turn and prints every per-layer metric. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A failed operation or output check makes the exit code 1. Without the
program's source under ``src/`` the exit code is 2 and nothing is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a small corpus for benchmark/selfcheck.py")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "theftdetect" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    # one process, at most nproc threads: cap BLAS pools before numpy loads
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import LAYER_METRICS

    if args.workload == "all":
        codes = []
        for workload in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scale", args.scale]
            sys.stdout.flush()
            codes.append(subprocess.run(cmd, check=False).returncode)
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    bench, result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.SCALES[args.scale], work)

    if args.trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        units = {name: unit for name, unit, _ in workloads.END_TO_END}
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    for name, unit in units.items():
        if name not in result.metrics:
            print(f"  {name:40s} {'not measured':>14s} {unit}")
            continue
        n = result.samples.get(name)
        print(f"  {name:40s} {result.metrics[name]:14.6g} {unit}" + (f"  (n={n})" if n else ""))
    print(f"  failed_frac {bench.failed}/{bench.attempted}")
    for note in result.notes:
        print(f"  note: {note}")
    detail = {
        "env": workloads.env_record(args.seed),
        "samples": result.samples,
        "failures": bench.failures,
        "notes": result.notes,
    }
    if args.trace:
        detail["layers"] = {k: result.layers[k] for k in sorted(result.layers)}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": result.metrics[n], "unit": u} for n, u in units.items()
                    if n in result.metrics},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
