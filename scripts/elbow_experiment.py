#!/usr/bin/env python3
"""Sweep k over owner training windows and print the SSE elbow curve.

Usage: python scripts/elbow_experiment.py <corpus_dir> [--feature NAME]
                                          [--k-max 40] [--step 2] [--seed 7]
"""

import argparse
import sys

from theftdetect import DataError, cli, cluster, windowing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus_dir")
    parser.add_argument("--feature", default="transmission_oil_temperature")
    parser.add_argument("--k-max", type=int, default=40)
    parser.add_argument("--step", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.k_max < 1:
        parser.error(f"--k-max must be at least 1, got {args.k_max}")
    if args.step < 1:
        parser.error(f"--step must be at least 1, got {args.step}")

    try:
        manifest, corpus = cli.load_corpus_trips(args.corpus_dir, roles={"train"})
        if not corpus:
            raise DataError(f"no training trips in {args.corpus_dir}")
        trips = [trip for _, trip in corpus]
        if any(args.feature not in trip.features for trip in trips):
            parser.error(f"--feature {args.feature!r} is not a feature of every training trip")
        # the default 32 s window and 16 s stride, at the corpus's own sample period
        wcfg = windowing.WindowConfig(sample_period_s=manifest["sample_period_s"])
        windows = cli.feature_windows(trips, args.feature, wcfg)
        print(f"{len(windows)} training windows for {args.feature}")
        k_values = list(range(1, min(args.k_max, len(windows)) + 1, args.step))
        curve = cluster.elbow_sweep(windows, k_values, seed=args.seed, restarts=3)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return cli.EXIT_DATA
    for k, sse in curve.points:
        marker = "  <- recommended" if k == curve.recommended_k else ""
        print(f"k={k:4d}  sse={sse:14.4f}{marker}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
