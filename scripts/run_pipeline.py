#!/usr/bin/env python3
"""Run the full pipeline end to end on a fresh synthetic corpus.

Synthesizes the corpus, selects features, trains the codebooks, tunes and
scores the models on the validation trips, runs detection on every validation
and splice trip and renders the report tables.

Usage: python scripts/run_pipeline.py [workdir] [--seed N]
"""

import argparse
import sys
from pathlib import Path
from typing import Iterator

from theftdetect import cli, synth


def steps(work: Path, seed: str, synth_flags: tuple[str, ...] = (),
          train_flags: tuple[str, ...] = ()) -> Iterator[list[str]]:
    """CLI argument lists in run order, ``synth`` and ``train`` given the extra flags;
    each is built once the previous step has run."""
    corpus, models, out = str(work / "corpus"), str(work / "models"), str(work / "out")
    yield ["synth", "--data", corpus, "--seed", seed, *synth_flags]
    yield ["ingest", "--data", corpus, "--out", models]
    yield ["train", "--data", corpus, "--out", models, "--seed", seed, *train_flags]
    yield ["evaluate", "--data", corpus, "--models", models, "--out", out, "--seed", seed]
    for trip in synth.load_manifest(corpus)["trips"]:
        if trip["role"].startswith("val-"):
            yield ["detect", "--models", models, "--out", out,
                   "--trip", str(work / "corpus" / trip["file"])]
    yield ["report", "--out", out, "--report", str(work / "out" / "report.json")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", nargs="?", default="work")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    for step in steps(work, str(args.seed)):
        print(f"--- theftdetect {' '.join(step)}")
        code = cli.main(step)
        if code != 0:
            return code
    print(f"done; see {work / 'out' / 'report.md'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
