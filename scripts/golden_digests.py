#!/usr/bin/env python3
"""Print, or write to tests/golden/, the sha256 of every file a seeded smoke run writes.

The smoke run is the CI configuration: a seed-7 corpus of 2 trips of 120 s per
driver, feature selection, k=10 codebooks, evaluation, detection on every
validation trip and the report tables. Files are listed in pipeline order:
by the step that first wrote them, then by path.

Usage: python scripts/golden_digests.py [--write]
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from theftdetect import cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run_pipeline import steps  # noqa: E402  (the script beside this one)

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "smoke_seed7.json"
# the CI smoke configuration: 2 trips of 120 s per driver, k=10 codebooks
SMOKE_SYNTH = ("--trips", "2", "--duration", "120")
SMOKE_TRAIN = ("--k", "10")


def smoke_digests(work: Path) -> dict[str, str]:
    """Run the smoke configuration in ``work``; relative path -> sha256, in pipeline order."""
    order: list[str] = []
    for step in steps(work, "7", SMOKE_SYNTH, SMOKE_TRAIN):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(step)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"theftdetect {' '.join(step)} exited {code}")
        written = sorted(p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file())
        order += [name for name in written if name not in order]
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in order}


def first_difference(expected: dict[str, str], actual: dict[str, str]) -> str | None:
    """The first file, in the expected pipeline order, whose digest differs or that one
    run lacks; None when the two runs wrote the same bytes."""
    for name in list(expected) + [n for n in actual if n not in expected]:
        if expected.get(name) != actual.get(name):
            return name
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help=f"write the digests to {GOLDEN}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = smoke_digests(Path(tmp))
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
    else:
        for name, digest in digests.items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
