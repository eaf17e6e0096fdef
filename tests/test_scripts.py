import importlib.util
from pathlib import Path

import pytest

from theftdetect.cli import EXIT_OK, main
from theftdetect.synth import load_manifest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_elbow_experiment_smoke(tmp_path, capsys):
    elbow = load_script("elbow_experiment")
    # 32 s windows at a 16 s stride: 6 per 120 s trip at either sample period
    for period in ("1", "2"):
        corpus = tmp_path / f"corpus{period}"
        assert main(["synth", "--data", str(corpus), "--seed", "3", "--sample-period", period,
                     "--trips", "2", "--duration", "120"]) == EXIT_OK
        capsys.readouterr()
        assert elbow.main([str(corpus), "--k-max", "6", "--step", "2", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "12 training windows for transmission_oil_temperature"
        assert [int(line[2:6]) for line in lines[1:]] == [1, 3, 5]
        assert sum("<- recommended" in line for line in lines) == 1


@pytest.mark.parametrize("flags, message", [
    (["--feature", "no_such_feature"], "--feature 'no_such_feature' is not a feature"),
    (["--k-max", "0"], "--k-max must be at least 1, got 0"),
    (["--step", "0"], "--step must be at least 1, got 0"),
    (["--step", "-2"], "--step must be at least 1, got -2"),
], ids=["unknown-feature", "k-max-0", "step-0", "step-negative"])
def test_elbow_experiment_argument_errors(tmp_path, capsys, flags, message):
    """A bad argument is a usage error naming the value, not a traceback."""
    elbow = load_script("elbow_experiment")
    corpus = tmp_path / "corpus"
    assert main(["synth", "--data", str(corpus), "--seed", "3", "--trips", "1",
                 "--duration", "64"]) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        elbow.main([str(corpus), *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_run_pipeline_smoke(tmp_path, capsys):
    run_pipeline = load_script("run_pipeline")
    assert run_pipeline.main([str(tmp_path), "--seed", "3"]) == 0
    assert capsys.readouterr().out.endswith(f"done; see {tmp_path / 'out' / 'report.md'}\n")
    scored = [t for t in load_manifest(tmp_path / "corpus")["trips"] if t["role"].startswith("val-")]
    assert {t["role"] for t in scored} == {"val-owner", "val-thief", "val-splice"}
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert {f"detection_{t['trip_id']}.json" for t in scored} <= names
    assert {"report.json", "report.md", "report.csv"} <= names
