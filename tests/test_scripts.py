import importlib.util
from pathlib import Path

from theftdetect.cli import EXIT_OK, main

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
