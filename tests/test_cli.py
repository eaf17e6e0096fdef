import argparse
import csv
import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from theftdetect.cli import (
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    window_labels,
)
from theftdetect.synth import load_manifest


def run(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    models = root / "models"
    out = root / "out"
    assert run("synth", "--data", str(corpus), "--seed", "11",
               "--trips", "4", "--duration", "240") == EXIT_OK
    assert run("train", "--data", str(corpus), "--out", str(models),
               "--seed", "11", "--k", "40", "--restarts", "2") == EXIT_OK
    assert run("evaluate", "--data", str(corpus), "--models", str(models),
               "--out", str(out), "--seed", "11") == EXIT_OK
    return root


def test_synth_writes_manifest(pipeline):
    manifest = load_manifest(pipeline / "corpus")
    roles = [t["role"] for t in manifest["trips"]]
    assert roles.count("train") == 4
    assert roles.count("val-owner") == 8
    assert roles.count("val-thief") == 2


def test_synth_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run("synth", "--data", str(tmp_path / sub), "--seed", "3",
                   "--trips", "2", "--duration", "120") == EXIT_OK
    digests = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        digests.append({
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()
        })
    assert digests[0] == digests[1]


def test_train_uses_only_owner_training_trips(pipeline):
    manifest = load_manifest(pipeline / "corpus")
    owner = manifest["owner"]
    train_ids = {
        t["trip_id"] for t in manifest["trips"]
        if t["role"] == "train" and t["driver_id"] == owner
    }
    for path in (pipeline / "models").glob("codebook_*.json"):
        doc = json.loads(path.read_text())
        assert set(doc["training_meta"]["trip_ids"]) == train_ids


def test_train_rerun_byte_identical(pipeline, tmp_path):
    assert run("train", "--data", str(pipeline / "corpus"), "--out", str(tmp_path),
               "--seed", "11", "--k", "40", "--restarts", "2") == EXIT_OK
    for path in sorted((pipeline / "models").glob("codebook_*.json")):
        assert path.read_bytes() == (tmp_path / path.name).read_bytes()


def test_evaluate_outputs(pipeline):
    out = pipeline / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["validation"]["owner_trips"] == 8
    assert report["validation"]["thief_trips"] == 2
    assert len(report["models"]) == 5
    for block in report["models"].values():
        for key in ("accuracy", "precision", "recall", "f1"):
            assert 0.0 <= block["metrics"][key] <= 1.0
    assert report["ensemble"]["rule"] == "majority 3 of 5"
    assert (out / "report.md").read_text().startswith("| Model | Feature |")
    assert len(list(out.glob("roc_*.csv"))) == 5
    assert (pipeline / "models" / "thresholds.json").exists()


def test_evaluate_rerun_byte_identical(pipeline, tmp_path):
    assert run("evaluate", "--data", str(pipeline / "corpus"),
               "--models", str(pipeline / "models"),
               "--out", str(tmp_path), "--seed", "11") == EXIT_OK
    assert (tmp_path / "report.json").read_bytes() == (pipeline / "out" / "report.json").read_bytes()


def test_detect_owner_and_spliced_trips(pipeline, tmp_path):
    corpus = pipeline / "corpus"
    manifest = load_manifest(corpus)
    by_role = {t["role"]: t for t in manifest["trips"]}
    out = tmp_path / "detect"

    owner_trip = by_role["val-owner"]
    assert run("detect", "--data", str(corpus), "--models", str(pipeline / "models"),
               "--out", str(out), "--trip", str(corpus / owner_trip["file"])) == EXIT_OK
    doc = json.loads((out / f"detection_{owner_trip['trip_id']}.json").read_text())
    thefts = [w["is_theft"] for w in doc["ensemble"]]
    assert sum(thefts) <= len(thefts) // 2  # majority owner verdicts

    splice_trip = by_role["val-splice"]
    assert run("detect", "--data", str(corpus), "--models", str(pipeline / "models"),
               "--out", str(out), "--trip", str(corpus / splice_trip["file"])) == EXIT_OK
    doc = json.loads((out / f"detection_{splice_trip['trip_id']}.json").read_text())
    theft_windows = [w["window_start"] for w in doc["ensemble"] if w["is_theft"]]
    assert theft_windows
    splice_start = int(0.75 * 240)
    assert all(start + 32 > splice_start for start in theft_windows)


@pytest.mark.parametrize("corrupt", ["delete", -1.0, math.nan, math.inf, "6"])
def test_detect_bad_threshold_fails_closed(pipeline, tmp_path, corrupt):
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    thresholds = json.loads((models / "thresholds.json").read_text())
    feature = sorted(thresholds)[2]
    if corrupt == "delete":
        del thresholds[feature]
    else:
        thresholds[feature] = corrupt
    (models / "thresholds.json").write_text(json.dumps(thresholds))
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-thief")
    out = tmp_path / "out"
    assert run("detect", "--data", str(pipeline / "corpus"), "--models", str(models),
               "--out", str(out), "--trip", str(pipeline / "corpus" / trip["file"])) == EXIT_USAGE
    assert not list(out.glob("detection_*.json"))


@settings(max_examples=40, deadline=None)
@given(
    feature_pick=st.integers(0, 4),
    row_pick=st.floats(0.0, 1.0, exclude_max=True),
    value=st.sampled_from(["nan", "inf", "-inf"]),
)
def test_detect_non_finite_sample_is_data_error(pipeline, feature_pick, row_pick, value):
    corpus = pipeline / "corpus"
    essential = json.loads((pipeline / "models" / "features.json").read_text())["essential"]
    entry = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-owner")
    with open(corpus / entry["file"], newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows[int(row_pick * len(rows))][header.index(essential[feature_pick])] = value
    with tempfile.TemporaryDirectory() as tmp:
        trip = Path(tmp) / "A_corrupt.csv"
        with open(trip, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        out = Path(tmp) / "out"
        assert run("detect", "--data", str(corpus), "--models", str(pipeline / "models"),
                   "--out", str(out), "--trip", str(trip)) == EXIT_DATA
        assert not list(out.glob("detection_*.json"))


def test_detect_mixed_window_configs_is_data_error(pipeline, tmp_path):
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    path = sorted(models.glob("codebook_*.json"))[0]
    doc = json.loads(path.read_text())
    doc["filter_name"] = "triangular"
    path.write_text(json.dumps(doc))
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    assert run("detect", "--data", str(pipeline / "corpus"), "--models", str(models),
               "--out", str(tmp_path / "out"),
               "--trip", str(pipeline / "corpus" / trip["file"])) == EXIT_DATA


def test_detect_sample_period_mismatch_is_data_error(pipeline, tmp_path, capsys):
    corpus = pipeline / "corpus"
    trip = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-owner")
    out = tmp_path / "out"
    assert run("detect", "--data", str(corpus), "--models", str(pipeline / "models"),
               "--out", str(out), "--trip", str(corpus / trip["file"]),
               "--sample-period", "2") == EXIT_DATA
    assert "every 2.0 s, but the codebooks every 1.0 s" in capsys.readouterr().err
    assert not list(out.glob("detection_*.json"))

    # evaluate reads the corpus period from its manifest
    shutil.copytree(corpus, tmp_path / "corpus")
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    manifest["sample_period_s"] = 2.0
    (tmp_path / "corpus" / "manifest.json").write_text(json.dumps(manifest))
    assert run("evaluate", "--data", str(tmp_path / "corpus"), "--models", str(pipeline / "models"),
               "--out", str(out)) == EXIT_DATA
    assert not (out / "report.json").exists()


def test_four_models_vote_majority_3_of_4(pipeline, tmp_path):
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    sorted(models.glob("codebook_*.json"))[0].unlink()
    out = tmp_path / "out"
    corpus = pipeline / "corpus"
    assert run("evaluate", "--data", str(corpus), "--models", str(models),
               "--out", str(out), "--seed", "11") == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["models"]) == 4
    assert report["ensemble"]["rule"] == "majority 3 of 4"
    assert "| Ensemble | majority 3 of 4 |" in (out / "report.md").read_text()

    trip = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-splice")
    assert run("detect", "--data", str(corpus), "--models", str(models),
               "--out", str(out), "--trip", str(corpus / trip["file"])) == EXIT_OK
    doc = json.loads((out / f"detection_{trip['trip_id']}.json").read_text())
    assert len(doc["models"]) == 4
    for i, window in enumerate(doc["ensemble"]):
        votes = sum(m["verdicts"][i]["is_theft"] for m in doc["models"].values())
        assert window["theft_votes"] == votes
        assert window["is_theft"] == (votes >= 3)
    assert any(w["is_theft"] for w in doc["ensemble"])


def test_detect_unknown_feature_schema_error(pipeline, tmp_path):
    trip = tmp_path / "X_weird.csv"
    trip.write_text("unknown_feature\n" + "\n".join("1.0" for _ in range(64)) + "\n")
    code = run("detect", "--data", str(pipeline / "corpus"),
               "--models", str(pipeline / "models"),
               "--out", str(tmp_path), "--trip", str(trip))
    assert code == EXIT_DATA


@given(labels=st.lists(st.booleans(), max_size=200), dlen=st.integers(1, 40))
def test_window_labels_match_per_window_majority(labels, dlen):
    labels = np.array(labels, dtype=bool)
    n = len(labels) // dlen
    expected = [labels[s : s + dlen].sum() * 2 > dlen for s in range(0, n * dlen, dlen)]
    np.testing.assert_array_equal(window_labels(labels, n, dlen), np.array(expected, dtype=bool))


def test_missing_data_dir_is_data_error(tmp_path):
    assert run("train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "m")) == EXIT_DATA


def test_zero_trips_is_config_error(tmp_path):
    assert run("synth", "--data", str(tmp_path / "c"), "--trips", "0") == EXIT_USAGE


def test_infeasible_k_exit_code(tmp_path):
    assert run("synth", "--data", str(tmp_path / "c"), "--seed", "1",
               "--trips", "1", "--duration", "64") == EXIT_OK
    # 3 segments per trip; force k above what a restricted window allows
    code = run("train", "--data", str(tmp_path / "c"), "--out", str(tmp_path / "m"),
               "--seed", "1", "--k", "40", "--window", "64", "--stride", "64")
    assert code == EXIT_INFEASIBLE


def test_config_file_and_flag_override(pipeline, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "data_dir": str(pipeline / "corpus"),
        "out_dir": str(tmp_path / "out"),
        "seed": 11,
        "k": 40,
        "restarts": 2,
    }))
    assert run("--config", str(cfg_file), "train") == EXIT_OK
    assert (tmp_path / "out" / "codebook_transmission_oil_temperature.json").exists()
    # flag overrides config key
    assert run("--config", str(cfg_file), "train", "--out", str(tmp_path / "out2")) == EXIT_OK
    assert (tmp_path / "out2").exists()


def test_unknown_config_key(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"bogus": 1}))
    assert run("--config", str(cfg_file), "ingest") == EXIT_USAGE


def test_removed_elbow_k_values_key_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"elbow_k_values": [10, 20]}))
    assert run("--config", str(cfg_file), "ingest") == EXIT_USAGE


# keys no caller set; each value was valid when the key existed
REMOVED_CONFIG_KEYS = {
    "max_iter": 100,
    "tol": 1e-6,
    "indifference_tolerance": 0.05,
    "separation_threshold": 0.5,
    "filter_name": "hann",
    "detection_window_s": 32.0,
    "val_ratio": [8, 2],
    "thresholds": {"transmission_oil_temperature": math.nan},
    "strict_k": True,
}


@pytest.mark.parametrize("key", sorted(REMOVED_CONFIG_KEYS))
def test_removed_config_keys_rejected(pipeline, tmp_path, key):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: REMOVED_CONFIG_KEYS[key]}))
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    (models / "thresholds.json").unlink()
    assert run("--config", str(cfg_file), "evaluate", "--data", str(pipeline / "corpus"),
               "--models", str(models), "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert not (models / "thresholds.json").exists()
    assert not (tmp_path / "out").exists()


def test_subcommand_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        command: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for command, p in sub.choices.items()
    }
    assert flags == {
        "synth": {"--data", "--seed", "--owner", "--sample-period", "--trips", "--duration"},
        "ingest": {"--data", "--out", "--seed"},
        "train": {"--data", "--out", "--seed", "--window", "--stride", "--k", "--restarts"},
        "evaluate": {"--data", "--out", "--models", "--seed"},
        "detect": {"--data", "--out", "--models", "--trip", "--sample-period"},
        "report": {"--out", "--report"},
    }


@pytest.mark.parametrize("command, flag", [
    ("train", ["--sample-period", "2"]),
    ("train", ["--owner", "B"]),
    ("report", ["--k", "5"]),
    ("evaluate", ["--window", "64"]),
], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"))
def test_flag_the_subcommand_does_not_read_is_usage_error(pipeline, tmp_path, command, flag):
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    (models / "thresholds.json").unlink()
    before = sorted(p.name for p in models.iterdir())
    out = str(tmp_path / "out")
    args = {
        "train": ["--data", str(pipeline / "corpus"), "--out", out, "--k", "40", "--restarts", "2"],
        "evaluate": ["--data", str(pipeline / "corpus"), "--models", str(models), "--out", out],
        "report": ["--out", out, "--report", str(pipeline / "out" / "report.json")],
    }[command]
    assert run(command, *args, *flag) == EXIT_USAGE
    assert not (tmp_path / "out").exists()
    assert sorted(p.name for p in models.iterdir()) == before


def test_two_second_corpus_end_to_end(tmp_path):
    corpus, models, out = (str(tmp_path / d) for d in ("corpus", "models", "out"))
    assert run("synth", "--data", corpus, "--seed", "5", "--sample-period", "2",
               "--trips", "3", "--duration", "240") == EXIT_OK
    assert run("ingest", "--data", corpus, "--out", models) == EXIT_OK
    assert run("train", "--data", corpus, "--out", models, "--k", "10") == EXIT_OK
    books = sorted(Path(models).glob("codebook_*.json"))
    assert books
    for path in books:
        doc = json.loads(path.read_text())
        assert (doc["sample_period_s"], doc["window_len"], doc["stride_len"]) == (2.0, 16, 8)
    assert run("evaluate", "--data", corpus, "--models", models, "--out", out) == EXIT_OK
    splice = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-splice")
    assert run("detect", "--models", models, "--out", out, "--sample-period", "2",
               "--trip", str(Path(corpus) / splice["file"])) == EXIT_OK
    doc = json.loads((Path(out) / f"detection_{splice['trip_id']}.json").read_text())
    # 120 samples make 7 detection windows of 32 s = 16 samples
    assert [w["window_start"] for w in doc["ensemble"]] == list(range(0, 7 * 16, 16))


@pytest.mark.parametrize("key", ["sample_period_s", "owner"])
@pytest.mark.parametrize("command", ["ingest", "train", "evaluate"])
def test_manifest_without_corpus_fact_is_data_error(pipeline, tmp_path, capsys, command, key):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    manifest = json.loads((corpus / "manifest.json").read_text())
    del manifest[key]
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    args = {
        "ingest": ["--out", str(tmp_path / "models")],
        "train": ["--out", str(tmp_path / "models"), "--k", "40", "--restarts", "2"],
        "evaluate": ["--models", str(pipeline / "models"), "--out", str(tmp_path / "out")],
    }[command]
    assert run(command, "--data", str(corpus), *args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and key in err
    assert not (tmp_path / "models").exists() and not (tmp_path / "out").exists()


def test_config_k_is_strict(pipeline, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"k": 1000000}))
    corpus = str(pipeline / "corpus")
    assert run("--config", str(cfg_file), "train", "--data", corpus,
               "--out", str(tmp_path / "a")) == EXIT_INFEASIBLE
    assert run("train", "--data", corpus, "--out", str(tmp_path / "b"),
               "--k", "1000000") == EXIT_INFEASIBLE
    assert not list(tmp_path.glob("*/codebook_*.json"))


def test_report_command(pipeline, tmp_path):
    assert run("report", "--out", str(tmp_path),
               "--report", str(pipeline / "out" / "report.json")) == EXIT_OK
    assert (tmp_path / "report.md").exists()
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "model,feature,threshold,accuracy,precision,recall,f1"
