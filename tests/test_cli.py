import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from theftdetect.cli import (
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from theftdetect.cluster import load_codebook
from theftdetect.detect import windows_verdicts
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
    # 240 s trips make (240 - 32) // 16 + 1 = 14 windows each
    segments = 14 * len(train_ids)
    for path in (pipeline / "models").glob("codebook_*.json"):
        doc = json.loads(path.read_text())
        meta = doc["training_meta"]
        assert set(meta["trip_ids"]) == train_ids
        assert meta["segment_count"] == segments
        assert meta["iterations"] >= 1
        assert doc["seed"] == 11


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


@pytest.mark.parametrize("value", ["1e308", "-1e308"])
@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_overflowing_sample_when_scoring_is_data_error(pipeline, tmp_path, capsys, command, value):
    """A finite sample too large to square its distance to the centroids exits 2
    naming the trip and the feature, with no numpy warning and no output written."""
    corpus, models, out = tmp_path / "corpus", tmp_path / "models", tmp_path / "out"
    shutil.copytree(pipeline / "corpus", corpus)
    shutil.copytree(pipeline / "models", models)
    feature = json.loads((models / "features.json").read_text())["essential"][0]
    entry = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-owner")
    with open(corpus / entry["file"], newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows[100][header.index(feature)] = value  # mid-window in two windows: hann weighs it
    with open(corpus / entry["file"], "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    thresholds = (models / "thresholds.json").read_bytes()
    if command == "detect":
        args = ["detect", "--models", str(models), "--out", str(out), "--trip", str(corpus / entry["file"])]
    else:
        args = ["evaluate", "--data", str(corpus), "--models", str(models), "--out", str(out)]
    assert run(*args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: trip {entry['trip_id']} feature {feature!r}: ")
    assert "too wide a range for squared distances" in err
    assert not out.exists()
    assert (models / "thresholds.json").read_bytes() == thresholds


def test_detect_mixed_window_configs_is_data_error(pipeline, tmp_path):
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    path = sorted(models.glob("codebook_*.json"))[0]
    doc = json.loads(path.read_text())
    doc["stride_s"], doc["stride_len"] = 8.0, 8
    path.write_text(json.dumps(doc))
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    assert run("detect", "--data", str(pipeline / "corpus"), "--models", str(models),
               "--out", str(tmp_path / "out"),
               "--trip", str(pipeline / "corpus" / trip["file"])) == EXIT_DATA


def test_detect_sample_period_mismatch_is_data_error(pipeline, tmp_path, capsys):
    corpus = pipeline / "corpus"
    trip = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-owner")
    out = tmp_path / "out"
    # detect parses its trip at the codebooks' period (1 s), so a timestamp column
    # stepping by 2 s is rejected and one stepping by 1 s is accepted
    header, *rows = list(csv.reader((corpus / trip["file"]).read_text().splitlines()))
    for step in (2, 1):
        stamped = tmp_path / f"step{step}" / "A_stamped.csv"
        stamped.parent.mkdir()
        with open(stamped, "w", newline="") as fh:
            csv.writer(fh).writerows([["timestamp", *header]]
                                     + [[str(i * step), *row] for i, row in enumerate(rows)])
        args = ("detect", "--models", str(pipeline / "models"), "--out", str(out / f"step{step}"),
                "--trip", str(stamped))
        assert run(*args) == (EXIT_DATA if step == 2 else EXIT_OK)
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {tmp_path / 'step2' / 'A_stamped.csv'}: timestamp column")
    assert not (out / "step2").exists()
    assert (out / "step1" / "detection_A_stamped.json").exists()

    # evaluate reads the corpus period from its manifest
    shutil.copytree(corpus, tmp_path / "corpus")
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    manifest["sample_period_s"] = 2.0
    (tmp_path / "corpus" / "manifest.json").write_text(json.dumps(manifest))
    assert run("evaluate", "--data", str(tmp_path / "corpus"), "--models", str(pipeline / "models"),
               "--out", str(out)) == EXIT_DATA
    assert not (out / "report.json").exists()


def test_four_models_vote_majority_3_of_4(pipeline, tmp_path):
    """features.json names the models: a codebook it does not name is left out of the vote."""
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    doc = json.loads((models / "features.json").read_text())
    stale = sorted(models.glob("codebook_*.json"))[0].stem.removeprefix("codebook_")
    doc["essential"].remove(stale)
    (models / "features.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    corpus = pipeline / "corpus"
    assert run("evaluate", "--data", str(corpus), "--models", str(models),
               "--out", str(out), "--seed", "11") == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["models"]) == 4 and stale not in report["models"]
    assert report["ensemble"]["rule"] == "majority 3 of 4"
    assert "| Ensemble | majority 3 of 4 |" in (out / "report.md").read_text()

    trip = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-splice")
    assert run("detect", "--data", str(corpus), "--models", str(models),
               "--out", str(out), "--trip", str(corpus / trip["file"])) == EXIT_OK
    doc = json.loads((out / f"detection_{trip['trip_id']}.json").read_text())
    assert len(doc["models"]) == 4 and stale not in doc["models"]
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


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 240), order=st.permutations(range(9)))
@example(rows=31, order=list(range(9))).via("one row short of a window")
@example(rows=32, order=list(range(9))[::-1]).via("exactly one window")
def test_detect_short_or_permuted_trip(pipeline, rows, order):
    """Fewer rows than a window exit 2 without a report; permuted columns do not change it."""
    models = pipeline / "models"
    window_len = json.loads(next(models.glob("codebook_*.json")).read_text())["window_len"]
    entry = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-splice")
    with open(pipeline / "corpus" / entry["file"], newline="") as fh:
        table = [row for row in csv.reader(fh)][: rows + 1]
    with tempfile.TemporaryDirectory() as tmp:
        codes, reports = [], []
        for name, columns in (("plain", range(9)), ("permuted", order)):
            trip = Path(tmp) / name / "A_trip.csv"
            trip.parent.mkdir()
            with open(trip, "w", newline="") as fh:
                csv.writer(fh).writerows([[row[c] for c in columns] for row in table])
            out = Path(tmp) / name / "out"
            codes.append(run("detect", "--models", str(models), "--out", str(out), "--trip", str(trip)))
            reports.append(sorted(out.glob("detection_*.json")))
        if rows < window_len:
            assert codes == [EXIT_DATA, EXIT_DATA] and reports == [[], []]
        else:
            assert codes == [EXIT_OK, EXIT_OK]
            assert reports[0][0].read_bytes() == reports[1][0].read_bytes()


@given(labels=st.lists(st.booleans(), min_size=1, max_size=200), dlen=st.integers(1, 40))
def test_window_labels_match_per_window_majority(labels, dlen):
    """evaluate's window label, a mean of 0/1 sample labels > 0.5, is a strict majority."""
    assume(dlen <= len(labels))
    labels = np.array(labels, dtype=bool)
    expected = []
    for s in range(0, len(labels) - dlen + 1, dlen):
        theft = sum(1 for value in labels[s : s + dlen] if value)
        expected.append(theft > dlen - theft)
    np.testing.assert_array_equal(windows_verdicts(labels, dlen) > 0.5, np.array(expected, dtype=bool))


def test_missing_data_dir_is_data_error(tmp_path):
    assert run("train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "m")) == EXIT_DATA


def test_zero_trips_is_config_error(tmp_path):
    assert run("synth", "--data", str(tmp_path / "c"), "--trips", "0") == EXIT_USAGE


@pytest.mark.parametrize("flags, message", [
    (["--owner", "Z"], "unknown owner 'Z'"),
    (["--duration", "34.4"], "splice [26, 35) exceeds trip length 34"),
    (["--duration", "20"], "duration 20.0s shorter than one window"),
], ids=["unknown-owner", "splice-past-end", "shorter-than-window"])
def test_synth_rejects_before_writing(tmp_path, capsys, flags, message):
    assert run("synth", "--data", str(tmp_path / "c"), *flags) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err
    assert not (tmp_path / "c").exists()


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


@pytest.mark.parametrize("doc", [
    {"k": "5"},
    ["k"],
    {"seed": 1.5},
    {"window_s": True},
    {"owner": 3},
], ids=["k-string", "list", "seed-float", "window-bool", "owner-int"])
def test_config_value_of_wrong_type_is_config_error(pipeline, tmp_path, capsys, doc):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("--config", str(cfg_file), "train", "--data", str(pipeline / "corpus"),
               "--out", str(out), "--k", "10", "--restarts", "1") == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_config_value_types_accepted(pipeline, tmp_path):
    # an int is fine for a float key, and k may be null
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"window_s": 32, "k": None, "restarts": 1}))
    assert run("--config", str(cfg_file), "train", "--data", str(pipeline / "corpus"),
               "--out", str(tmp_path / "out")) == EXIT_OK


@pytest.mark.parametrize("command, flags, doc", [
    ("train", ["--restarts", "0"], None),
    ("train", [], {"restarts": -1}),
    ("synth", ["--sample-period", "0"], None),
    ("train", [], {"window_s": math.nan}),
    ("train", ["--window", "nan"], None),
    ("train", ["--stride", "-1"], None),
    ("synth", ["--duration", "nan"], None),
    ("synth", ["--trips", "0"], None),
    ("detect", [], {"sample_period_s": 0}),
    ("synth", ["--seed", "-1"], None),
    ("train", ["--seed", "-1"], None),
], ids=["restarts-0", "config-restarts", "synth-period-0", "config-window-nan", "window-nan",
        "stride-negative", "duration-nan", "trips-0", "detect-period-0", "synth-seed-negative",
        "train-seed-negative"])
def test_bad_numeric_setting_is_config_error(pipeline, tmp_path, capsys, command, flags, doc):
    out = tmp_path / "out"
    config = []
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        config = ["--config", str(tmp_path / "cfg.json")]
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    args = {
        "synth": ["--data", str(out)],
        "train": ["--data", str(pipeline / "corpus"), "--out", str(out), "--k", "10"],
        "detect": ["--models", str(pipeline / "models"), "--out", str(out),
                   "--trip", str(pipeline / "corpus" / trip["file"])],
    }[command]
    assert run(*config, command, *args, *flags) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.pop("sse"),
    lambda doc: doc.pop("window_len"),
    lambda doc: doc.pop("training_meta"),
    lambda doc: doc.update(k=float(doc["k"])),
    lambda doc: doc["centroids"][0].__setitem__(3, math.nan),
    lambda doc: doc.update(sse=math.nan),
    lambda doc: doc.update(sse=math.inf),
    lambda doc: doc.update(filter_name="triangular"),
    lambda doc: doc.update(sample_period_s=True),
    lambda doc: doc.update(window_s="32"),
    lambda doc: doc.update(stride_s=None),
    lambda doc: doc.update(window_s=10 ** 400),
    lambda doc: doc.update(window_len=float(doc["window_len"])),
    lambda doc: doc.update(stride_len=True),
    lambda doc: doc.update(seed=-1),
    lambda doc: doc.update(seed=7.0),
    lambda doc: doc["training_meta"].update(segment_count="many"),
    lambda doc: doc["training_meta"].update(iterations=-3),
], ids=["no-sse", "no-window-len", "no-training-meta", "k-float", "centroid-nan", "sse-nan",
        "sse-inf", "filter-triangular", "period-bool", "window-string", "stride-null",
        "window-huge-int", "window-len-float", "stride-len-bool", "seed-negative", "seed-float",
        "segment-count-string", "iterations-negative"])
def test_malformed_codebook_is_data_error(pipeline, tmp_path, capsys, corrupt):
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    # every book alike, so load_models' mixed-config check cannot catch it instead
    for path in models.glob("codebook_*.json"):
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    out = tmp_path / "out"
    assert run("detect", "--models", str(models), "--out", str(out),
               "--trip", str(pipeline / "corpus" / trip["file"])) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_thresholds_file_not_an_object_is_config_error(pipeline, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(pipeline / "models", models)
    (models / "thresholds.json").write_text(json.dumps([1.0, 2.0]))
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    out = tmp_path / "out"
    assert run("detect", "--models", str(models), "--out", str(out),
               "--trip", str(pipeline / "corpus" / trip["file"])) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("essential", [
    ["no_such_feature"],
    ["transmission_oil_temperature", "no_such_feature"],
    [],
    "transmission_oil_temperature",
    [3],
    None,
], ids=["unknown", "one-unknown", "empty", "string", "number", "absent"])
def test_stale_features_file_is_data_error(pipeline, tmp_path, capsys, essential):
    models = tmp_path / "models"
    models.mkdir()
    doc = {"decisions": []} if essential is None else {"essential": essential, "decisions": []}
    (models / "features.json").write_text(json.dumps(doc))
    assert run("train", "--data", str(pipeline / "corpus"), "--out", str(models),
               "--k", "10", "--restarts", "1") == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")
    assert not list(models.glob("codebook_*.json"))


@pytest.mark.parametrize("target", ["codebook", "manifest", "features"])
def test_corrupt_json_data_file_is_data_error(pipeline, tmp_path, capsys, target):
    corpus, models, out = tmp_path / "corpus", tmp_path / "models", tmp_path / "out"
    shutil.copytree(pipeline / "corpus", corpus)
    shutil.copytree(pipeline / "models", models)
    trip = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-owner")
    path, args = {
        "codebook": (sorted(models.glob("codebook_*.json"))[0],
                     ["detect", "--models", str(models), "--out", str(out),
                      "--trip", str(corpus / trip["file"])]),
        "manifest": (corpus / "manifest.json",
                     ["evaluate", "--data", str(corpus), "--models", str(models), "--out", str(out)]),
        "features": (models / "features.json",
                     ["train", "--data", str(corpus), "--out", str(models), "--k", "40"]),
    }[target]
    path.write_bytes(path.read_bytes()[:200])
    before = {p.name: p.read_bytes() for p in models.iterdir()}
    assert run(*args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{path} is not valid JSON" in err
    assert not out.exists()
    assert {p.name: p.read_bytes() for p in models.iterdir()} == before


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:5] + ["x"] + lines[6:],
    lambda lines: lines[:5] + ["7"] + lines[6:],
    lambda lines: lines[:2],
    lambda lines: lines + ["0"],
], ids=["non-numeric", "seven", "one-row", "extra-row"])
def test_corrupt_label_file_is_data_error(pipeline, tmp_path, capsys, corrupt):
    corpus, models, out = tmp_path / "corpus", tmp_path / "models", tmp_path / "out"
    shutil.copytree(pipeline / "corpus", corpus)
    shutil.copytree(pipeline / "models", models)
    entry = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-owner")
    path = corpus / entry["labels"]
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    assert run("evaluate", "--data", str(corpus), "--models", str(models), "--out", str(out)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("corrupt", [
    lambda entry: entry.pop("labels"),
    lambda entry: entry.pop("role"),
    lambda entry: entry.update(file=3),
    lambda entry: entry.clear() or entry.update(trip="x"),
], ids=["no-labels", "no-role", "file-number", "no-keys"])
def test_manifest_trip_entry_is_checked(pipeline, tmp_path, capsys, corrupt):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    shutil.copytree(pipeline / "corpus", corpus)
    manifest = json.loads((corpus / "manifest.json").read_text())
    index = next(i for i, t in enumerate(manifest["trips"]) if t["role"] == "val-owner")
    corrupt(manifest["trips"][index])
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    assert run("evaluate", "--data", str(corpus), "--models", str(pipeline / "models"),
               "--out", str(out)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{corpus / 'manifest.json'}: trips[{index}]" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "train"])
def test_selection_reads_no_validation_trip(pipeline, tmp_path, command):
    """An empty cell in a thief's validation trip leaves every selection decision as it was."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline / "corpus", corpus)
    entry = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-thief")
    path = corpus / entry["file"]
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[5][rows[0].index("transmission_oil_temperature")] = ""
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    flags = ["--k", "10", "--restarts", "1"] if command == "train" else []
    for data, models in ((pipeline / "corpus", tmp_path / "clean"), (corpus, tmp_path / "blank")):
        assert run(command, "--data", str(data), "--out", str(models), *flags) == EXIT_OK
    doc = json.loads((tmp_path / "blank" / "features.json").read_text())
    assert "transmission_oil_temperature" in doc["essential"]
    assert (tmp_path / "blank" / "features.json").read_bytes() == (
        tmp_path / "clean" / "features.json").read_bytes()


@pytest.mark.parametrize("case", [
    "report-not-a-report", "report-not-json", "report-not-utf8", "report-too-deep", "report-missing",
    "config-not-utf8", "config-missing", "thresholds-not-utf8",
])
def test_json_reader_fails_closed(pipeline, tmp_path, capsys, case):
    """Each JSON file the CLI reads maps its own failures: a --config or thresholds.json
    to a config error (exit 1), a --report to a data error (exit 2) naming the file."""
    models, out, bad = tmp_path / "models", tmp_path / "out", tmp_path / "bad.json"
    shutil.copytree(pipeline / "models", models)
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    detect = ["detect", "--models", str(models), "--out", str(out),
              "--trip", str(pipeline / "corpus" / trip["file"])]
    kind, problem = case.split("-", 1)
    if problem != "missing":
        bad.write_bytes({"not-a-report": (models / "features.json").read_bytes(),
                         "not-json": b"{\"models\": ",
                         "not-utf8": b"{\"k\": \"\xff\"}",
                         "too-deep": b"[" * 100_000}[problem])
    if kind == "thresholds":
        shutil.copy(bad, models / "thresholds.json")
        bad, args, code = models / "thresholds.json", detect, EXIT_USAGE
    elif kind == "config":
        args, code = ["--config", str(bad), *detect], EXIT_USAGE
    else:
        args, code = ["report", "--out", str(out), "--report", str(bad)], EXIT_DATA
    assert run(*args) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == EXIT_USAGE else "data error:")
    assert str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("case", [
    "trip-directory", "trip-not-utf8", "trip-missing", "labels-not-utf8", "labels-directory",
])
def test_unreadable_input_file_is_data_error(pipeline, tmp_path, capsys, case):
    """A trip or label file that cannot be read or is not UTF-8 exits 2 naming it,
    and nothing is written."""
    corpus, models, out = tmp_path / "corpus", tmp_path / "models", tmp_path / "out"
    shutil.copytree(pipeline / "corpus", corpus)
    shutil.copytree(pipeline / "models", models)
    entry = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-owner")
    kind, problem = case.split("-", 1)
    path = corpus / entry["file" if kind == "trip" else "labels"]
    if problem == "not-utf8":
        path.write_bytes(path.read_bytes() + b"\xff\n")
    else:
        path.unlink()
        if problem == "directory":
            path.mkdir()
    before = {p.name: p.read_bytes() for p in models.iterdir()}
    args = (["detect", "--models", str(models), "--out", str(out), "--trip", str(path)] if kind == "trip"
            else ["evaluate", "--data", str(corpus), "--models", str(models), "--out", str(out)])
    assert run(*args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err
    assert not out.exists()
    assert {p.name: p.read_bytes() for p in models.iterdir()} == before


@pytest.mark.parametrize("corrupt", [
    lambda doc, other: other,
    lambda doc, other: {**doc, "feature": [doc["feature"]]},
    lambda doc, other: {**doc, "training_meta": {**doc["training_meta"], "trip_ids": 3}},
], ids=["other-model-copied-over", "feature-list", "trip-ids-int"])
def test_codebook_must_match_its_file_name(pipeline, tmp_path, capsys, corrupt):
    """A codebook whose feature is not the one its file is named after, or whose trip
    ids are not strings, exits 2 naming the file instead of dropping or crashing a model."""
    models, out = tmp_path / "models", tmp_path / "out"
    shutil.copytree(pipeline / "models", models)
    other, path = sorted(models.glob("codebook_*.json"))[:2]
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()), json.loads(other.read_text()))))
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    assert run("detect", "--models", str(models), "--out", str(out),
               "--trip", str(pipeline / "corpus" / trip["file"])) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err
    assert not out.exists()


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
        "detect": {"--data", "--out", "--models", "--trip"},
        "report": {"--out", "--report"},
    }


@pytest.mark.parametrize("command, flag", [
    ("train", ["--sample-period", "2"]),
    ("detect", ["--sample-period", "2"]),
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
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    args = {
        "train": ["--data", str(pipeline / "corpus"), "--out", out, "--k", "40", "--restarts", "2"],
        "detect": ["--models", str(pipeline / "models"), "--out", out,
                   "--trip", str(pipeline / "corpus" / trip["file"])],
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
    assert run("detect", "--models", models, "--out", out,
               "--trip", str(Path(corpus) / splice["file"])) == EXIT_OK
    doc = json.loads((Path(out) / f"detection_{splice['trip_id']}.json").read_text())
    # 120 samples make 7 detection windows of 32 s = 16 samples
    assert [w["window_start"] for w in doc["ensemble"]] == list(range(0, 7 * 16, 16))


def test_report_seed_is_the_codebooks_seed(pipeline, tmp_path):
    corpus, models = str(pipeline / "corpus"), str(tmp_path / "models")
    assert run("train", "--data", corpus, "--out", models, "--seed", "3", "--k", "10",
               "--restarts", "1") == EXIT_OK
    for seed_flag in ([], ["--seed", "99"]):
        out = tmp_path / f"out{len(seed_flag)}"
        assert run("evaluate", "--data", corpus, "--models", models, "--out", str(out),
                   *seed_flag) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["seed"] == 3


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_codebooks_disagreeing_on_seed_is_data_error(pipeline, tmp_path, capsys, command):
    models, out = tmp_path / "models", tmp_path / "out"
    shutil.copytree(pipeline / "models", models)
    path = sorted(models.glob("codebook_*.json"))[-1]
    path.write_text(json.dumps({**json.loads(path.read_text()), "seed": 12}))
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    args = {"detect": ["--trip", str(pipeline / "corpus" / trip["file"])],
            "evaluate": ["--data", str(pipeline / "corpus")]}[command]
    assert run(command, "--models", str(models), "--out", str(out), *args) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: codebooks in {models} disagree on their window config or seed\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_models_dir_without_features_file_is_data_error(pipeline, tmp_path, capsys, command):
    models, out = tmp_path / "models", tmp_path / "out"
    shutil.copytree(pipeline / "models", models)
    (models / "features.json").unlink()
    trip = next(t for t in load_manifest(pipeline / "corpus")["trips"] if t["role"] == "val-owner")
    args = {"detect": ["--trip", str(pipeline / "corpus" / trip["file"])],
            "evaluate": ["--data", str(pipeline / "corpus")]}[command]
    assert run(command, "--models", str(models), "--out", str(out), *args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {models / 'features.json'}")
    assert not out.exists()


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


@pytest.mark.parametrize("case", [
    "ingest-out-file", "train-out-file", "evaluate-out-file", "detect-out-file", "report-out-file",
    "synth-data-file", "thresholds-directory", "report-md-directory",
])
def test_unwritable_output_is_data_error(pipeline, tmp_path, capsys, case):
    """An output that cannot be written, because a file stands where its directory
    should be or a directory where the file should be, exits 2 naming it."""
    models, taken = tmp_path / "models", tmp_path / "taken"
    shutil.copytree(pipeline / "models", models)
    taken.write_text("not a directory\n")
    corpus, report = str(pipeline / "corpus"), str(pipeline / "out" / "report.json")
    trip = next(t for t in load_manifest(corpus)["trips"] if t["role"] == "val-owner")
    command, target = case.split("-", 1)
    args = {
        "ingest": ["ingest", "--data", corpus, "--out", str(taken)],
        "train": ["train", "--data", corpus, "--out", str(taken), "--k", "3", "--restarts", "1"],
        "evaluate": ["evaluate", "--data", corpus, "--models", str(models), "--out", str(taken)],
        "detect": ["detect", "--models", str(models), "--out", str(taken),
                   "--trip", str(pipeline / "corpus" / trip["file"])],
        "report": ["report", "--out", str(taken), "--report", report],
        "synth": ["synth", "--data", str(taken), "--trips", "1", "--duration", "64"],
        "thresholds": ["evaluate", "--data", corpus, "--models", str(models),
                       "--out", str(tmp_path / "out")],
    }[command]
    if command == "thresholds":
        (models / "thresholds.json").unlink()
        (models / "thresholds.json").mkdir()
    elif target == "md-directory":
        (tmp_path / "out" / "report.md").mkdir(parents=True)
        args = ["report", "--out", str(tmp_path / "out"), "--report", report]
    assert run(*args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot write ") and "Traceback" not in err
    named = {"thresholds": models / "thresholds.json", "report": tmp_path / "out" / "report.md"}
    assert str(named[command] if target.endswith("directory") else taken) in err
    if command == "thresholds":  # written first: no report is left whose thresholds were not saved
        assert not (tmp_path / "out" / "report.json").exists()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Two 120 s owner training trips per driver and their features.json."""
    root = tmp_path_factory.mktemp("small")
    assert run("synth", "--data", str(root / "corpus"), "--seed", "5",
               "--trips", "2", "--duration", "120") == EXIT_OK
    assert run("ingest", "--data", str(root / "corpus"), "--out", str(root / "models")) == EXIT_OK
    return root


@settings(max_examples=30, deadline=None)
@given(
    feature_pick=st.integers(0, 4),
    trip_pick=st.integers(0, 1),
    row_pick=st.floats(0.0, 1.0, exclude_max=True),
    value=st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308"]),
    with_features=st.booleans(),
)
@example(feature_pick=0, trip_pick=0, row_pick=0.5, value="inf", with_features=False)
@example(feature_pick=0, trip_pick=0, row_pick=0.5, value="1e308", with_features=True)
@example(feature_pick=0, trip_pick=0, row_pick=0.5, value="nan", with_features=True)
def test_train_non_finite_or_overflowing_sample_fails_closed(
    small_corpus, feature_pick, trip_pick, row_pick, value, with_features
):
    """A NaN, infinite or huge cell in an essential feature of an owner training trip
    makes train exit 2 naming the feature, or exit 0 without a corrupt codebook."""
    essential = json.loads((small_corpus / "models" / "features.json").read_text())["essential"]
    feature = essential[feature_pick % len(essential)]
    with tempfile.TemporaryDirectory() as tmp:
        corpus, models = Path(tmp) / "corpus", Path(tmp) / "models"
        shutil.copytree(small_corpus / "corpus", corpus)
        if with_features:
            shutil.copytree(small_corpus / "models", models)
        entry = [t for t in load_manifest(corpus)["trips"] if t["role"] == "train"][trip_pick]
        with open(corpus / entry["file"], newline="") as fh:
            header, *rows = list(csv.reader(fh))
        rows[int(row_pick * len(rows))][header.index(feature)] = value
        with open(corpus / entry["file"], "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = run("train", "--data", str(corpus), "--out", str(models), "--k", "3", "--restarts", "1")
        err = err.getvalue()
        assert code in (EXIT_OK, EXIT_DATA)
        if code == EXIT_DATA:
            assert err.startswith("data error:") and repr(feature) in err
        else:
            book = models / f"codebook_{feature}.json"
            if book.exists():  # a huge cell no window weighs: at a hann end or past the last window
                assert value in ("1e308", "-1e308")
                load_codebook(book)  # finite centroids and sse
