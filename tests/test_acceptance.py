"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""

import itertools
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fit_codebook
from theftdetect import cli, cluster, detect, ingest, reconstruct, synth, windowing
from theftdetect.windowing import WindowConfig, hann_filter


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Default seeded corpus: 4 drivers, 1 owner, 10 training trips, 8:2 validation."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus, models, out = root / "corpus", root / "models", root / "out"
    t0 = time.perf_counter()
    assert cli.main(["synth", "--data", str(corpus), "--seed", "7"]) == 0
    assert cli.main(["train", "--data", str(corpus), "--out", str(models), "--seed", "7"]) == 0
    assert cli.main(["evaluate", "--data", str(corpus), "--models", str(models),
                     "--out", str(out), "--seed", "7"]) == 0
    elapsed = time.perf_counter() - t0
    report = json.loads((out / "report.json").read_text())
    return {"root": root, "corpus": corpus, "models": models, "out": out,
            "elapsed": elapsed, "report": report}


def test_end_to_end_synthetic_run(run):
    with criterion("end-to-end synthetic run"):
        report = run["report"]
        assert report["validation"]["owner_trips"] == 8
        assert report["validation"]["thief_trips"] == 2
        assert len(report["models"]) == 5
        precisions = []
        for feature, block in report["models"].items():
            assert block["metrics"]["accuracy"] >= 0.95, feature
            precisions.append(block["metrics"]["precision"])
        assert report["ensemble"]["metrics"]["precision"] >= max(precisions)
        assert run["elapsed"] <= 60.0


def test_default_corpus_feature_reasons(run):
    with criterion("default corpus feature selection"):
        doc = json.loads((run["models"] / "features.json").read_text())
        reasons = Counter(d["reason"] for d in doc["decisions"])
        assert reasons == {"kept": 5, "statistical-reject": 2, "missing-value": 1, "invariance": 1}
        assert all(d["kept"] == (d["reason"] == "kept") for d in doc["decisions"])
        assert sorted(doc["essential"]) == sorted(d["feature"] for d in doc["decisions"] if d["kept"])


def test_splice_localization(run):
    with criterion("splice localization"):
        corpus = run["corpus"]
        manifest = synth.load_manifest(corpus)
        entry = next(t for t in manifest["trips"] if t["role"] == "val-splice")
        sample_labels = synth.load_labels(corpus, entry["labels"])
        books = cli.load_models(run["models"])
        thresholds = json.loads((run["models"] / "thresholds.json").read_text())
        trip = ingest.parse_trip(corpus / entry["file"], 1.0,
                                 trip_id=entry["trip_id"], driver_id=entry["driver_id"])

        dlen = WindowConfig(1.0).detection_len
        theft = []
        for feature, cb in books.items():
            err = reconstruct.error_series(trip.features[feature], cb)
            inside = err[sample_labels[: len(err)]]
            outside = err[~sample_labels[: len(err)]]
            assert inside.mean() >= 3.0 * outside.mean(), feature
            theft.append(detect.windows_verdicts(err, dlen) > thresholds[feature])

        _, ens = detect.ensemble_vote(np.array(theft))
        labels = detect.windows_verdicts(sample_labels, dlen)[: len(theft[0])] > 0.5
        flagged = labels[ens]
        assert flagged.size, "no theft windows flagged at all"
        assert flagged.mean() >= 0.8


def test_kmeans_properties_1000_segments():
    with criterion("k-means properties on 1,000 random segments"):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1000, 16))
        init = x[rng.choice(1000, 12, replace=False)]
        centroids, labels, _, _, trace = cluster.lloyd(
            x, init, *cluster._assign_all(x, init), max_iter=200, tol=0.0
        )
        assert all(a >= b for a, b in zip(trace, trace[1:])), "SSE increased"
        for i in range(1000):
            d2 = ((centroids - x[i]) ** 2).sum(axis=1)
            assert labels[i] == int(np.argmin(d2))
        for j in range(12):
            members = x[labels == j]
            if len(members):
                assert np.max(np.abs(centroids[j] - members.mean(axis=0))) <= 1e-9

        _, sse, _ = cluster.kmeans_fit(x, 1000, seed=0, restarts=1)
        assert sse <= 1e-18


def test_elbow_recovery():
    with criterion("elbow recovery"):
        successes = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            centers = np.array([[0.0] * 8, [10.0] * 8, [-8.0] * 8])
            x = np.array([c + rng.normal(0, 0.5, 8) for c in centers for _ in range(30)])
            curve = cluster.elbow_sweep(x, list(range(1, 9)), seed=seed, restarts=3)
            successes += curve.recommended_k == 3
        assert successes >= 9, f"only {successes}/10 seeds recovered k=3"


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(32, 400),
    window=st.integers(2, 48),
    stride_frac=st.floats(0.01, 1.0),
)
def test_windowing_count_property(length, window, stride_frac):
    stride = max(1, int(window * stride_frac))
    cfg = WindowConfig(sample_period_s=1.0, window_s=float(window), stride_s=float(stride))
    if length < window:
        return
    windows = windowing.slide(np.zeros(length), cfg)
    assert windows.shape == ((length - window) // stride + 1, window)


def test_windowing_arithmetic_summary():
    with criterion("windowing arithmetic"):
        # randomized count property runs above; endpoints and symmetry here
        for n in (2, 3, 16, 32, 33, 100):
            w = hann_filter(n)
            assert w[0] == 0.0 and w[n - 1] == 0.0
            assert np.max(np.abs(w - w[::-1])) < 1e-12


def test_reconstruction_identity(run):
    with criterion("reconstruction identity"):
        corpus = run["corpus"]
        manifest = synth.load_manifest(corpus)
        train_entries = [t for t in manifest["trips"] if t["role"] == "train"][:3]
        trips = [
            ingest.parse_trip(corpus / e["file"], 1.0, trip_id=e["trip_id"],
                              driver_id=e["driver_id"])
            for e in train_entries
        ]
        cfg = WindowConfig(sample_period_s=1.0)
        feature = "transmission_oil_temperature"
        x = np.concatenate([windowing.slide_highlighted(t.features[feature], cfg) for t in trips])
        cb = fit_codebook(x, len(x), cfg, restarts=1, feature=feature)
        for t in trips:
            assert reconstruct.error_series(t.features[feature], cb).max() <= 1e-9


def test_detection_properties():
    with criterion("detection properties"):
        rng = np.random.default_rng(1)
        dlen = WindowConfig(1.0).detection_len
        for _ in range(50):
            errs = rng.uniform(0, 10, size=96)
            t_lo, t_hi = sorted(rng.uniform(0, 10, size=2))
            means = detect.windows_verdicts(errs, dlen)
            assert (means > t_hi).sum() <= (means > t_lo).sum()

        (mean,) = detect.windows_verdicts(np.full(32, 4.25), dlen)
        assert not mean > 4.25

        patterns = np.array(list(itertools.product([False, True], repeat=5)))
        _, theft = detect.ensemble_vote(patterns.T)
        np.testing.assert_array_equal(theft, patterns.sum(axis=1) >= 3)


def test_roc_and_metrics_oracles():
    with criterion("ROC/metrics oracles"):
        rng = np.random.default_rng(2)
        labeled = [(float(rng.uniform(0, 10)), bool(rng.integers(2))) for _ in range(50)]
        labeled[0] = (labeled[0][0], True)
        labeled[1] = (labeled[1][0], False)
        errs = np.array([e for e, _ in labeled])
        labels = np.array([lab for _, lab in labeled])
        curve = detect.roc_sweep(errs, labels, detect.threshold_grid(errs))
        pos = sum(1 for _, lab in labeled if lab)
        neg = len(labeled) - pos
        for thr, tpr, fpr in zip(curve.thresholds, curve.tpr, curve.fpr):
            tp = sum(1 for e, lab in labeled if lab and e > thr)
            fp = sum(1 for e, lab in labeled if not lab and e > thr)
            assert tpr == tp / pos
            assert fpr == fp / neg

        perfect = np.concatenate([np.arange(20.0), np.arange(20.0) + 40])
        perfect_labels = np.arange(40) >= 20
        pcurve = detect.roc_sweep(perfect, perfect_labels, detect.threshold_grid(perfect))
        assert abs(pcurve.auc - 1.0) <= 1e-12

        preds = np.array([bool(v) for v in rng.integers(2, size=200)])
        labels = np.array([bool(v) for v in rng.integers(2, size=200)])
        m = detect.compute_metrics(preds, labels)
        assert m["accuracy"] == (m["tp"] + m["tn"]) / 200
        if m["precision"] + m["recall"] > 0:
            assert m["f1"] == 2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])


def test_determinism_byte_identical(run, tmp_path):
    with criterion("determinism"):
        corpus2 = tmp_path / "corpus"
        models2 = tmp_path / "models"
        out2 = tmp_path / "out"
        assert cli.main(["synth", "--data", str(corpus2), "--seed", "7"]) == 0
        assert cli.main(["train", "--data", str(corpus2), "--out", str(models2),
                         "--seed", "7"]) == 0
        assert cli.main(["evaluate", "--data", str(corpus2), "--models", str(models2),
                         "--out", str(out2), "--seed", "7"]) == 0
        for path in sorted(run["models"].glob("codebook_*.json")):
            assert path.read_bytes() == (models2 / path.name).read_bytes(), path.name
        assert (run["out"] / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
