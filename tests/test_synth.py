import hashlib
from pathlib import Path

import numpy as np
import pytest

from theftdetect import DataError
from theftdetect.ingest import TripLog, driver_stats
from theftdetect.synth import (
    CorpusConfig,
    ar_sine,
    generate_trip,
    load_labels,
    load_manifest,
    splice_theft,
    write_corpus,
)


def series(seed=0, n=600, base=0.0, ar_coeff=0.0, noise_scale=1.0, **kwargs):
    return ar_sine(np.random.default_rng(seed), np.arange(n, dtype=float), base, ar_coeff,
                   noise_scale, **kwargs)


def test_degenerate_generator_constant_at_base():
    np.testing.assert_allclose(series(base=42.0, noise_scale=1e-300, n=100), 42.0, atol=1e-12)


def test_generation_deterministic():
    kwargs = dict(n=200, base=10.0, ar_coeff=0.8, noise_scale=2.0, amplitude=3.0)
    a, b, c = series(5, **kwargs), series(5, **kwargs), series(6, **kwargs)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    first, again, other = (generate_trip("A", 200.0, 1.0, seed, "A_t").features for seed in (5, 5, 6))
    for name, values in first.items():
        np.testing.assert_array_equal(values, again[name])
    assert not np.array_equal(first["back_left_wheel_speed"], other["back_left_wheel_speed"])


def test_duration_shorter_than_window(tmp_path):
    with pytest.raises(DataError, match="shorter than one window"):
        write_corpus(tmp_path / "c", CorpusConfig(duration_s=10.0))
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("field, value, least", [
    ("owner_train_trips", 0, 1),
    ("owner_val_trips", -1, 0),
    ("thief_val_trips", -1, 0),
    ("non_owner_trips", -2, 0),
    ("splice_trips", -1, 0),
])
def test_negative_trip_count_is_rejected(tmp_path, field, value, least):
    with pytest.raises(DataError, match=f"^{field} must be at least {least}, got {value}$"):
        write_corpus(tmp_path / "c", CorpusConfig(**{field: value}))
    assert not (tmp_path / "c").exists()


def test_zero_optional_trip_counts_are_accepted(tmp_path):
    cfg = CorpusConfig(duration_s=64.0, owner_train_trips=1, owner_val_trips=0, thief_val_trips=0,
                       non_owner_trips=0, splice_trips=0)
    assert [t["role"] for t in write_corpus(tmp_path / "c", cfg)["trips"]] == ["train"]


def test_separated_bases_separate_catalog_means():
    # bases 5+ noise scales apart must yield per-driver means 4+ pooled stds apart
    (mean_a, std_a), (mean_b, std_b) = (
        driver_stats(np.concatenate([series(seed0 + i, base=base, ar_coeff=0.3) for i in range(3)]))[:2]
        for seed0, base in ((0, 0.0), (10, 8.0))
    )
    assert abs(mean_a - mean_b) >= 4 * max(std_a, std_b)


def two_trips(n=600):
    victim = TripLog("A_t1", "A", 1.0, {"f": series(1, n, base=0.0, noise_scale=0.5)})
    donor = TripLog("B_t2", "B", 1.0, {"f": series(2, n, base=30.0, noise_scale=0.5)})
    return victim, donor


def test_splice_zero_length():
    victim, donor = two_trips()
    spliced, labels = splice_theft(victim, donor, 300, 0)
    np.testing.assert_array_equal(spliced.features["f"], victim.features["f"])
    assert not labels.any()


def test_splice_whole_trip():
    victim, donor = two_trips()
    spliced, labels = splice_theft(victim, donor, 0, 600)
    np.testing.assert_array_equal(spliced.features["f"], donor.features["f"])
    assert labels.all()


def test_splice_final_160s():
    victim, donor = two_trips()
    spliced, labels = splice_theft(victim, donor, 440, 160)
    assert spliced.trip_id == "A_t1_spliced" and spliced.driver_id == "A"
    assert labels.sum() == 160
    assert labels[440:].all()
    assert not labels[:440].any()
    np.testing.assert_array_equal(spliced.features["f"][:440], victim.features["f"][:440])
    np.testing.assert_array_equal(spliced.features["f"][440:], donor.features["f"][440:])


def test_splice_out_of_range():
    victim, donor = two_trips()
    with pytest.raises(DataError, match=r"splice \[540, 740\) exceeds trip length 600"):
        splice_theft(victim, donor, 540, 200)
    with pytest.raises(DataError, match="exceeds trip length 400"):
        splice_theft(victim, two_trips(400)[1], 300, 200)


def test_default_profiles_exercise_selection_rules():
    for driver in "ABCD":
        features = generate_trip(driver, 120.0, 1.0, 1, f"{driver}_t").features
        zero = [name for name, v in features.items() if not v.any()]
        missing = [name for name, v in features.items() if np.isnan(v).all()]
        signal = [name for name, v in features.items() if np.isfinite(v).all() and v.std() > 0]
        assert len(zero) == 1 and len(missing) == 1 and len(signal) == 7


def _dir_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_corpus_regeneration_bit_identical(tmp_path):
    cfg = CorpusConfig(seed=3, owner_train_trips=2, owner_val_trips=2, thief_val_trips=1,
                       non_owner_trips=1, duration_s=120.0)
    write_corpus(tmp_path / "a", cfg)
    write_corpus(tmp_path / "b", cfg)
    assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")


def test_corpus_manifest_and_labels(tmp_path):
    cfg = CorpusConfig(seed=4, owner_train_trips=2, owner_val_trips=2, thief_val_trips=1,
                       non_owner_trips=1, duration_s=120.0)
    manifest = write_corpus(tmp_path, cfg)
    assert manifest == load_manifest(tmp_path)
    roles = [t["role"] for t in manifest["trips"]]
    assert roles.count("train") == 2
    assert roles.count("val-owner") == 2
    assert roles.count("val-thief") == 1
    for entry in manifest["trips"]:
        assert (tmp_path / entry["file"]).exists()
        labels = load_labels(tmp_path, entry["labels"])
        if entry["role"] == "val-thief":
            assert labels.all()
        elif entry["role"] == "val-splice":
            assert 0 < labels.sum() < len(labels)
        elif entry["role"] in ("train", "val-owner", "catalog"):
            assert not labels.any()


def test_missing_and_zero_features_in_csv(tmp_path):
    cfg = CorpusConfig(seed=5, owner_train_trips=1, owner_val_trips=1, thief_val_trips=1,
                       non_owner_trips=1, splice_trips=0, duration_s=60.0)
    manifest = write_corpus(tmp_path, cfg)
    text = (tmp_path / manifest["trips"][0]["file"]).read_text()
    header, first_row = text.splitlines()[:2]
    cols = header.split(",")
    cells = first_row.split(",")
    assert cells[cols.index("fuel_rail_pressure_raw")] == ""
    assert float(cells[cols.index("fuel_cutoff_flag")]) == 0.0
