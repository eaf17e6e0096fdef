import hashlib
from pathlib import Path

import numpy as np
import pytest

from theftdetect.ingest import driver_stats
from theftdetect.synth import (
    CorpusConfig,
    DriverProfile,
    FeatureSpec,
    SpliceSpec,
    SynthError,
    default_profiles,
    generate_trip,
    load_labels,
    load_manifest,
    splice_theft,
    write_corpus,
)


def profile(driver="A", **spec_kwargs):
    return DriverProfile(driver_id=driver, features={"f": FeatureSpec(**spec_kwargs)})


def test_degenerate_generator_constant_at_base():
    p = profile(base=42.0, noise_scale=1e-300)
    trip = generate_trip(p, 100.0, 1.0, seed=0)
    np.testing.assert_allclose(trip.features["f"], 42.0, atol=1e-12)


def test_generation_deterministic():
    p = profile(base=10.0, ar_coeff=0.8, noise_scale=2.0, event_amplitude=3.0)
    a = generate_trip(p, 200.0, 1.0, seed=5)
    b = generate_trip(p, 200.0, 1.0, seed=5)
    np.testing.assert_array_equal(a.features["f"], b.features["f"])
    c = generate_trip(p, 200.0, 1.0, seed=6)
    assert not np.array_equal(a.features["f"], c.features["f"])


def test_duration_shorter_than_window():
    with pytest.raises(SynthError):
        generate_trip(profile(base=1.0), 10.0, 1.0, seed=0)


def test_separated_bases_separate_catalog_means():
    # bases 5+ noise scales apart must yield per-driver means 4+ pooled stds apart
    pa = profile("A", base=0.0, noise_scale=1.0, ar_coeff=0.3)
    pb = profile("B", base=8.0, noise_scale=1.0, ar_coeff=0.3)
    trips = [
        generate_trip(pa, 600.0, 1.0, seed=i, trip_id=f"A_t{i}") for i in range(3)
    ] + [
        generate_trip(pb, 600.0, 1.0, seed=10 + i, trip_id=f"B_t{i}") for i in range(3)
    ]
    (mean_a, std_a), (mean_b, std_b) = (
        driver_stats(np.concatenate([t.features["f"] for t in trips if t.driver_id == d]))[:2]
        for d in ("A", "B")
    )
    assert abs(mean_a - mean_b) >= 4 * max(std_a, std_b)


def two_trips(n=600):
    p1 = profile("A", base=0.0, noise_scale=0.5)
    p2 = DriverProfile("B", {"f": FeatureSpec(base=30.0, noise_scale=0.5)})
    victim = generate_trip(p1, float(n), 1.0, seed=1)
    donor = generate_trip(p2, float(n), 1.0, seed=2)
    return victim, donor


def test_splice_zero_length():
    victim, donor = two_trips()
    spec = SpliceSpec(victim.trip_id, "B", 0.5, 0.0)
    spliced, labels = splice_theft(victim, donor, spec)
    np.testing.assert_array_equal(spliced.features["f"], victim.features["f"])
    assert not labels.any()


def test_splice_whole_trip():
    victim, donor = two_trips()
    spec = SpliceSpec(victim.trip_id, "B", 0.0, 600.0)
    spliced, labels = splice_theft(victim, donor, spec)
    np.testing.assert_array_equal(spliced.features["f"], donor.features["f"])
    assert labels.all()


def test_splice_final_160s():
    victim, donor = two_trips()
    spec = SpliceSpec(victim.trip_id, "B", start_fraction=440 / 600, length_s=160.0)
    spliced, labels = splice_theft(victim, donor, spec)
    assert labels.sum() == 160
    assert labels[440:].all()
    assert not labels[:440].any()
    np.testing.assert_array_equal(spliced.features["f"][:440], victim.features["f"][:440])
    np.testing.assert_array_equal(spliced.features["f"][440:], donor.features["f"][440:])


def test_splice_out_of_range():
    victim, donor = two_trips()
    with pytest.raises(SynthError):
        splice_theft(victim, donor, SpliceSpec(victim.trip_id, "B", 0.9, 200.0))


def test_default_profiles_exercise_selection_rules():
    profiles = default_profiles()
    assert len(profiles) == 4
    for p in profiles:
        kinds = {spec.kind for spec in p.features.values()}
        assert kinds == {"signal", "zero", "missing"}


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


def test_feature_spec_invariants():
    with pytest.raises(SynthError):
        FeatureSpec(base=0.0, ar_coeff=1.0)
    with pytest.raises(SynthError):
        FeatureSpec(base=0.0, noise_scale=0.0)
    with pytest.raises(SynthError):
        SpliceSpec("t", "B", 1.0, 10.0)
