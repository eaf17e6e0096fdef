import math

import numpy as np
import pytest

from theftdetect.ingest import (
    EmptyTripError,
    NoEssentialFeaturesError,
    ParseError,
    TripLog,
    apply_selection_rules,
    build_catalog,
    finalize_decisions,
    parse_trip,
    select_essential,
    separation_score,
)


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_basic(tmp_path):
    path = write_csv(tmp_path, "A_t1.csv", "speed,rpm\n1,10\n2,20\n3,30\n4,40\n")
    trip = parse_trip(path, 1.0)
    assert trip.feature_names == ["speed", "rpm"]
    assert trip.length == 4
    assert trip.driver_id == "A"
    assert trip.trip_id == "A_t1"
    np.testing.assert_array_equal(trip.features["speed"], [1, 2, 3, 4])


def test_parse_blank_cell_is_missing(tmp_path):
    path = write_csv(tmp_path, "A_t1.csv", "speed,rpm\n1,10\n,20\n3,30\n")
    trip = parse_trip(path, 1.0)
    assert math.isnan(trip.features["speed"][1])
    assert trip.features["rpm"][1] == 20


def test_parse_row_length_mismatch_names_line(tmp_path):
    path = write_csv(tmp_path, "A_t1.csv", "speed,rpm\n1,10\n1,2,3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_trip(path, 1.0)


def test_parse_empty_trip(tmp_path):
    path = write_csv(tmp_path, "A_t1.csv", "speed,rpm\n")
    with pytest.raises(EmptyTripError):
        parse_trip(path, 1.0)


def test_parse_timestamp_checked_and_dropped(tmp_path):
    good = write_csv(tmp_path, "A_ok.csv", "timestamp,speed\n0,1\n1,2\n2,3\n")
    trip = parse_trip(good, 1.0)
    assert trip.feature_names == ["speed"]
    bad = write_csv(tmp_path, "A_bad.csv", "timestamp,speed\n0,1\n1,2\n5,3\n")
    with pytest.raises(ParseError, match="uniform"):
        parse_trip(bad, 1.0)


def test_parse_crlf(tmp_path):
    path = write_csv(tmp_path, "A_t1.csv", "speed,rpm\r\n1,10\r\n2,20\r\n")
    assert parse_trip(path, 1.0).length == 2


def trip(driver, trip_id, **features):
    return TripLog(
        trip_id=trip_id,
        driver_id=driver,
        sample_period_s=1.0,
        features={k: np.asarray(v, dtype=float) for k, v in features.items()},
    )


def test_catalog_constant_feature():
    cat = build_catalog([trip("A", "t1", f=[5.0, 5.0, 5.0])])
    stats = cat.features["f"].per_driver["A"]
    assert stats.mean == 5.0
    assert stats.std == 0.0
    assert stats.min == stats.max == 5.0


def test_catalog_missing_flag():
    cat = build_catalog(
        [trip("A", "t1", f=[1.0, math.nan]), trip("A", "t2", f=[2.0, 3.0])]
    )
    assert cat.features["f"].has_missing


def test_catalog_two_drivers():
    cat = build_catalog([trip("A", "t1", f=[1.0, 3.0]), trip("B", "t2", f=[2.0, 2.0])])
    assert cat.features["f"].per_driver["A"].mean == 2.0
    assert cat.features["f"].per_driver["B"].mean == 2.0
    assert cat.features["f"].per_driver["A"].std > 0
    assert cat.features["f"].per_driver["B"].std == 0


def test_catalog_requires_trips():
    with pytest.raises(Exception):
        build_catalog([])


def test_rule_missing_value():
    cat = build_catalog([trip("A", "t1", f=[1.0, math.nan]), trip("B", "t2", f=[1.0, 2.0])])
    (decision,) = apply_selection_rules(cat)
    assert not decision.kept
    assert decision.reason == "missing-value"


def test_rule_invariance_all_zero():
    cat = build_catalog([trip("A", "t1", f=[0.0, 0.0]), trip("B", "t2", f=[0.0, 0.0])])
    (decision,) = apply_selection_rules(cat)
    assert decision.reason == "invariance"


def test_rule_distinct_max_kept():
    cat = build_catalog(
        [trip("A", "t1", f=[50.0, 120.0, 80.0]), trip("B", "t2", f=[50.0, 95.0, 80.0])]
    )
    (decision,) = apply_selection_rules(cat)
    assert decision.kept


def test_rule_indifference_constant_everywhere():
    cat = build_catalog([trip("A", "t1", f=[5.0, 5.0]), trip("B", "t2", f=[5.0, 5.0])])
    (decision,) = apply_selection_rules(cat)
    assert decision.reason == "indifference"


def test_rule2_skipped_single_driver():
    cat = build_catalog([trip("A", "t1", f=[5.0, 5.0])])
    (decision,) = apply_selection_rules(cat)
    assert decision.kept


def test_rules_order_independent():
    trips = [
        trip("A", "t1", f=[1.0, 2.0], g=[0.0, 0.0]),
        trip("B", "t2", f=[5.0, 9.0], g=[0.0, 0.0]),
        trip("A", "t3", f=[1.5, 2.5], g=[0.0, 0.0]),
    ]
    forward = apply_selection_rules(build_catalog(trips))
    backward = apply_selection_rules(build_catalog(trips[::-1]))
    assert forward == backward


def _separable_corpus(rng):
    """3 separable + 2 indistinct features across two drivers."""
    trips = []
    for driver, offset in (("A", 0.0), ("B", 50.0)):
        for i in range(4):
            trips.append(
                trip(
                    driver,
                    f"{driver}_t{i}",
                    sep1=rng.normal(10 + offset, 1, 200),
                    sep2=rng.normal(100 + 3 * offset, 5, 200),
                    sep3=rng.normal(-20 - offset, 2, 200),
                    dull1=rng.normal(7.0, 1, 200),
                    dull2=rng.normal(0.5, 0.1, 200),
                )
            )
    return trips


def test_select_essential_separable_vs_indistinct():
    rng = np.random.default_rng(42)
    trips = _separable_corpus(rng)
    cat = build_catalog(trips)
    decisions = apply_selection_rules(cat)
    essential = select_essential(decisions, cat, separation_score_threshold=0.5)
    assert sorted(essential) == ["sep1", "sep2", "sep3"]

    # brute-force check of the ranking statistic: separable features must
    # out-score indistinct ones under a direct comparison of summaries
    for sep in ("sep1", "sep2", "sep3"):
        for dull in ("dull1", "dull2"):
            assert separation_score(cat.features[sep]) > separation_score(cat.features[dull])


def test_select_essential_never_resurrects():
    rng = np.random.default_rng(1)
    trips = _separable_corpus(rng)
    for t in trips:
        t.features["broken"] = np.full(200, math.nan)
    cat = build_catalog(trips)
    decisions = apply_selection_rules(cat)
    essential = select_essential(decisions, cat, 0.5)
    survivors = {d.feature for d in decisions if d.kept}
    assert set(essential) <= survivors
    assert "broken" not in essential


def test_select_essential_zero_survivors():
    cat = build_catalog([trip("A", "t1", f=[1.0, 2.0]), trip("B", "t2", f=[1.1, 2.1])])
    decisions = apply_selection_rules(cat)
    with pytest.raises(
        NoEssentialFeaturesError, match=r"no feature scored above the separation threshold 1000000000\.0$"
    ):
        select_essential(decisions, cat, separation_score_threshold=1e9)


def test_finalize_decisions_marks_statistical_reject():
    rng = np.random.default_rng(3)
    trips = _separable_corpus(rng)
    cat = build_catalog(trips)
    decisions = apply_selection_rules(cat)
    essential = select_essential(decisions, cat, 0.5)
    final = finalize_decisions(decisions, essential)
    reasons = {d.feature: d.reason for d in final}
    assert reasons["dull1"] == "statistical-reject"
    assert reasons["sep1"] == "kept"
