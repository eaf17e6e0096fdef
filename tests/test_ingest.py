import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from theftdetect.ingest import (
    ESSENTIAL_TARGET,
    SEPARATION_THRESHOLD,
    TripLog,
    driver_stats,
    parse_trip,
    select_essential,
)
from theftdetect import DataError
from theftdetect.synth import load_labels


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
    with pytest.raises(DataError, match="line 3"):
        parse_trip(path, 1.0)


def test_parse_empty_trip(tmp_path):
    path = write_csv(tmp_path, "A_t1.csv", "speed,rpm\n")
    with pytest.raises(DataError, match="no data rows"):
        parse_trip(path, 1.0)


def test_parse_timestamp_checked_and_dropped(tmp_path):
    good = write_csv(tmp_path, "A_ok.csv", "timestamp,speed\n0,1\n1,2\n2,3\n")
    trip = parse_trip(good, 1.0)
    assert trip.feature_names == ["speed"]
    bad = write_csv(tmp_path, "A_bad.csv", "timestamp,speed\n0,1\n1,2\n5,3\n")
    with pytest.raises(DataError, match="uniform"):
        parse_trip(bad, 1.0)


def test_parse_crlf(tmp_path):
    path = write_csv(tmp_path, "A_t1.csv", "speed,rpm\r\n1,10\r\n2,20\r\n")
    assert parse_trip(path, 1.0).length == 2


def test_parse_oversize_cell_is_parse_error(tmp_path):
    path = write_csv(tmp_path, "A_t1.csv", "speed\n" + "1" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(DataError, match="field larger than field limit") as excinfo:
        parse_trip(path, 1.0)
    assert str(path) in str(excinfo.value)


# bytes a trip or label file is made of, plus a few that break decoding or parsing
CSV_LIKE = st.lists(st.sampled_from([
    b"0", b"1", b"2.5", b"-", b"e", b"nan", b"inf", b",", b" ", b"\n", b"\r", b'"',
    b"x", b"speed", b"timestamp", b"label", b"\x00", b"\xff", b"\xc3",
]), max_size=60).map(b"".join)


@settings(deadline=None)
@given(data=st.one_of(st.binary(), CSV_LIKE))
@example(data=b"\n").via("blank header line")
@example(data=b"speed\n1\n\xff\n").via("non-UTF-8 byte")
def test_file_readers_fail_closed_on_any_bytes(data):
    """A trip CSV either parses or raises a DataError; so does a label file. No
    other exception escapes either reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "A_t1.csv"
        path.write_bytes(data)
        try:
            assert isinstance(parse_trip(path, 1.0), TripLog)
        except DataError as exc:
            assert str(path) in str(exc)
        try:
            assert load_labels(tmp, path.name).dtype == bool
        except DataError as exc:
            assert str(path) in str(exc)


HEADER_NAMES = ("a", "b", " c ", "d", "timestamp")
ODD_CELLS = ("", " ", "  \t", "1_0", "nan", "-nan", "inf", "-Infinity", "+1", "0x1p3", "#", "#1",
             '"1"', '"1,5"', '"', " 2.5 ", "1e999", "5e-324", "-0", "x", "1e", "\x0c1", "\x00")


@st.composite
def csv_texts(draw):
    """(text, header, grid, kept): a CSV text of mostly numeric cells, its header
    names, each line as a list of cells or, for a blank line, a string, and the
    columns to keep. Odd cells, quotes, blank lines, short or long rows, a BOM and
    lone-CR line ends each turn up in some texts."""
    header = draw(st.lists(st.sampled_from(HEADER_NAMES), min_size=1, max_size=4,
                           unique=draw(st.integers(0, 9)) > 0))
    names = [name.strip() for name in header if name != "timestamp"] or ["a"]
    kept = draw(st.lists(st.sampled_from(names if draw(st.integers(0, 9)) else ["a", "b", "c", "d"]),
                         min_size=1, max_size=3, unique=True))
    odd = st.sampled_from(ODD_CELLS)
    number = st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str))
    grid, stamp = [], 0
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 15)) == 0:
            grid.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        row = [str(stamp) if name == "timestamp" and draw(st.integers(0, 15)) else
               draw(odd if draw(st.integers(0, 23)) == 0 else number) for name in header]
        if draw(st.integers(0, 15)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        grid.append(row)
        stamp += 1
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)] + [line if isinstance(line, str) else ",".join(line) for line in grid]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if draw(st.integers(0, 15)) == 0 else end
            for _ in lines]
    text = "".join(line + e for line, e in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    if draw(st.integers(0, 15)) == 0:
        text = "\ufeff" + text
    return text, header, grid, kept


def parsed_or_error(path, columns=None):
    try:
        return parse_trip(path, 1.0, columns=columns)
    except DataError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(case=csv_texts())
@example(case=("a,b\r\n1,x\r\n2,3\r\n", ["a", "b"], [["1", "x"], ["2", "3"]], ["a"]))
@example(case=("timestamp,a,b\n0,1,2\n2,3,4\n", ["timestamp", "a", "b"], [["0", "1", "2"], ["2", "3", "4"]], ["b"]))
@example(case=("a,b\n1,2\n\n3,4\n", ["a", "b"], [["1", "2"], "", ["3", "4"]], ["a"]))
@example(case=("a,b\n1,2\r3,4\n", ["a", "b"], [["1", "2"], ["3", "4"]], ["a"]))
@example(case=('a,b\n"1",2\n', ["a", "b"], [['"1"', "2"]], ["a"]))
@example(case=("a,timestamp,c\n1,0,2\n1,2,x\n", ["a", "timestamp", "c"], [["1", "0", "2"], ["1", "2", "x"]],
               ["a"])).via("bad timestamps and an unkept non-numeric cell")
def test_parse_trip_columns_matches_the_full_parse(case):
    """Parsing only some columns gives every kept column the full parse's float64
    bits, or the full parse's error. The one difference: a cell of a column not
    kept is not parsed, so a text whose only fault is such a cell parses, to the
    bits the full parse gives once that cell is numeric."""
    text, header, grid, kept = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "A_t1.csv"
        path.write_bytes(text.encode("utf-8"))
        fast, full = parsed_or_error(path, kept), parsed_or_error(path)
        if isinstance(fast, str):
            assert fast == full
            return
        if isinstance(full, str):
            assert "non-numeric cell" in full
            # the same text with every cell of the columns not kept made numeric
            sanitized = [line if isinstance(line, str) else
                         [c if h.strip() in kept or h.strip() == "timestamp" else "0"
                          for h, c in zip(header, line)] + line[len(header):]
                         for line in grid]
            lines = [",".join(header)] + [ln if isinstance(ln, str) else ",".join(ln) for ln in sanitized]
            path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
            full = parse_trip(path, 1.0)
    present = [name for name in kept if name in full.features]
    assert present == [name for name in kept if name in fast.features]
    for name in present:
        assert fast.features[name].tobytes() == full.features[name].tobytes()


def trip(driver, trip_id, **features):
    return TripLog(
        trip_id=trip_id,
        driver_id=driver,
        sample_period_s=1.0,
        features={k: np.asarray(v, dtype=float) for k, v in features.items()},
    )


def reasons_of(*trips):
    """Selection reasons of ``trips`` plus an ``anchor`` feature that is always kept,
    so selection succeeds whatever the rules do to the other features."""
    for t in trips:
        t.features["anchor"] = np.arange(t.length) + 100.0 * ord(t.driver_id)
    essential, reasons = select_essential(list(trips))
    assert "anchor" in essential
    return reasons


def reference_score(trips, name):
    """Separation score by the definition: mean over driver pairs of the mean
    absolute difference of their five-number summaries, over the pooled IQR."""
    drivers = sorted({t.driver_id for t in trips})
    values = [np.concatenate([t.features[name] for t in trips if t.driver_id == d]) for d in drivers]
    five = [np.percentile(v, [0, 25, 50, 75, 100]) for v in values]
    dists = [np.mean(np.abs(a - b)) for i, a in enumerate(five) for b in five[i + 1 :]]
    q1, q3 = np.percentile(np.concatenate(values), [25, 75])
    return np.mean(dists) / (q3 - q1)


def test_catalog_constant_feature():
    np.testing.assert_array_equal(driver_stats(np.array([5.0, 5.0, 5.0])), [5, 0, 5, 5, 5, 5, 5])


def test_catalog_missing_flag():
    # missing samples are ignored by the statistics but reject the feature
    np.testing.assert_array_equal(
        driver_stats(np.array([1.0, math.nan, 2.0, 3.0])),
        [2.0, np.std([1.0, 2.0, 3.0]), 1.0, 1.5, 2.0, 2.5, 3.0],
    )
    reasons = reasons_of(trip("A", "t1", f=[1.0, math.nan]), trip("B", "t2", f=[2.0, 3.0]))
    assert reasons["f"] == "missing-value"


def test_catalog_two_drivers():
    a, b = driver_stats(np.array([1.0, 3.0])), driver_stats(np.array([2.0, 2.0]))
    assert a[0] == b[0] == 2.0
    assert a[1] > 0
    assert b[1] == 0


def test_catalog_requires_trips():
    with pytest.raises(DataError, match="zero trips"):
        select_essential([])


def test_rule_missing_value():
    reasons = reasons_of(trip("A", "t1", f=[1.0, math.nan]), trip("B", "t2", f=[1.0, 2.0]))
    assert reasons["f"] == "missing-value"


@pytest.mark.parametrize("value", [math.inf, -math.inf, 1e308, -1e308])
def test_rule_missing_value_non_finite_or_overflowing(value):
    """An infinity, or a value whose square overflows the std, rejects the feature
    as missing, without a numpy warning."""
    reasons = reasons_of(trip("A", "t1", f=[1.0, value]), trip("B", "t2", f=[1.0, 2.0]))
    assert reasons["f"] == "missing-value"


def test_rule_invariance_all_zero():
    reasons = reasons_of(trip("A", "t1", f=[0.0, 0.0]), trip("B", "t2", f=[0.0, 0.0]))
    assert reasons["f"] == "invariance"


def test_rule_distinct_max_kept():
    # a distinct max survives the indifference rule; the score (about 0.22) then rejects it
    reasons = reasons_of(trip("A", "t1", f=[50.0, 120.0, 80.0]), trip("B", "t2", f=[50.0, 95.0, 80.0]))
    assert reasons["f"] == "statistical-reject"


def test_rule_indifference_constant_everywhere():
    reasons = reasons_of(trip("A", "t1", f=[5.0, 5.0]), trip("B", "t2", f=[5.0, 5.0]))
    assert reasons["f"] == "indifference"


def test_rule2_skipped_single_driver():
    """Indifference and separation compare drivers, so one driver's trips are a data
    error naming the driver, not features kept by name."""
    trips = [trip("A", "t1", f=[5.0, 5.0], g=[1.0, 2.0]), trip("A", "t2", f=[5.0, 6.0], g=[3.0, 1.0])]
    with pytest.raises(DataError, match="every trip is of driver 'A'; add catalog trips of other drivers"):
        select_essential(trips)


@settings(max_examples=40, deadline=None)
@given(driver=st.text(min_size=1, max_size=4),
       series=st.lists(st.lists(st.floats(), min_size=1, max_size=8), min_size=1, max_size=4))
def test_one_drivers_trips_are_a_data_error(driver, series):
    """Any set of trips from one driver, whatever their values, fails selection."""
    with pytest.raises(DataError, match=f"every trip is of driver {re.escape(repr(driver))};"):
        select_essential([trip(driver, f"t{i}", f=f) for i, f in enumerate(series)])


def test_rules_order_independent():
    trips = [
        trip("A", "t1", f=[1.0, 2.0], g=[0.0, 0.0]),
        trip("B", "t2", f=[5.0, 9.0], g=[0.0, 0.0]),
        trip("A", "t3", f=[1.5, 2.5], g=[0.0, 0.0]),
    ]
    forward = select_essential(trips)
    backward = select_essential(trips[::-1])
    assert forward == backward == (["f"], {"f": "kept", "g": "invariance"})


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
    essential, reasons = select_essential(trips)
    assert sorted(essential) == ["sep1", "sep2", "sep3"]
    assert reasons["dull1"] == reasons["dull2"] == "statistical-reject"

    # brute-force check of the ranking statistic: separable features must
    # out-score indistinct ones, and essential lists them best first
    scores = {name: reference_score(trips, name) for name in reasons}
    for sep in ("sep1", "sep2", "sep3"):
        for dull in ("dull1", "dull2"):
            assert scores[sep] > SEPARATION_THRESHOLD > scores[dull]
    assert essential == sorted(essential, key=lambda name: -scores[name])


def test_select_essential_never_resurrects():
    rng = np.random.default_rng(1)
    trips = _separable_corpus(rng)
    for t in trips:
        t.features["broken"] = np.full(200, math.nan)
    essential, reasons = select_essential(trips)
    assert reasons["broken"] == "missing-value"
    assert set(essential) == {name for name, reason in reasons.items() if reason == "kept"}


def test_select_essential_zero_survivors():
    trips = [trip("A", "t1", f=[1.0, 2.0]), trip("B", "t2", f=[1.1, 2.1])]
    with pytest.raises(
        DataError, match=r"no feature scored above the separation threshold 0\.5$"
    ):
        select_essential(trips)


def test_finalize_decisions_marks_statistical_reject():
    rng = np.random.default_rng(3)
    _, reasons = select_essential(_separable_corpus(rng))
    assert reasons["dull1"] == "statistical-reject"
    assert reasons["sep1"] == "kept"


def test_target_cut_rejects_sixth_survivor():
    # six rule survivors, each scoring above the threshold
    rng = np.random.default_rng(4)
    trips = [
        trip(driver, f"{driver}_t{i}",
             **{f"f{j}": rng.normal(level, (7 - j) * 0.5, 100) for j in range(1, 7)})
        for driver, level in (("A", 0.0), ("B", 10.0))
        for i in range(2)
    ]
    scores = {f"f{j}": reference_score(trips, f"f{j}") for j in range(1, 7)}
    assert min(scores.values()) > SEPARATION_THRESHOLD
    ranked = sorted(scores, key=lambda name: -scores[name])
    essential, reasons = select_essential(trips)
    assert len(essential) == ESSENTIAL_TARGET == 5
    assert essential == ranked[:5] == ["f2", "f4", "f6", "f1", "f5"]
    assert reasons == {**dict.fromkeys(essential, "kept"), "f3": "statistical-reject"}
    assert list(reasons) == [f"f{j}" for j in range(1, 7)]
