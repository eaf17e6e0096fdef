import itertools

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from theftdetect import DataError
from theftdetect.detect import (
    compute_metrics,
    ensemble_vote,
    optimize_threshold,
    roc_sweep,
    threshold_grid,
    windows_verdicts,
)
from theftdetect.windowing import WindowConfig


def errors(values):
    return np.asarray(values, dtype=float)


def test_all_zero_errors_are_owner():
    means = windows_verdicts(errors(np.zeros(96)), 32)
    assert len(means) == 3
    assert not (means > 6.0).any()


def test_mean_error_above_threshold_is_theft():
    # transmission-oil-temperature operating point: threshold 6
    (mean,) = windows_verdicts(errors(np.full(32, 10.0)), 32)
    assert mean == 10.0
    assert mean > 6.0


def test_boundary_is_owner():
    (mean,) = windows_verdicts(errors(np.full(32, 6.0)), 32)
    assert not mean > 6.0


def test_trailing_partial_window_dropped():
    means = windows_verdicts(errors(np.arange(70.0)), 32)
    np.testing.assert_array_equal(means, [15.5, 47.5])  # windows start at 0 and 32


def test_too_short_series():
    with pytest.raises(DataError):
        windows_verdicts(errors(np.zeros(10)), 32)


@given(
    errs=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=300),
    window=st.integers(1, 40),
)
def test_window_means_match_per_slice_mean(errs, window):
    errs = np.asarray(errs)
    if len(errs) < window:
        return
    expected = [errs[s : s + window].mean() for s in range(0, len(errs) - window + 1, window)]
    means = windows_verdicts(errors(errs), window)
    np.testing.assert_array_equal(means, expected)


@given(
    errs=st.lists(st.floats(0, 100, allow_nan=False), min_size=32, max_size=200),
    t1=st.floats(0, 100),
    t2=st.floats(0, 100),
)
def test_threshold_monotonicity(errs, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    means = windows_verdicts(errors(errs), 8)
    assert (means > hi).sum() <= (means > lo).sum()


def test_ensemble_truth_table_all_32_patterns():
    patterns = np.array(list(itertools.product([False, True], repeat=5)))
    votes, theft = ensemble_vote(patterns.T)  # one window per pattern
    np.testing.assert_array_equal(votes, patterns.sum(axis=1))
    np.testing.assert_array_equal(theft, patterns.sum(axis=1) >= 3)


def test_ensemble_permutation_symmetric():
    pattern = (True, True, False, True, False)
    (base,), _ = ensemble_vote(np.array(pattern)[:, None])
    for perm in itertools.permutations(pattern):
        (votes,), _ = ensemble_vote(np.array(perm)[:, None])
        assert votes == base


def test_ensemble_wrong_model_count():
    with pytest.raises(DataError):
        ensemble_vote(np.ones((0, 3), dtype=bool))
    with pytest.raises(DataError):
        ensemble_vote(np.ones(5, dtype=bool))


@given(m=st.integers(1, 7), data=st.data())
def test_ensemble_majority_of_m(m, data):
    windows = data.draw(st.integers(0, 20))
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=windows, max_size=windows),
                              min_size=m, max_size=m))
    votes, theft = ensemble_vote(np.array(rows, dtype=bool).reshape(m, windows))
    for w in range(windows):
        count = sum(row[w] for row in rows)
        assert votes[w] == count
        assert theft[w] == (count > m / 2)


TOY = [(1.0, False), (2.0, False), (3.0, True), (4.0, True)]
TOY_THRESHOLDS = [0.5, 1.5, 2.5, 3.5, 4.5]


def split(labeled):
    """(errors, labels) arrays from (error, label) pairs."""
    return np.array([e for e, _ in labeled], dtype=float), np.array([l for _, l in labeled], dtype=bool)


def sweep(labeled, thresholds=None):
    errs, labels = split(labeled)
    return roc_sweep(errs, labels, threshold_grid(errs) if thresholds is None else thresholds)


def brute_force_rates(labeled, thr):
    tp = sum(1 for e, lab in labeled if lab and e > thr)
    fn = sum(1 for e, lab in labeled if lab and e <= thr)
    fp = sum(1 for e, lab in labeled if not lab and e > thr)
    tn = sum(1 for e, lab in labeled if not lab and e <= thr)
    return tp / (tp + fn), fp / (fp + tn)


def reference_grid(errs):
    unique = sorted(set(errs))
    span = (unique[-1] - unique[0]) or 1.0
    return [unique[0] - 0.5 * span] + [(a + b) / 2 for a, b in zip(unique, unique[1:])] + [
        unique[-1] + 0.5 * span
    ]


def reference_auc(points):
    ordered = sorted(points, key=lambda p: (p[2], p[1]))
    return float(np.trapezoid([p[1] for p in ordered], [p[2] for p in ordered]))


def reference_threshold(points):
    best_thr, best_j = None, -np.inf
    for thr, tpr, fpr in points:
        if tpr - fpr > best_j or (tpr - fpr == best_j and thr > best_thr):
            best_j, best_thr = tpr - fpr, thr
    return best_thr


def reference_metrics(preds, labels):
    pairs = list(zip(preds, labels))
    tp = sum(1 for p, l in pairs if p and l)
    fp = sum(1 for p, l in pairs if p and not l)
    tn = sum(1 for p, l in pairs if not p and not l)
    fn = sum(1 for p, l in pairs if not p and l)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / len(pairs) if pairs else 0.0
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn,
            "accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


# few distinct values so ties are common; p_theft skews the label balance
tied_errors = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 2.5, 2.5000000000000004]),
                        st.floats(0, 50, allow_nan=False))


@st.composite
def labeled_windows(draw):
    p_theft = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    n = draw(st.integers(2, 80))
    errs = draw(st.lists(tied_errors, min_size=n, max_size=n))
    labels = [draw(st.floats(0, 1)) < p_theft for _ in range(n)]
    return list(zip(errs, labels))


@given(labeled=labeled_windows())
def test_roc_sweep_equals_reference(labeled):
    assume(0 < sum(lab for _, lab in labeled) < len(labeled))
    grid = reference_grid([e for e, _ in labeled])
    points = [(thr, *brute_force_rates(labeled, thr)) for thr in grid]
    curve = sweep(labeled)
    assert curve.thresholds.tolist() == grid
    assert curve.tpr.tolist() == [p[1] for p in points]
    assert curve.fpr.tolist() == [p[2] for p in points]
    assert curve.auc == reference_auc(points)
    assert optimize_threshold(curve) == reference_threshold(points)


@given(pairs=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=80))
def test_compute_metrics_equals_reference(pairs):
    preds, labels = [p for p, _ in pairs], [l for _, l in pairs]
    assert compute_metrics(np.array(preds, dtype=bool), np.array(labels, dtype=bool)) == (
        reference_metrics(preds, labels)
    )


def test_roc_toy_matches_brute_force():
    curve = sweep(TOY, TOY_THRESHOLDS)
    for thr, tpr, fpr in zip(curve.thresholds, curve.tpr, curve.fpr):
        etpr, efpr = brute_force_rates(TOY, thr)
        assert tpr == etpr
        assert fpr == efpr


def test_roc_random_matches_brute_force():
    rng = np.random.default_rng(0)
    labeled = [(float(rng.uniform(0, 10)), bool(rng.integers(2))) for _ in range(50)]
    if not any(lab for _, lab in labeled) or all(lab for _, lab in labeled):
        labeled[0] = (labeled[0][0], True)
        labeled[1] = (labeled[1][0], False)
    curve = sweep(labeled)
    for thr, tpr, fpr in zip(curve.thresholds, curve.tpr, curve.fpr):
        etpr, efpr = brute_force_rates(labeled, thr)
        assert tpr == etpr
        assert fpr == efpr


def test_auc_perfect_separation():
    labeled = [(float(i), False) for i in range(10)] + [(float(i + 20), True) for i in range(10)]
    assert sweep(labeled).auc == pytest.approx(1.0, abs=1e-12)


def test_auc_no_information():
    labeled = [(5.0, False)] * 10 + [(5.0, True)] * 10
    assert sweep(labeled).auc == pytest.approx(0.5, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    labeled = [(float(rng.uniform(1, 10)), bool(rng.integers(2))) for _ in range(40)]
    labeled[0] = (labeled[0][0], True)
    labeled[1] = (labeled[1][0], False)
    transformed = [(e ** 3 + 2.0, lab) for e, lab in labeled]
    assert sweep(transformed).auc == pytest.approx(sweep(labeled).auc, abs=1e-12)


def test_roc_degenerate_labels():
    with pytest.raises(DataError, match="both owner and theft labels are required"):
        sweep([(1.0, True), (2.0, True)], [0.5])


def test_roc_rates_non_increasing_in_threshold():
    rng = np.random.default_rng(2)
    labeled = [(float(rng.uniform(0, 5)), bool(rng.integers(2))) for _ in range(60)]
    labeled[0] = (labeled[0][0], True)
    labeled[1] = (labeled[1][0], False)
    curve = sweep(labeled)
    assert (np.diff(curve.tpr) <= 0).all()
    assert (np.diff(curve.fpr) <= 0).all()


def test_optimize_threshold_toy():
    # J enumerated by hand: J(2.5) = 1 is the unique maximum
    assert optimize_threshold(sweep(TOY, TOY_THRESHOLDS)) == 2.5


def test_optimize_threshold_single_candidate():
    assert optimize_threshold(sweep(TOY, [2.5])) == 2.5


def test_optimize_threshold_flat_curve_takes_largest():
    curve = sweep([(5.0, False)] * 5 + [(5.0, True)] * 5, [1.0, 2.0, 3.0])
    assert optimize_threshold(curve) == 3.0


def test_metrics_all_correct():
    m = compute_metrics(np.array([True, False, True]), np.array([True, False, True]))
    assert m["accuracy"] == m["precision"] == m["recall"] == m["f1"] == 1.0


def test_metrics_arithmetic():
    # tp=2 fp=1 fn=1 tn=6
    preds = np.array([True, True, True, False] + [False] * 6)
    labels = np.array([True, True, False, True] + [False] * 6)
    m = compute_metrics(preds, labels)
    assert (m["tp"], m["fp"], m["fn"], m["tn"]) == (2, 1, 1, 6)
    assert m["accuracy"] == pytest.approx(0.8)
    assert m["precision"] == pytest.approx(2 / 3)
    assert m["recall"] == pytest.approx(2 / 3)
    assert m["f1"] == pytest.approx(2 / 3)


def test_metrics_identities_exact():
    rng = np.random.default_rng(3)
    preds = rng.integers(2, size=100).astype(bool)
    labels = rng.integers(2, size=100).astype(bool)
    m = compute_metrics(preds, labels)
    assert m["tp"] + m["fp"] + m["tn"] + m["fn"] == 100
    assert m["accuracy"] == (m["tp"] + m["tn"]) / 100
    if m["precision"] + m["recall"] > 0:
        assert m["f1"] == 2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])


def test_metrics_zero_denominators_flagged():
    m = compute_metrics(np.zeros(2, dtype=bool), np.zeros(2, dtype=bool))
    assert m["precision"] == 0.0
    assert m["recall"] == 0.0
    assert m["f1"] == 0.0


def test_metrics_length_mismatch():
    with pytest.raises(DataError):
        compute_metrics(np.array([True]), np.array([True, False]))


def test_detection_config_validation():
    # a 100 s sample period leaves 32 s detection windows 0.32 samples long
    with pytest.raises(DataError):
        WindowConfig(sample_period_s=100.0, window_s=200.0, stride_s=100.0)
    with pytest.raises(DataError):
        windows_verdicts(errors(np.zeros(10)), 0)
