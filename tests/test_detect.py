import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from theftdetect.detect import (
    DegenerateLabelsError,
    DetectError,
    MAJORITY,
    DetectionConfig,
    compute_metrics,
    ensemble_vote,
    optimize_threshold,
    roc_sweep,
    threshold_grid,
    windows_verdicts,
)
from theftdetect.reconstruct import ErrorSeries


def errors(values):
    return ErrorSeries("f", np.asarray(values, dtype=float))


def dcfg(window=32.0, period=1.0):
    return DetectionConfig(sample_period_s=period, detection_window_s=window)


def test_all_zero_errors_are_owner():
    means = windows_verdicts(errors(np.zeros(96)), dcfg())
    assert len(means) == 3
    assert not (means > 6.0).any()


def test_mean_error_above_threshold_is_theft():
    # transmission-oil-temperature operating point: threshold 6
    (mean,) = windows_verdicts(errors(np.full(32, 10.0)), dcfg())
    assert mean == 10.0
    assert mean > 6.0


def test_boundary_is_owner():
    (mean,) = windows_verdicts(errors(np.full(32, 6.0)), dcfg())
    assert not mean > 6.0


def test_trailing_partial_window_dropped():
    means = windows_verdicts(errors(np.arange(70.0)), dcfg())
    np.testing.assert_array_equal(means, [15.5, 47.5])  # windows start at 0 and 32


def test_too_short_series():
    with pytest.raises(DetectError):
        windows_verdicts(errors(np.zeros(10)), dcfg())


@given(
    errs=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=300),
    window=st.integers(1, 40),
)
def test_window_means_match_per_slice_mean(errs, window):
    errs = np.asarray(errs)
    if len(errs) < window:
        return
    expected = [errs[s : s + window].mean() for s in range(0, len(errs) - window + 1, window)]
    means = windows_verdicts(errors(errs), dcfg(window=float(window)))
    np.testing.assert_array_equal(means, expected)


@given(
    errs=st.lists(st.floats(0, 100, allow_nan=False), min_size=32, max_size=200),
    t1=st.floats(0, 100),
    t2=st.floats(0, 100),
)
def test_threshold_monotonicity(errs, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    means = windows_verdicts(errors(errs), dcfg(window=8.0))
    assert (means > hi).sum() <= (means > lo).sum()


def test_ensemble_truth_table_all_32_patterns():
    patterns = np.array(list(itertools.product([False, True], repeat=5)))
    votes = ensemble_vote(patterns.T)  # one window per pattern
    np.testing.assert_array_equal(votes, patterns.sum(axis=1))
    np.testing.assert_array_equal(votes >= MAJORITY, patterns.sum(axis=1) >= 3)


def test_ensemble_permutation_symmetric():
    pattern = (True, True, False, True, False)
    (base,) = ensemble_vote(np.array(pattern)[:, None])
    for perm in itertools.permutations(pattern):
        (votes,) = ensemble_vote(np.array(perm)[:, None])
        assert votes == base


def test_ensemble_wrong_model_count():
    with pytest.raises(DetectError):
        ensemble_vote(np.ones((2, 1), dtype=bool))
    with pytest.raises(DetectError):
        ensemble_vote(np.ones(5, dtype=bool))


TOY = [(1.0, False), (2.0, False), (3.0, True), (4.0, True)]
TOY_THRESHOLDS = [0.5, 1.5, 2.5, 3.5, 4.5]


def brute_force_rates(labeled, thr):
    tp = sum(1 for e, lab in labeled if lab and e > thr)
    fn = sum(1 for e, lab in labeled if lab and e <= thr)
    fp = sum(1 for e, lab in labeled if not lab and e > thr)
    tn = sum(1 for e, lab in labeled if not lab and e <= thr)
    return tp / (tp + fn), fp / (fp + tn)


def test_roc_toy_matches_brute_force():
    curve = roc_sweep(TOY, TOY_THRESHOLDS)
    for thr, tpr, fpr in curve.points:
        etpr, efpr = brute_force_rates(TOY, thr)
        assert tpr == etpr
        assert fpr == efpr


def test_roc_random_matches_brute_force():
    rng = np.random.default_rng(0)
    labeled = [(float(rng.uniform(0, 10)), bool(rng.integers(2))) for _ in range(50)]
    if not any(lab for _, lab in labeled) or all(lab for _, lab in labeled):
        labeled[0] = (labeled[0][0], True)
        labeled[1] = (labeled[1][0], False)
    grid = threshold_grid([e for e, _ in labeled])
    curve = roc_sweep(labeled, grid)
    for thr, tpr, fpr in curve.points:
        etpr, efpr = brute_force_rates(labeled, thr)
        assert tpr == etpr
        assert fpr == efpr


def test_auc_perfect_separation():
    labeled = [(float(i), False) for i in range(10)] + [(float(i + 20), True) for i in range(10)]
    curve = roc_sweep(labeled, threshold_grid([e for e, _ in labeled]))
    assert curve.auc == pytest.approx(1.0, abs=1e-12)


def test_auc_no_information():
    labeled = [(5.0, False)] * 10 + [(5.0, True)] * 10
    curve = roc_sweep(labeled, threshold_grid([5.0]))
    assert curve.auc == pytest.approx(0.5, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    labeled = [(float(rng.uniform(1, 10)), bool(rng.integers(2))) for _ in range(40)]
    labeled[0] = (labeled[0][0], True)
    labeled[1] = (labeled[1][0], False)
    curve = roc_sweep(labeled, threshold_grid([e for e, _ in labeled]))
    transformed = [(e ** 3 + 2.0, lab) for e, lab in labeled]
    curve2 = roc_sweep(transformed, threshold_grid([e for e, _ in transformed]))
    assert curve2.auc == pytest.approx(curve.auc, abs=1e-12)


def test_roc_degenerate_labels():
    with pytest.raises(DegenerateLabelsError):
        roc_sweep([(1.0, True), (2.0, True)], [0.5])


def test_roc_rates_non_increasing_in_threshold():
    rng = np.random.default_rng(2)
    labeled = [(float(rng.uniform(0, 5)), bool(rng.integers(2))) for _ in range(60)]
    labeled[0] = (labeled[0][0], True)
    labeled[1] = (labeled[1][0], False)
    curve = roc_sweep(labeled, threshold_grid([e for e, _ in labeled]))
    tprs = [p[1] for p in curve.points]
    fprs = [p[2] for p in curve.points]
    assert all(a >= b for a, b in zip(tprs, tprs[1:]))
    assert all(a >= b for a, b in zip(fprs, fprs[1:]))


def test_optimize_threshold_toy():
    # J enumerated by hand: J(2.5) = 1 is the unique maximum
    curve = roc_sweep(TOY, TOY_THRESHOLDS)
    assert optimize_threshold(curve) == 2.5


def test_optimize_threshold_single_candidate():
    curve = roc_sweep(TOY, [2.5])
    assert optimize_threshold(curve) == 2.5


def test_optimize_threshold_flat_curve_takes_largest():
    curve = roc_sweep([(5.0, False)] * 5 + [(5.0, True)] * 5, [1.0, 2.0, 3.0])
    assert optimize_threshold(curve) == 3.0


def test_metrics_all_correct():
    m = compute_metrics([True, False, True], [True, False, True])
    assert m.accuracy == m.precision == m.recall == m.f1 == 1.0


def test_metrics_arithmetic():
    # tp=2 fp=1 fn=1 tn=6
    preds = [True, True, True, False] + [False] * 6
    labels = [True, True, False, True] + [False] * 6
    m = compute_metrics(preds, labels)
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 6)
    assert m.accuracy == pytest.approx(0.8)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)


def test_metrics_identities_exact():
    rng = np.random.default_rng(3)
    preds = [bool(v) for v in rng.integers(2, size=100)]
    labels = [bool(v) for v in rng.integers(2, size=100)]
    m = compute_metrics(preds, labels)
    assert m.tp + m.fp + m.tn + m.fn == 100
    assert m.accuracy == (m.tp + m.tn) / 100
    if m.precision + m.recall > 0:
        assert m.f1 == 2 * m.precision * m.recall / (m.precision + m.recall)


def test_metrics_zero_denominators_flagged():
    m = compute_metrics([False, False], [False, False])
    assert m.precision == 0.0 and m.degenerate_precision
    assert m.recall == 0.0 and m.degenerate_recall


def test_metrics_length_mismatch():
    with pytest.raises(DetectError):
        compute_metrics([True], [True, False])


def test_detection_config_validation():
    with pytest.raises(DetectError):
        DetectionConfig(sample_period_s=1.0, detection_window_s=0.4)  # rounds to 0 samples
