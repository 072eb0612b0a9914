"""ROC curves, AUC, and operating-point rates."""
import numpy as np
import pytest

from aubase import evaluate
from aubase.errors import InvalidArgumentError


def pair_count_auc(scores, labels) -> float:
    """Brute-force P(score+ > score-) + half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# curve construction
# ---------------------------------------------------------------------------


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=40)
    labels = (rng.uniform(size=40) < 0.4).astype(int)
    labels[:2] = [0, 1]  # both classes present
    curve = evaluate.roc(scores, labels)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert np.all(np.diff(curve.fpr) >= 0.0)
    assert np.all(np.diff(curve.tpr) >= 0.0)
    assert curve.thresholds[0] == np.inf and curve.thresholds[-1] == -np.inf
    assert np.all(np.diff(curve.thresholds[1:-1]) < 0)  # distinct, descending


def test_perfect_separation_auc_one():
    curve = evaluate.roc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1])
    assert evaluate.auc(curve) == pytest.approx(1.0)


def test_identical_scores_auc_half():
    curve = evaluate.roc([3.0, 3.0, 3.0, 3.0], [0, 1, 0, 1])
    assert evaluate.auc(curve) == pytest.approx(0.5)


def test_hand_case_three_quarters():
    # pos {3, 2}, neg {1, 2.5}: pairs won 3 of 4
    scores = [3.0, 2.0, 1.0, 2.5]
    labels = [1, 1, 0, 0]
    curve = evaluate.roc(scores, labels)
    assert evaluate.auc(curve) == pytest.approx(0.75)
    assert pair_count_auc(scores, labels) == 0.75


def test_hand_case_from_spe_style_scores():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert evaluate.auc(evaluate.roc(scores, labels)) == pytest.approx(
        pair_count_auc(scores, labels)
    )
    assert pair_count_auc(scores, labels) == 0.75


def test_trapezoid_equals_pair_counting_battery():
    rng = np.random.default_rng(1)
    for trial in range(40):
        n = int(rng.integers(4, 60))
        scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 3)] = 1
        rng.shuffle(labels)
        if labels.sum() in (0, n):
            continue
        curve = evaluate.roc(scores, labels)
        assert abs(evaluate.auc(curve) - pair_count_auc(scores, labels)) < 1e-12


def test_infinite_scores_with_ties():
    # tied +inf on one positive and one negative: half credit applies
    scores = [np.inf, np.inf, 1.0, 0.0]
    labels = [1, 0, 1, 0]
    curve = evaluate.roc(scores, labels)
    want = pair_count_auc(scores, labels)
    assert want == 0.625
    assert abs(evaluate.auc(curve) - want) < 1e-12


def test_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=30)
    labels = (rng.uniform(size=30) < 0.5).astype(int)
    labels[:2] = [0, 1]
    base = evaluate.auc(evaluate.roc(scores, labels))
    cubed = evaluate.auc(evaluate.roc(scores**3, labels))
    assert cubed == pytest.approx(base, abs=1e-12)


def test_label_reversal_maps_auc_to_complement():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=25)
    labels = (rng.uniform(size=25) < 0.4).astype(int)
    labels[:2] = [0, 1]
    a = evaluate.auc(evaluate.roc(scores, labels))
    b = evaluate.auc(evaluate.roc(scores, 1 - labels))
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_single_class_rejected():
    with pytest.raises(InvalidArgumentError):
        evaluate.roc([1.0, 2.0], [1, 1])
    with pytest.raises(InvalidArgumentError):
        evaluate.roc([1.0, 2.0], [0, 0])
    with pytest.raises(InvalidArgumentError):
        evaluate.roc([np.nan, 2.0], [0, 1])
    with pytest.raises(InvalidArgumentError):
        evaluate.roc([1.0, 2.0], [0, 2])


# ---------------------------------------------------------------------------
# operating points
# ---------------------------------------------------------------------------


def test_fpr_at_hand_cases():
    scores = [1.0, 2.0, 3.0, 9.0]
    labels = [0, 0, 0, 1]
    assert evaluate.fpr_at(scores, labels, 10.0) == 0.0
    assert evaluate.fpr_at(scores, labels, 0.5) == 1.0
    assert evaluate.fpr_at(scores, labels, 1.5) == pytest.approx(2.0 / 3.0)
    # strict inequality: a negative exactly at the threshold does not alarm
    assert evaluate.fpr_at(scores, labels, 3.0) == 0.0


def test_tpr_at_strictly_greater():
    scores = [1.0, 2.0, 3.0]
    labels = [0, 1, 1]
    assert evaluate.tpr_at(scores, labels, 2.0) == pytest.approx(0.5)
    assert evaluate.tpr_at(scores, labels, 0.0) == 1.0


def test_rate_functions_need_their_class():
    with pytest.raises(InvalidArgumentError):
        evaluate.fpr_at([1.0, 2.0], [1, 1], 0.5)
    with pytest.raises(InvalidArgumentError):
        evaluate.tpr_at([1.0, 2.0], [0, 0], 0.5)


def test_fpr_at_tpr_smallest_feasible():
    # two positives at 5 and 1, negatives at 0.5 and 2
    curve = evaluate.roc([5.0, 1.0, 0.5, 2.0], [1, 1, 0, 0])
    # full detection requires threshold < 1 -> one negative alarms
    assert evaluate.fpr_at_tpr(curve, 0.95) == pytest.approx(0.5)
    # half detection is free
    assert evaluate.fpr_at_tpr(curve, 0.5) == 0.0
    with pytest.raises(InvalidArgumentError):
        evaluate.fpr_at_tpr(curve, 0.0)


def test_fpr_at_tpr_matches_bruteforce_scan():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=50)
    labels = (rng.uniform(size=50) < 0.5).astype(int)
    labels[:2] = [0, 1]
    curve = evaluate.roc(scores, labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    best = 1.0
    for t in np.concatenate([[np.inf, -np.inf], scores]):
        tpr = float((pos > t).mean())
        if tpr >= 0.9:
            best = min(best, float((neg > t).mean()))
    assert evaluate.fpr_at_tpr(curve, 0.9) == pytest.approx(best)


# ---------------------------------------------------------------------------
# export rows
# ---------------------------------------------------------------------------


def test_roc_rows_mirror_curve():
    curve = evaluate.roc([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1])
    rows = evaluate.roc_rows(curve)
    assert len(rows) == len(curve.thresholds)
    for (t, f, p), ct, cf, cp in zip(rows, curve.thresholds, curve.fpr, curve.tpr):
        assert (t, f, p) == (ct, cf, cp)
