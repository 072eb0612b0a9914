"""Detector evaluation: ROC curves, trapezoidal AUC, false-positive rates.

An alarm fires when a score strictly exceeds a threshold. The ROC curve
sweeps the thresholds +inf, every distinct score (descending), then -inf, so
it always starts at (0, 0) and ends at (1, 1) and handles tied scores by
grouping them on one point. Trapezoidal area over that curve equals the
probability that a random positive outscores a random negative, counting
ties as half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass
class RocCurve:
    thresholds: np.ndarray  # descending, +inf first, -inf last
    fpr: np.ndarray
    tpr: np.ndarray
    n_pos: int
    n_neg: int


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise InvalidArgumentError("scores and labels must be 1-D and the same length")
    if np.any(np.isnan(scores)):
        raise InvalidArgumentError("scores contain NaN")
    uniq = set(np.unique(labels).tolist())
    if not uniq <= {0, 1}:
        raise InvalidArgumentError(f"labels must be 0 or 1, got {sorted(uniq)}")
    return scores, labels.astype(int)


def roc(scores, labels) -> RocCurve:
    """ROC over all distinct thresholds; needs both classes present."""
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise InvalidArgumentError("ROC needs at least one positive and one negative")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    cum_tp = np.cumsum(sorted_labels)
    cum_fp = np.cumsum(1 - sorted_labels)
    # last index of each run of equal scores = rates once everything
    # strictly above the next distinct value has alarmed (!= not diff:
    # diff of tied infinities is nan and would split the run)
    boundary = np.nonzero(sorted_scores[1:] != sorted_scores[:-1])[0]
    cut = np.concatenate([boundary, [scores.size - 1]])
    thresholds = np.concatenate([[np.inf], sorted_scores[cut], [-np.inf]])
    tpr = np.concatenate([[0.0], cum_tp[cut] / n_pos])
    fpr = np.concatenate([[0.0], cum_fp[cut] / n_neg])
    # the -inf threshold alarms on everything, closing the curve at (1, 1)
    return RocCurve(
        thresholds=thresholds,
        fpr=np.concatenate([fpr, [1.0]]),
        tpr=np.concatenate([tpr, [1.0]]),
        n_pos=n_pos,
        n_neg=n_neg,
    )


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


def fpr_at(scores, labels, threshold: float) -> float:
    """Fraction of negatives whose score strictly exceeds the threshold."""
    scores, labels = _check_scores_labels(scores, labels)
    neg = scores[labels == 0]
    if neg.size == 0:
        raise InvalidArgumentError("no negatives to measure a false-positive rate on")
    return float((neg > threshold).mean())


def tpr_at(scores, labels, threshold: float) -> float:
    scores, labels = _check_scores_labels(scores, labels)
    pos = scores[labels == 1]
    if pos.size == 0:
        raise InvalidArgumentError("no positives to measure a detection rate on")
    return float((pos > threshold).mean())


def fpr_at_tpr(curve: RocCurve, tpr_target: float = 0.95) -> float:
    """Smallest false-positive rate among operating points whose detection
    rate reaches the target (the high-sensitivity corner of the curve)."""
    if not 0.0 < tpr_target <= 1.0:
        raise InvalidArgumentError("tpr_target must be in (0, 1]")
    ok = curve.tpr >= tpr_target
    return float(curve.fpr[ok].min())


def roc_rows(curve: RocCurve) -> list:
    """(threshold, fpr, tpr) tuples, ready for CSV export."""
    return [
        (float(t), float(f), float(p))
        for t, f, p in zip(curve.thresholds, curve.fpr, curve.tpr)
    ]
