"""Windowed theft verdicts, ROC threshold tuning, majority ensemble, metrics.

The error series is reshaped into non-overlapping detection windows of
``WindowConfig.detection_len`` samples (32 s); each window's mean error is its
representative error, and a window is flagged as theft when that error
strictly exceeds the model threshold.
Thresholds are tuned on an ROC sweep by Youden's J, and the theft flags of the
m single-feature models, one row per model in a boolean matrix, are combined
by a strict majority vote.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DetectError(Exception):
    pass


class DegenerateLabelsError(DetectError):
    """ROC sweep needs both owner and theft labels present."""


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # ascending
    tpr: np.ndarray
    fpr: np.ndarray
    auc: float


def windows_verdicts(errors: np.ndarray, detection_len: int) -> np.ndarray:
    """Mean error of each full detection window; window i starts at i * detection_len.

    A window is theft iff its mean error > the model threshold.
    """
    if not 1 <= detection_len <= len(errors):
        raise DetectError(
            f"detection window of {detection_len} samples must be in [1, {len(errors)}], "
            "the length of the error series"
        )
    n = len(errors) // detection_len
    return errors[: n * detection_len].reshape(n, detection_len).mean(axis=1)


def ensemble_vote(theft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Theft votes and ensemble verdict per window from a (models, windows) boolean matrix.

    With m models a window is theft iff more than m / 2 of them flag it.
    """
    theft = np.asarray(theft, dtype=bool)
    if theft.ndim != 2 or len(theft) == 0:
        raise DetectError(f"ensemble expects a (models, windows) matrix, got shape {theft.shape}")
    votes = theft.sum(axis=0)
    return votes, votes * 2 > len(theft)


def threshold_grid(errors: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive unique errors plus sentinels at the ends."""
    unique = np.unique(errors)
    if not unique.size:
        raise DetectError("no errors to grid")
    span = (unique[-1] - unique[0]) or 1.0
    mids = (unique[:-1] + unique[1:]) / 2
    return np.concatenate([[unique[0] - 0.5 * span], mids, [unique[-1] + 0.5 * span]])


def roc_sweep(errors: np.ndarray, labels: np.ndarray, thresholds: np.ndarray) -> RocCurve:
    """TPR/FPR per threshold under strict-greater classification; AUC by trapezoid.

    Positive and negative errors are sorted once; the count above a threshold
    is one binary search in each.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds[1:] < thresholds[:-1]):
        raise DetectError("thresholds must be sorted")
    errors, labels = np.asarray(errors, dtype=float), np.asarray(labels, dtype=bool)
    pos, neg = np.sort(errors[labels]), np.sort(errors[~labels])
    if not pos.size or not neg.size:
        raise DegenerateLabelsError("both owner and theft labels are required")
    tpr = (pos.size - np.searchsorted(pos, thresholds, side="right")) / pos.size
    fpr = (neg.size - np.searchsorted(neg, thresholds, side="right")) / neg.size
    order = np.lexsort((tpr, fpr))
    auc = float(np.trapezoid(tpr[order], fpr[order]))
    return RocCurve(thresholds=thresholds, tpr=tpr, fpr=fpr, auc=auc)


def optimize_threshold(curve: RocCurve) -> float:
    """Threshold maximizing Youden's J = tpr - fpr; ties prefer the larger."""
    if not curve.thresholds.size:
        raise DetectError("empty ROC curve")
    j = curve.tpr - curve.fpr
    return float(curve.thresholds[j == j.max()].max())


def compute_metrics(predictions: np.ndarray, labels: np.ndarray) -> dict:
    """Confusion counts and rates with theft as the positive class; a 0/0 rate is 0."""
    pred, truth = np.asarray(predictions, dtype=bool), np.asarray(labels, dtype=bool)
    if pred.shape != truth.shape:
        raise DetectError("predictions and labels differ in length")
    tp, fp = int(np.sum(pred & truth)), int(np.sum(pred & ~truth))
    fn, tn = int(np.sum(~pred & truth)), int(np.sum(~pred & ~truth))
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return {
        "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        "accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1,
    }


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    rows = zip(curve.thresholds.tolist(), curve.tpr.tolist(), curve.fpr.tolist())
    lines = ["threshold,tpr,fpr"] + [f"{t!r},{tpr!r},{fpr!r}" for t, tpr, fpr in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
