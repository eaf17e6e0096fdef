"""Windowed theft verdicts, ROC threshold tuning, majority ensemble, metrics.

The error series is reshaped into non-overlapping detection windows (32 s by
default); each window's mean error is its representative error, and a window
is flagged as theft when that error strictly exceeds the model threshold.
Thresholds are tuned on an ROC sweep by Youden's J, and the theft flags of
five single-feature models, one row per model in a boolean matrix, are
combined by majority vote.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .reconstruct import ErrorSeries
from .windowing import _round_half_up

ENSEMBLE_SIZE = 5
MAJORITY = 3


class DetectError(Exception):
    pass


class DegenerateLabelsError(DetectError):
    """ROC sweep needs both owner and theft labels present."""


@dataclass(frozen=True)
class DetectionConfig:
    sample_period_s: float
    detection_window_s: float = 32.0

    def __post_init__(self) -> None:
        if self.detection_len < 1:
            raise DetectError("detection window shorter than one sample")

    @property
    def detection_len(self) -> int:
        return _round_half_up(self.detection_window_s / self.sample_period_s)


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float, float], ...]  # (threshold, tpr, fpr)
    auc: float


@dataclass(frozen=True)
class MetricSet:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate_precision: bool = False
    degenerate_recall: bool = False


def windows_verdicts(err: ErrorSeries, cfg: DetectionConfig) -> np.ndarray:
    """Mean error of each full detection window; window i starts at i * detection_len.

    A window is theft iff its mean error > the model threshold.
    """
    w = cfg.detection_len
    n = len(err.errors) // w
    if n == 0:
        raise DetectError(f"error series of length {len(err.errors)} shorter than detection window {w}")
    return err.errors[: n * w].reshape(n, w).mean(axis=1)


def ensemble_vote(theft: np.ndarray) -> np.ndarray:
    """Theft votes per window from a (models, windows) boolean matrix.

    A window is theft iff at least MAJORITY of the ENSEMBLE_SIZE models flag it.
    """
    theft = np.asarray(theft, dtype=bool)
    if theft.ndim != 2 or len(theft) != ENSEMBLE_SIZE:
        raise DetectError(f"ensemble expects {ENSEMBLE_SIZE} model rows, got shape {theft.shape}")
    return theft.sum(axis=0)


def threshold_grid(errors: list[float]) -> list[float]:
    """Midpoints between consecutive unique errors plus sentinels at the ends."""
    unique = sorted(set(errors))
    if not unique:
        raise DetectError("no errors to grid")
    span = (unique[-1] - unique[0]) or 1.0
    grid = [unique[0] - 0.5 * span]
    grid += [(a + b) / 2 for a, b in zip(unique, unique[1:])]
    grid.append(unique[-1] + 0.5 * span)
    return grid


def roc_sweep(errors_labeled: list[tuple[float, bool]], thresholds: list[float]) -> RocCurve:
    """TPR/FPR per threshold under strict-greater classification; AUC by trapezoid."""
    if sorted(thresholds) != list(thresholds):
        raise DetectError("thresholds must be sorted")
    labels = [lab for _, lab in errors_labeled]
    pos = sum(labels)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise DegenerateLabelsError("both owner and theft labels are required")
    points = []
    for thr in thresholds:
        tp = sum(1 for e, lab in errors_labeled if lab and e > thr)
        fp = sum(1 for e, lab in errors_labeled if not lab and e > thr)
        points.append((float(thr), tp / pos, fp / neg))
    ordered = sorted(points, key=lambda p: (p[2], p[1]))
    fpr = [p[2] for p in ordered]
    tpr = [p[1] for p in ordered]
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(points=tuple(points), auc=auc)


def optimize_threshold(curve: RocCurve) -> float:
    """Threshold maximizing Youden's J = tpr - fpr; ties prefer the larger."""
    if not curve.points:
        raise DetectError("empty ROC curve")
    best_thr = None
    best_j = -math.inf
    for thr, tpr, fpr in curve.points:
        j = tpr - fpr
        if j > best_j or (j == best_j and thr > best_thr):
            best_j, best_thr = j, thr
    return best_thr


def compute_metrics(predictions: list[bool], labels: list[bool]) -> MetricSet:
    """Confusion-matrix metrics with theft as the positive class."""
    if len(predictions) != len(labels):
        raise DetectError("predictions and labels differ in length")
    tp = sum(1 for p, l in zip(predictions, labels) if p and l)
    fp = sum(1 for p, l in zip(predictions, labels) if p and not l)
    tn = sum(1 for p, l in zip(predictions, labels) if not p and not l)
    fn = sum(1 for p, l in zip(predictions, labels) if not p and l)
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    degenerate_precision = (tp + fp) == 0
    degenerate_recall = (tp + fn) == 0
    precision = 0.0 if degenerate_precision else tp / (tp + fp)
    recall = 0.0 if degenerate_recall else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return MetricSet(
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=accuracy, precision=precision, recall=recall, f1=f1,
        degenerate_precision=degenerate_precision, degenerate_recall=degenerate_recall,
    )


def metrics_dict(m: MetricSet) -> dict:
    return {
        "tp": m.tp, "fp": m.fp, "tn": m.tn, "fn": m.fn,
        "accuracy": m.accuracy, "precision": m.precision,
        "recall": m.recall, "f1": m.f1,
    }


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    lines = ["threshold,tpr,fpr"]
    lines += [f"{repr(t)},{repr(tpr)},{repr(fpr)}" for t, tpr, fpr in curve.points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_detection_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
