"""Evaluation metrics: accuracy, macro precision/recall/F1, AUROC, AUPRC.

Macro averages run over all classes 0..C-1; a class absent from both truth
and predictions contributes 0 to the average (a warning is logged). Empty
precision/recall denominators also contribute 0. AUROC is the Mann-Whitney
pairwise-ordering statistic with ties counted 0.5, macro-averaged one-vs-rest
over classes present in the truth. AUPRC sweeps thresholds over the unique
scores and uses step-wise (rectangular) area. Classes with zero positives or
zero negatives are skipped; if every class is skipped the input is degenerate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateLabelError

logger = logging.getLogger(__name__)

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "auroc", "auprc")


def classification_metrics(y_true, y_pred, num_classes: int) -> dict[str, float]:
    """Accuracy plus macro-averaged precision, recall, and F1."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.size == 0:
        raise ContractError("classification_metrics: empty input")
    if y_true.shape != y_pred.shape:
        raise ContractError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ContractError(f"{name} outside [0, {num_classes})")

    accuracy = float((y_true == y_pred).mean())
    precisions, recalls, f1s = [], [], []
    for c in range(num_classes):
        tp = int(((y_pred == c) & (y_true == c)).sum())
        fp = int(((y_pred == c) & (y_true != c)).sum())
        fn = int(((y_pred != c) & (y_true == c)).sum())
        if tp + fp + fn == 0:
            logger.warning("class %d absent from both truth and predictions; counted as 0", c)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return {
        "accuracy": accuracy,
        "precision": float(np.mean(precisions)),
        "recall": float(np.mean(recalls)),
        "f1": float(np.mean(f1s)),
    }


def _binary_auroc(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mann-Whitney statistic via midranks; ties count one half."""
    scores = np.concatenate([pos_scores, neg_scores])
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos, n_neg = pos_scores.size, neg_scores.size
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _binary_auprc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Step-wise area under the precision-recall curve (threshold sweep)."""
    order = np.argsort(-scores, kind="mergesort")
    labels = labels[order]
    scores = scores[order]
    tp = np.cumsum(labels)
    predicted = np.arange(1, labels.size + 1)
    # Curve points only where the threshold actually drops.
    last_of_value = np.nonzero(np.append(scores[1:] != scores[:-1], True))[0]
    precision = tp[last_of_value] / predicted[last_of_value]
    recall = tp[last_of_value] / tp[-1]
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def _ovr_average(y_true, scores, per_class_fn) -> float:
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.size == 0:
        raise ContractError("empty input")
    if scores.ndim != 2 or scores.shape[0] != y_true.size:
        raise ContractError(f"scores must be (M, C), got {scores.shape} for M={y_true.size}")
    values = []
    for c in range(scores.shape[1]):
        mask = y_true == c
        n_pos = int(mask.sum())
        if n_pos == 0 or n_pos == y_true.size:
            continue
        values.append(per_class_fn(mask, scores[:, c]))
    if not values:
        raise DegenerateLabelError("every class lacks positives or negatives")
    return float(np.mean(values))


def auroc_ovr(y_true, scores) -> float:
    """One-vs-rest AUROC, macro-averaged over classes present in y_true."""
    return _ovr_average(
        y_true, scores,
        lambda mask, s: _binary_auroc(s[mask], s[~mask]),
    )


def auprc(y_true, scores) -> float:
    """One-vs-rest AUPRC (step-wise area), macro-averaged."""
    return _ovr_average(
        y_true, scores,
        lambda mask, s: _binary_auprc(mask.astype(np.int64), s),
    )


def compute_all(y_true, y_pred, scores, num_classes: int) -> dict[str, float]:
    """The full six-metric record for one evaluation."""
    out = classification_metrics(y_true, y_pred, num_classes)
    out["auroc"] = auroc_ovr(y_true, scores)
    out["auprc"] = auprc(y_true, scores)
    return out


@dataclass
class EvalReport:
    """Per-run metric values plus mean and population std across runs."""

    runs: list[dict[str, float]] = field(default_factory=list)

    def add(self, metrics: dict[str, float]) -> None:
        self.runs.append({k: float(metrics[k]) for k in METRIC_NAMES})

    def mean(self) -> dict[str, float]:
        self._require_runs()
        return {k: float(np.mean([r[k] for r in self.runs])) for k in METRIC_NAMES}

    def std(self) -> dict[str, float]:
        self._require_runs()
        return {k: float(np.std([r[k] for r in self.runs])) for k in METRIC_NAMES}

    def _require_runs(self) -> None:
        if not self.runs:
            raise ContractError("report has no runs")
