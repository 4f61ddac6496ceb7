"""Classification metrics: accuracy and support-weighted F1."""

from __future__ import annotations

import numpy as np

from .errors import SizeError


def accuracy_score(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise SizeError(f"label shapes disagree: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise SizeError("cannot score an empty label vector")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def weighted_f1(y_true, y_pred, n_classes: int = 3) -> float:
    """Support-weighted mean of per-class F1; F1 is 0 when precision+recall is 0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise SizeError("cannot score an empty label vector")
    cm = confusion_matrix(y_true, y_pred, n_classes)
    total = 0.0
    n = y_true.size
    for c in range(n_classes):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        support = cm[c, :].sum()
        if support == 0:
            continue
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        total += (support / n) * f1
    return float(total)
