"""Independent oracles shared across test modules.

These stay deliberately naive: central finite differences for gradients,
per-sample counting for metrics. They must never import logic from the code
paths they check.
"""

from __future__ import annotations

import numpy as np

from pcbnet.autodiff import Tensor

H = 1e-6
REL_TOL = 1e-5


def finite_difference_grads(fn, arrays: list[np.ndarray], h: float = H) -> list[np.ndarray]:
    """Central finite differences of scalar fn(arrays) wrt every element."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            f_plus = fn(arrays)
            arr[idx] = orig - h
            f_minus = fn(arrays)
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def assert_close_to_fd(analytic: np.ndarray, numeric: np.ndarray,
                       rel_tol: float = REL_TOL) -> None:
    """Per-element |a - n| <= rel_tol * max(1, |n|)."""
    err = np.abs(analytic - numeric)
    bound = rel_tol * np.maximum(1.0, np.abs(numeric))
    assert np.all(err <= bound), (
        f"gradient mismatch: max err {err.max():.3e}, "
        f"worst bound {bound[np.unravel_index(err.argmax(), err.shape)]:.3e}")


def check_op_gradients(build_loss, arrays: list[np.ndarray],
                       rel_tol: float = REL_TOL) -> None:
    """Compare autodiff gradients of build_loss against finite differences.

    ``build_loss(tensors)`` must return a scalar Tensor from the given leaf
    tensors; the same arrays are re-evaluated numerically.
    """
    from pcbnet.autodiff import backward

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(tensors)
    backward(loss)

    def numeric_fn(arrs):
        ts = [Tensor(a) for a in arrs]
        return float(build_loss(ts).data)

    numeric = finite_difference_grads(numeric_fn, [a.copy() for a in arrays])
    for t, n in zip(tensors, numeric):
        assert t.grad is not None
        assert_close_to_fd(t.grad, n, rel_tol)


# -- metric oracles ---------------------------------------------------------

def brute_force_accuracy(y_true, y_pred) -> float:
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    return correct / len(y_true)


def brute_force_weighted_f1(y_true, y_pred, n_classes: int = 3) -> float:
    n = len(y_true)
    total = 0.0
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        support = sum(1 for t in y_true if t == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += (support / n) * f1
    return total


def majority_class_accuracy(train_labels, eval_labels) -> float:
    """Accuracy of always predicting the train-split majority class."""
    train_labels = np.asarray(train_labels)
    eval_labels = np.asarray(eval_labels)
    values, counts = np.unique(train_labels, return_counts=True)
    majority = values[np.argmax(counts)]
    return float(np.mean(eval_labels == majority))


# -- text encoding oracle ---------------------------------------------------

def reference_encode_texts(texts, vocab, max_sequence_length: int = 256):
    """``(token_ids, mask)`` built from one token list per text, all held.

    The list-based layout that ``encode_texts``, and ``token_mask`` on its ids,
    must reproduce byte for byte: int64 ids padded with the pad id, a float64
    {0, 1} mask, tail truncation, and a width of at least 1. Tokenizing and id
    lookup are the program's own.
    """
    from pcbnet.text import tokenize

    token_lists = [tokenize(t)[:max_sequence_length] for t in texts]
    width = max(max((len(ts) for ts in token_lists), default=0), 1)
    ids = np.full((len(texts), width), vocab.pad_id, dtype=np.int64)
    mask = np.zeros((len(texts), width), dtype=np.float64)
    for i, ts in enumerate(token_lists):
        ids[i, :len(ts)] = vocab.ids(ts)
        mask[i, :len(ts)] = 1.0
    return ids, mask
