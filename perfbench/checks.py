"""Correctness checks that recompute the program's outputs independently.

Nothing here imports pcbnet: labels are segmented from the raw ratings,
metrics are recounted by brute force, checkpoints are parsed from their
byte layout, and the architecture-12 forward pass and its gradient are
written out by hand in numpy. Each check returns the names of the checks
that failed, so a run can count and name them.
"""

from __future__ import annotations

import json
import re
import struct

import numpy as np

TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")
PAD_ID, UNK_ID = 0, 1
# Largest deviation tolerated between the program and a recomputation that
# performs the same float64 arithmetic in another order.
REL_TOL = 1e-9


def segment_pcb(rating: int) -> int:
    """Likert PCB rating to class: 1-2 Low (0), 3-5 Moderate (1), 6-7 High (2)."""
    if not 1 <= rating <= 7:
        raise ValueError(f"PCB rating {rating} outside 1..7")
    return 0 if rating <= 2 else 1 if rating <= 5 else 2


def brute_accuracy(y_true, y_pred) -> float:
    return sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)


def brute_weighted_f1(y_true, y_pred, n_classes: int = 3) -> float:
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
        total += support / n * f1
    return total


def majority_accuracy(train_labels, test_labels) -> float:
    """Test accuracy of always predicting the training split's majority class.

    Ties go to the lowest class.
    """
    counts = [sum(1 for y in train_labels if y == c) for c in range(3)]
    majority = counts.index(max(counts))
    return sum(1 for y in test_labels if y == majority) / len(test_labels)


def check_repetition(pcb_ratings, train_idx, test_idx, test_pred,
                     reported_accuracy: float, reported_f1: float,
                     margin: float) -> list[str]:
    """One training repetition against labels segmented here.

    ``test_pred`` are the final model's test-split predictions;
    ``pcb_ratings`` are the raw ratings of every record.
    """
    y_true = [segment_pcb(pcb_ratings[i]) for i in test_idx]
    y_pred = [int(p) for p in test_pred]
    failed = []
    accuracy = brute_accuracy(y_true, y_pred)
    if accuracy != reported_accuracy:
        failed.append("accuracy_recount")
    if abs(brute_weighted_f1(y_true, y_pred) - reported_f1) > 1e-12:
        failed.append("f1_recount")
    majority = majority_accuracy([segment_pcb(pcb_ratings[i]) for i in train_idx],
                                 y_true)
    if accuracy < majority + margin:
        failed.append("beats_majority")
    return failed


# ---------------------------------------------------------------------------
# Checkpoints and the architecture-12 reference model

def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Parse a parameter file: magic line, u64 header length, JSON, float64 data."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = b"PCBNET1\n"
    if not raw.startswith(magic):
        raise ValueError(f"{path}: bad magic")
    (header_len,) = struct.unpack("<Q", raw[len(magic):len(magic) + 8])
    start = len(magic) + 8
    header = json.loads(raw[start:start + header_len])
    data = start + header_len
    tensors = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        tensors[entry["name"]] = np.frombuffer(
            raw, dtype="<f8", count=count, offset=data + 8 * entry["offset"]).reshape(shape)
    return tensors, header["meta"]


def tokenize(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


class Arch12Reference:
    """The theoretical model's forward pass and its gradient wrt the pooled
    token embedding, from a checkpoint's tensors.

    pooled p -> e = p Wp + bp -> a = e Wa + ba -> m = relu(a W0 + b0) W1 + b1
    -> logits = relu([e, a, m] P0 + c0) P1 + c1.
    """

    def __init__(self, path):
        t, meta = read_checkpoint(path)
        if meta["architecture_id"] != 12:
            raise ValueError("reference model covers architecture 12 only")
        self.table = t["encoder.embedding"]
        self.wp, self.bp = t["encoder.projection.weight"], t["encoder.projection.bias"]
        self.wa, self.ba = t["appraisal_head.layer0.weight"], t["appraisal_head.layer0.bias"]
        self.w0, self.b0 = t["emotion_head.layer0.weight"], t["emotion_head.layer0.bias"]
        self.w1, self.b1 = t["emotion_head.layer1.weight"], t["emotion_head.layer1.bias"]
        self.p0, self.c0 = t["pcb_head.layer0.weight"], t["pcb_head.layer0.bias"]
        self.p1, self.c1 = t["pcb_head.layer1.weight"], t["pcb_head.layer1.bias"]
        self.token_ids = {tok: i for i, tok in enumerate(meta["vocab"])}
        self.max_len = meta["max_sequence_length"]

    def tokens(self, text: str) -> list[str]:
        return tokenize(text)[:self.max_len]

    def embeddings(self, tokens: list[str]) -> np.ndarray:
        return self.table[[self.token_ids.get(tok, UNK_ID) for tok in tokens]]

    def _layers(self, p: np.ndarray):
        e = p @ self.wp + self.bp
        a = e @ self.wa + self.ba
        h = a @ self.w0 + self.b0
        m = np.maximum(h, 0.0) @ self.w1 + self.b1
        z = np.concatenate([e, a, m], axis=1) @ self.p0 + self.c0
        return h, z, np.maximum(z, 0.0) @ self.p1 + self.c1

    def logits(self, pooled: np.ndarray) -> np.ndarray:
        """Logits for pooled embeddings ``[b, d]``."""
        return self._layers(pooled)[2]

    def grad_pooled(self, pooled: np.ndarray, target: int) -> np.ndarray:
        """d logits[:, target] / d pooled, row by row, with relu'(0) = 0."""
        h, z, _ = self._layers(pooled)
        d, na = self.wa.shape
        dz = (z > 0) * self.p1[:, target]
        dcat = dz @ self.p0.T
        de, da, dm = dcat[:, :d], dcat[:, d:d + na], dcat[:, d + na:]
        da = da + ((dm @ self.w1.T) * (h > 0)) @ self.w0.T
        de = de + da @ self.wa.T
        return de @ self.wp.T

    def predict(self, text: str) -> int:
        pooled = self.embeddings(self.tokens(text)).mean(axis=0, keepdims=True)
        return int(np.argmax(self.logits(pooled)[0]))

    def attribution(self, tokens: list[str], target: int, steps: int):
        """Midpoint-rule IG from the pad baseline, through the mean pooling.

        The logit depends on the token embeddings x_i only through their
        mean p, so token i receives (x_i - x'_i) . mean_alpha grad_p F / n.
        Returns (per-token scores, F(x), F(x')).
        """
        x = self.embeddings(tokens)
        x_base = self.table[PAD_ID]
        p_x = x.mean(axis=0)
        alphas = (np.arange(steps) + 0.5) / steps
        path = x_base + alphas[:, None] * (p_x - x_base)
        mean_grad = self.grad_pooled(path, target).mean(axis=0)
        scores = (x - x_base) @ mean_grad / len(tokens)
        ends = self.logits(np.stack([p_x, x_base]))[:, target]
        return scores, float(ends[0]), float(ends[1])


def _close(got: float, want: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want), scale)


def check_attribution(ref: Arch12Reference, text: str, gold_rating: int,
                      report, steps: int) -> tuple[list[str], float]:
    """An integrated-gradients report against the reference model.

    Returns the failed checks and the completeness gap relative to
    |F(x) - F(x')|, which is reported but not gated.
    """
    failed = []
    tokens = ref.tokens(text)
    if list(report.tokens) != tokens:
        return ["tokens"], float("nan")
    if report.target_class != segment_pcb(gold_rating):
        failed.append("target_class")
    scores, f_x, f_base = ref.attribution(tokens, report.target_class, steps)
    if not _close(report.output_value, f_x):
        failed.append("output_value")
    if not _close(report.baseline_value, f_base):
        failed.append("baseline_value")
    got = np.asarray(report.scores)
    if np.abs(got - scores).max() > REL_TOL * max(np.abs(scores).max(), 1e-300):
        failed.append("attributions")
    gap = abs(float(got.sum()) - (f_x - f_base))
    if not _close(report.completeness_gap, gap, abs(f_x - f_base)):
        failed.append("completeness_gap")
    if report.predicted_class != ref.predict(text):
        failed.append("predicted_class")
    return failed, gap / max(abs(f_x - f_base), 1e-300)
