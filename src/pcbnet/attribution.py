"""Integrated-gradients token attribution for trained text-input models.

Attributions are computed per embedding dimension as (x - x') times the mean
gradient of the target-class logit along the straight path from baseline x'
to input x, sampled on a midpoint grid, then summed per token. The report
always carries the completeness gap |sum(attributions) - (F(x) - F(x'))|.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, backward_from
from .data import ReviewRecord, segment_pcb
from .errors import CapabilityError, ConfigError
from .models import TEXT, Batch, ModelInstance
from .text import EncodedBatch, TextEncoder, tokenize


@dataclass
class AttributionReport:
    record_id: str
    tokens: list[str]
    scores: list[float]
    target_class: int
    predicted_class: int
    completeness_gap: float
    output_value: float        # F(x), the target-class logit at the input
    baseline_value: float      # F(x'), the target-class logit at the baseline
    steps: int
    baseline: str
    pcb_target: str
    token_attributions: np.ndarray = field(repr=False, default=None)  # [L, e]

    def to_json_obj(self) -> dict:
        return {
            "record_id": self.record_id,
            "tokens": self.tokens,
            "scores": self.scores,
            "target_class": self.target_class,
            "predicted_class": self.predicted_class,
            "completeness_gap": self.completeness_gap,
            "output_value": self.output_value,
            "baseline_value": self.baseline_value,
            "steps": self.steps,
            "baseline": self.baseline,
            "pcb_target": self.pcb_target,
        }


def _record_batch(model: ModelInstance,
                  record: ReviewRecord) -> tuple[Batch, list[str]]:
    encoder = model.encoder
    tokens = tokenize(record.text)[:encoder.config.max_sequence_length]
    width = max(len(tokens), 1)
    ids = np.full((1, width), encoder.vocab.pad_id, dtype=np.int64)
    mask = np.zeros((1, width), dtype=np.float64)
    ids[0, :len(tokens)] = encoder.vocab.ids(tokens)
    mask[0, :len(tokens)] = 1.0
    return Batch(
        record_ids=[record.id],
        encoded=EncodedBatch(ids, mask),
        appraisal_features=(np.array([record.appraisals], dtype=np.float64) - 4.0) / 3.0,
        emotion_features=(np.array([record.emotions], dtype=np.float64) - 4.0) / 3.0,
    ), tokens


# α-steps per batched forward/backward; bounds memory for any ``steps``
_ALPHA_BLOCK = 128


def _repeat_rows(batch: Batch, rows: int) -> Batch:
    """The one-record batch with its rating features repeated ``rows`` times."""
    def repeat(features):
        return None if features is None else np.repeat(features, rows, axis=0)
    return Batch(record_ids=batch.record_ids * rows, encoded=batch.encoded,
                 appraisal_features=repeat(batch.appraisal_features),
                 emotion_features=repeat(batch.emotion_features))


def _path_gradient_sum(model: ModelInstance, batch: Batch, p_base: np.ndarray,
                       p_delta: np.ndarray, target_class: int, steps: int) -> np.ndarray:
    """Sum over the midpoint α-grid of dF/dp at p' + α (p - p'), shape ``[e]``.

    Each block of α-steps is one batched forward and one backward; rows are
    independent, so row j's gradient is the one a batch-1 pass would give.
    """
    grad_sum = np.zeros_like(p_base[0])
    for first in range(0, steps, _ALPHA_BLOCK):
        alphas = (np.arange(first, min(first + _ALPHA_BLOCK, steps)) + 0.5) / steps
        path = Tensor(p_base + alphas[:, None] * p_delta, requires_grad=True)
        logits = model.forward(_repeat_rows(batch, len(alphas)),
                               pooled_text=path)["pcb_logits"]
        seed = np.zeros_like(logits.data)
        seed[:, target_class] = 1.0
        backward_from(logits, seed)
        grad_sum += path.grad.sum(axis=0)
    return grad_sum


def integrated_gradients(model: ModelInstance, record: ReviewRecord,
                         pcb_target: str = "promote",
                         target_class: int | str | None = None,
                         steps: int = 128,
                         baseline: str = "pad") -> AttributionReport:
    """Attribution of the target-class PCB logit onto the record's tokens.

    ``target_class`` defaults to the record's gold segmented class;
    "predicted" attributes the model's own argmax class instead.
    ``baseline`` is the pad-token embedding sequence, or "zero" for the
    zero-vector baseline.

    Every text model reads the token embeddings x only through their masked
    mean p = sum_i mask_i x_i / n, which is linear. So the straight path
    x' + α (x - x') pools to p' + α (p - p'), and dF/dx_i = (mask_i / n) dF/dp:
    the α-steps run on the pooled ``[e]`` vector, all at once, and the
    per-token gradient follows from the pooled one.
    """
    if TEXT not in model.spec.input_modalities:
        raise CapabilityError(
            f"architecture {model.spec.id} has no text input; attribution "
            "requires a text-input model")
    if not isinstance(model.encoder, TextEncoder):
        raise CapabilityError(
            "attribution requires a differentiable path into token embeddings; "
            "this model uses precomputed embeddings")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if baseline not in ("pad", "zero"):
        raise ConfigError(f"baseline must be 'pad' or 'zero', got {baseline!r}")

    batch, tokens = _record_batch(model, record)
    encoder = model.encoder
    mask = batch.encoded.attention_mask

    # Only the pooled path needs a gradient. With every parameter flag off, no
    # other forward records a graph, backward skips the weight products, and
    # no gradient is left in the model for a later optimizer step to pick up.
    trainable = [p for p in model.parameters().values() if p.requires_grad]
    for p in trainable:
        p.requires_grad = False
    try:
        x = encoder.token_embeddings(batch.encoded).data  # [1, L, e]
        if baseline == "pad":
            x_base = np.broadcast_to(encoder.embedding.data[encoder.vocab.pad_id],
                                     x.shape).copy()
        else:
            x_base = np.zeros_like(x)
        p_x = encoder.pool(Tensor(x), mask)
        p_base = encoder.pool(Tensor(x_base), mask)
        logits_x = model.forward(batch, pooled_text=p_x)["pcb_logits"].data[0]
        predicted = int(np.argmax(logits_x))
        if target_class == "predicted":
            target_class = predicted
        elif target_class is None:
            target_class = int(segment_pcb(record.pcb(pcb_target)))
        if not isinstance(target_class, int) or not 0 <= target_class < 3:
            raise ConfigError(f"target_class must be in [0, 3), got {target_class!r}")
        logits_base = model.forward(batch, pooled_text=p_base)["pcb_logits"].data[0]
        grad_sum = _path_gradient_sum(model, batch, p_base.data,
                                      p_x.data - p_base.data, target_class, steps)
    finally:
        for p in trainable:
            p.requires_grad = True
    counts = np.maximum(mask.sum(axis=1), 1.0)[:, None, None]
    # dF/dx_i summed over the path is (mask_i / n) grad_sum
    attributions = (x - x_base) * (mask[:, :, None] * grad_sum / counts) / steps
    f_x = float(logits_x[target_class])
    f_base = float(logits_base[target_class])

    n_tokens = len(tokens)
    token_attr = attributions[0, :n_tokens]
    token_scores = token_attr.sum(axis=1)
    gap = abs(float(token_scores.sum()) - (f_x - f_base))
    return AttributionReport(
        record_id=record.id,
        tokens=tokens,
        scores=[float(s) for s in token_scores],
        target_class=target_class,
        predicted_class=predicted,
        completeness_gap=gap,
        output_value=f_x,
        baseline_value=f_base,
        steps=steps,
        baseline=baseline,
        pcb_target=pcb_target,
        token_attributions=token_attr,
    )


def rank_tokens(report: AttributionReport, k: int) -> list[tuple[int, str, float]]:
    """Top-k (position, token, score) by |score| descending, earlier position wins ties."""
    k = min(k, len(report.tokens))
    order = sorted(range(len(report.tokens)),
                   key=lambda i: (-abs(report.scores[i]), i))
    return [(i, report.tokens[i], report.scores[i]) for i in order[:k]]


def report_to_json(report: AttributionReport) -> str:
    return json.dumps(report.to_json_obj(), sort_keys=True, indent=2)


def report_to_html(report: AttributionReport) -> str:
    """Token heat map: symmetric diverging scale normalized per input.

    Positive scores shade green, negative red; intensity is |score| over the
    input's own max |score|.
    """
    peak = max((abs(s) for s in report.scores), default=0.0)
    spans = []
    for token, score in zip(report.tokens, report.scores):
        weight = 0.0 if peak == 0 else abs(score) / peak
        color = "0,160,60" if score >= 0 else "200,30,30"
        spans.append(
            f'<span title="{score:+.6f}" style="background: rgba({color},{weight:.3f});'
            f' padding:1px 2px; border-radius:2px">{html.escape(token)}</span>')
    class_names = ("Low", "Moderate", "High")
    body = (
        f"<h2>Attribution for record {html.escape(report.record_id)}</h2>\n"
        f"<p>PCB target: {html.escape(report.pcb_target)} &middot; "
        f"attributed class: {class_names[report.target_class]} &middot; "
        f"predicted class: {class_names[report.predicted_class]} &middot; "
        f"steps: {report.steps} &middot; baseline: {report.baseline} &middot; "
        f"completeness gap: {report.completeness_gap:.2e}</p>\n"
        f'<p style="line-height:1.9; max-width:70em">{" ".join(spans)}</p>\n')
    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            "<title>token attribution</title></head>\n"
            f"<body style=\"font-family:sans-serif\">\n{body}</body></html>\n")
