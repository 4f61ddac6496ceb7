"""Integrated-gradients token attribution for trained text-input models.

A token's attribution is the dot product of (x - x') with the mean gradient
of the target-class logit along the straight path from baseline x' to input
x, sampled on a midpoint grid. The path is walked on the encoder output,
which the model reads as ``Batch.text_features``.
The report always carries the completeness gap |sum(attributions) - (F(x) - F(x'))|.
"""

from __future__ import annotations

import html
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, backward_from, embedding_bag, frozen
from .data import ReviewRecord
from .errors import CapabilityError, ConfigError
from .experiment import Dataset, featurize
from .models import TEXT, ModelInstance
from .schema import Spec
from .serialize import is_int, result_json
from .text import token_mask, tokenize

# integrated_gradients' rules for these arguments; ``pcbnet attribute`` checks its flags by them
STEPS = Spec("int", ge=1)
BASELINE = Spec("str", choices=("pad", "zero"))


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


# α-steps per batched forward/backward; bounds memory for any ``steps``
_ALPHA_BLOCK = 128


def _logits(model: ModelInstance, data: Dataset, pcb_target: str,
            text_features: Tensor) -> Tensor:
    """PCB logits of the one record in ``data``, once per row of ``text_features``."""
    ratings = tuple(m for m in model.spec.input_modalities if m != TEXT)
    batch = data.batch(np.zeros(len(text_features.data), np.int64), pcb_target, ratings)
    batch.text_features = text_features
    return model.forward(batch)["pcb_logits"]


def _path_gradient_sum(model: ModelInstance, data: Dataset, pcb_target: str,
                       q_base: np.ndarray, q_delta: np.ndarray, target_class: int,
                       steps: int) -> np.ndarray:
    """Sum over the midpoint α-grid of dF/dq at q' + α (q - q'), shape ``[d]``.

    Each block of α-steps is one forward and one backward on the 2-row basis
    [q'; q - q'], with the block's rows [1, α] as ``Batch.alpha_path``: the model
    runs its layers up to each ReLU on the basis and its rating inputs on one
    row (``ModelInstance``). The path's rows are the rows of [1, α] @ basis,
    and the first column is all ones, so the basis' first gradient row is
    the sum of the rows' gradients; each row's gradient is the one a batch-1
    pass would give, up to rounding.
    """
    ratings = tuple(m for m in model.spec.input_modalities if m != TEXT)
    batch = data.batch([0], pcb_target, ratings)
    grad_sum = np.zeros_like(q_base[0])
    for first in range(0, steps, _ALPHA_BLOCK):
        alphas = (np.arange(first, min(first + _ALPHA_BLOCK, steps)) + 0.5) / steps
        basis = Tensor(np.concatenate([q_base, q_delta]), requires_grad=True)
        batch.text_features = basis
        batch.alpha_path = np.stack([np.ones_like(alphas), alphas], axis=1)
        logits = model.forward(batch)["pcb_logits"]
        seed = np.zeros_like(logits.data)
        seed[:, target_class] = 1.0
        backward_from(logits, seed)
        grad_sum += basis.grad[0]
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

    Every text model reads the token embeddings x only through the encoder
    output q = p W + b of their masked mean p = sum_i mask_i x_i / n. Both maps
    are affine, so the straight path x' + α (x - x') maps to q' + α (q - q'),
    and dF/dx_i = (mask_i / n) dF/dq Wᵀ: the α-steps run on the ``[d]`` vector
    q, all at once, as ``Batch.text_features``. p, and the pad baseline's p'
    (all-pad ids, same mask), go through ``encode``'s own ``embedding_bag`` and
    projection, so F(x) is the model's logit for the record; the zero
    baseline's p' is zero. The record is featurized by ``featurize``, so its
    token ids, truncation and rating features are the ones the model was trained on.

    It computes in float64 whatever dtype the model stores: a float32 model's
    parameters are widened, exactly, once per call.
    """
    if TEXT not in model.spec.input_modalities:
        raise CapabilityError(
            f"architecture {model.spec.id} has no text input; attribution "
            "requires a text-input model")
    if model.encoder is None:
        raise CapabilityError(
            "attribution requires a differentiable path into token embeddings; "
            "this model uses precomputed embeddings")
    steps = int(STEPS.check("steps", steps))
    BASELINE.check("baseline", baseline)

    encoder = model.encoder
    data = featurize([record], encoder.vocab, encoder.max_sequence_length)
    ids, mask = data.token_ids, token_mask(data.token_ids, encoder.vocab.pad_id)
    tokens = tokenize(record.text)[:int(mask.sum())]

    # Only the α-path needs a gradient. With every parameter frozen, no other
    # forward records a graph, backward skips the weight products, and no
    # gradient is left in the model for a later optimizer step to pick up.
    with frozen(model.parameters().values(), np.float64):
        p_x = embedding_bag(encoder.embedding, ids, mask)
        if baseline == "pad":
            p_base = embedding_bag(encoder.embedding, np.full_like(ids, encoder.vocab.pad_id),
                                   mask)
        else:
            p_base = Tensor(np.zeros_like(p_x.data))
        q_x, q_base = encoder.projection(p_x), encoder.projection(p_base)
        logits_x = _logits(model, data, pcb_target, q_x).data[0]
        predicted = int(np.argmax(logits_x))
        if target_class == "predicted":
            target_class = predicted
        elif target_class is None:
            target_class = int(data.pcb_labels[pcb_target][0])
        target_class = int(Spec("int", ge=0, le=2).check("target_class", target_class))
        logits_base = _logits(model, data, pcb_target, q_base).data[0]
        grad_sum_q = _path_gradient_sum(model, data, pcb_target, q_base.data,
                                        q_x.data - q_base.data, target_class, steps)
        n = len(tokens)  # the record's tokens fill the first n positions
        x = encoder.embedding.data[ids[0, :n]]  # [n, e]
        x_base = encoder.embedding.data[encoder.vocab.pad_id] if baseline == "pad" else 0.0
        grad_sum_p = grad_sum_q @ encoder.projection.weight.data.T  # dF/dp = dF/dq Wᵀ
    # dF/dx_i summed over the path is grad_sum_p / n for each of the n tokens
    token_scores = (x - x_base) @ grad_sum_p / max(n, 1) / steps
    f_x = float(logits_x[target_class])
    f_base = float(logits_base[target_class])
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
    )


def rank_tokens(report: AttributionReport, k: int) -> list[tuple[int, str, float]]:
    """Top-k (position, token, score) by |score| descending, earlier position wins ties."""
    if not is_int(k) or k < 0:
        raise ConfigError(f"k must be an integer >= 0, got {k!r}")
    k = min(k, len(report.tokens))
    order = sorted(range(len(report.tokens)),
                   key=lambda i: (-abs(report.scores[i]), i))
    return [(i, report.tokens[i], report.scores[i]) for i in order[:k]]


def report_to_json(report: AttributionReport) -> str:
    return result_json(asdict(report), f"the attribution report of record {report.record_id!r}")


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
