"""The twelve-architecture model zoo with introspectable computation graphs.

Architectures 1-3 are single-modality baselines, 4-6 force text through a
low-dimensional bottleneck, 7-9 fuse independently trained single-modality
towers, 10-11 jointly predict behavior plus one auxiliary target, and 12
chains text -> appraisals -> emotions -> behavior with all three
representations fused for the final prediction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat
from .data import APPRAISAL_COUNT, EMOTION_COUNT
from .errors import ConfigError, InputError
from .nn import FFNNHead
from .serialize import load_params, save_params
from .text import (EncodedBatch, PrecomputedEncoder, TextEncoder,
                   TextEncoderConfig, Vocabulary)

PCB_CLASSES = 3
APPRAISAL_LOGITS = APPRAISAL_COUNT * 3  # 3-way block per dimension
TEXT, APPRAISALS, EMOTIONS = "Text", "Appraisals", "Emotions"

FAMILY_BASELINE = "Baseline"
FAMILY_CONSTRAINED = "Constrained"
FAMILY_MULTIMODAL = "Multi-modal"
FAMILY_MULTITASK = "Multi-task"
FAMILY_THEORETICAL = "Theoretical model"


@dataclass(frozen=True)
class NodeSpec:
    name: str
    widths: tuple[int, ...]


@dataclass(frozen=True)
class ArchitectureSpec:
    id: int
    name: str
    family: str
    input_modalities: tuple[str, ...]
    auxiliary_targets: tuple[str, ...]
    nodes: tuple[NodeSpec, ...]
    edges: tuple[tuple[str, str], ...]


@dataclass
class Batch:
    """Model inputs for one minibatch; fields are None when a modality is absent."""

    record_ids: list[str]
    encoded: EncodedBatch | None = None
    appraisal_features: np.ndarray | None = None  # [b, 20] scaled ratings
    emotion_features: np.ndarray | None = None    # [b, 8] scaled ratings
    pcb_labels: np.ndarray | None = None          # [b] int class
    appraisal_target_flags: np.ndarray | None = None    # [b, 60] one-hot blocks
    appraisal_target_classes: np.ndarray | None = None  # [b, 20] class indices
    emotion_target_flags: np.ndarray | None = None      # [b, 8] binary

    def size(self) -> int:
        return len(self.record_ids)


def _pcb_head_widths(arch_id: int) -> tuple[int, ...]:
    if arch_id == 1:
        return (PCB_CLASSES,)
    if arch_id in (10, 11, 12):
        return (512, PCB_CLASSES)
    return (1024, 512, PCB_CLASSES)


def _architecture_table(d: int) -> dict[int, ArchitectureSpec]:
    """Build all twelve specs for encoder output width d."""
    specs: dict[int, ArchitectureSpec] = {}

    def spec(arch_id, name, family, inputs, aux, nodes, edges):
        specs[arch_id] = ArchitectureSpec(
            id=arch_id, name=name, family=family,
            input_modalities=tuple(inputs), auxiliary_targets=tuple(aux),
            nodes=tuple(NodeSpec(n, tuple(w)) for n, w in nodes),
            edges=tuple((a, b) for a, b in edges))

    pcb = _pcb_head_widths
    spec(1, "Text -> PCB", FAMILY_BASELINE, [TEXT], [],
         [("TextEmbedding", (d,)), ("PCBHead", pcb(1))],
         [("TextEmbedding", "PCBHead")])
    spec(2, "Appraisals -> PCB", FAMILY_BASELINE, [APPRAISALS], [],
         [("AppraisalInput", (APPRAISAL_COUNT,)), ("PCBHead", pcb(2))],
         [("AppraisalInput", "PCBHead")])
    spec(3, "Emotions -> PCB", FAMILY_BASELINE, [EMOTIONS], [],
         [("EmotionInput", (EMOTION_COUNT,)), ("PCBHead", pcb(3))],
         [("EmotionInput", "PCBHead")])
    spec(4, "Text -> Appraisals -> PCB", FAMILY_CONSTRAINED, [TEXT], [APPRAISALS],
         [("TextEmbedding", (d,)), ("AppraisalHead", (APPRAISAL_LOGITS,)),
          ("PCBHead", pcb(4))],
         [("TextEmbedding", "AppraisalHead"), ("AppraisalHead", "PCBHead")])
    spec(5, "Text -> Emotions -> PCB", FAMILY_CONSTRAINED, [TEXT], [EMOTIONS],
         [("TextEmbedding", (d,)), ("EmotionHead", (EMOTION_COUNT,)),
          ("PCBHead", pcb(5))],
         [("TextEmbedding", "EmotionHead"), ("EmotionHead", "PCBHead")])
    spec(6, "Text -> Appraisals -> Emotions -> PCB", FAMILY_CONSTRAINED, [TEXT],
         [APPRAISALS, EMOTIONS],
         [("TextEmbedding", (d,)), ("AppraisalHead", (APPRAISAL_LOGITS,)),
          ("EmotionHead", (512, EMOTION_COUNT)), ("PCBHead", pcb(6))],
         [("TextEmbedding", "AppraisalHead"), ("AppraisalHead", "EmotionHead"),
          ("EmotionHead", "PCBHead")])
    spec(7, "Text + Appraisals -> PCB", FAMILY_MULTIMODAL, [TEXT, APPRAISALS], [],
         [("TextEmbedding", (d,)), ("AppraisalInput", (APPRAISAL_COUNT,)),
          ("AppraisalTower", (1024, 512)), ("FusionConcat", (d + 512,)),
          ("PCBHead", pcb(7))],
         [("TextEmbedding", "FusionConcat"), ("AppraisalInput", "AppraisalTower"),
          ("AppraisalTower", "FusionConcat"), ("FusionConcat", "PCBHead")])
    spec(8, "Text + Emotions -> PCB", FAMILY_MULTIMODAL, [TEXT, EMOTIONS], [],
         [("TextEmbedding", (d,)), ("EmotionInput", (EMOTION_COUNT,)),
          ("EmotionTower", (1024, 512)), ("FusionConcat", (d + 512,)),
          ("PCBHead", pcb(8))],
         [("TextEmbedding", "FusionConcat"), ("EmotionInput", "EmotionTower"),
          ("EmotionTower", "FusionConcat"), ("FusionConcat", "PCBHead")])
    spec(9, "Text + Appraisals + Emotions -> PCB", FAMILY_MULTIMODAL,
         [TEXT, APPRAISALS, EMOTIONS], [],
         [("TextEmbedding", (d,)), ("AppraisalInput", (APPRAISAL_COUNT,)),
          ("EmotionInput", (EMOTION_COUNT,)), ("AppraisalTower", (1024, 512)),
          ("EmotionTower", (1024, 512)), ("FusionConcat", (d + 1024,)),
          ("PCBHead", pcb(9))],
         [("TextEmbedding", "FusionConcat"), ("AppraisalInput", "AppraisalTower"),
          ("AppraisalTower", "FusionConcat"), ("EmotionInput", "EmotionTower"),
          ("EmotionTower", "FusionConcat"), ("FusionConcat", "PCBHead")])
    spec(10, "Text -> PCB + Appraisals", FAMILY_MULTITASK, [TEXT], [APPRAISALS],
         [("TextEmbedding", (d,)), ("AppraisalHead", (APPRAISAL_LOGITS,)),
          ("FusionConcat", (d + APPRAISAL_LOGITS,)), ("PCBHead", pcb(10))],
         [("TextEmbedding", "AppraisalHead"), ("TextEmbedding", "FusionConcat"),
          ("AppraisalHead", "FusionConcat"), ("FusionConcat", "PCBHead")])
    spec(11, "Text -> PCB + Emotions", FAMILY_MULTITASK, [TEXT], [EMOTIONS],
         [("TextEmbedding", (d,)), ("EmotionHead", (EMOTION_COUNT,)),
          ("FusionConcat", (d + EMOTION_COUNT,)), ("PCBHead", pcb(11))],
         [("TextEmbedding", "EmotionHead"), ("TextEmbedding", "FusionConcat"),
          ("EmotionHead", "FusionConcat"), ("FusionConcat", "PCBHead")])
    spec(12, "Theoretical model", FAMILY_THEORETICAL, [TEXT],
         [APPRAISALS, EMOTIONS],
         [("TextEmbedding", (d,)), ("AppraisalHead", (APPRAISAL_LOGITS,)),
          ("EmotionHead", (512, EMOTION_COUNT)),
          ("FusionConcat", (d + APPRAISAL_LOGITS + EMOTION_COUNT,)),
          ("PCBHead", pcb(12))],
         [("TextEmbedding", "AppraisalHead"), ("AppraisalHead", "EmotionHead"),
          ("TextEmbedding", "FusionConcat"), ("AppraisalHead", "FusionConcat"),
          ("EmotionHead", "FusionConcat"), ("FusionConcat", "PCBHead")])
    return specs


def architecture_spec(arch_id: int, encoder_dim: int = 128) -> ArchitectureSpec:
    table = _architecture_table(encoder_dim)
    if arch_id not in table:
        raise ConfigError(f"unknown architecture id {arch_id}; valid ids are 1..12")
    return table[arch_id]


class ModelInstance:
    """One built architecture: encoder slot, heads, and optional frozen towers."""

    def __init__(self, spec: ArchitectureSpec, encoder_dim: int):
        self.spec = spec
        self.encoder_dim = encoder_dim
        self.encoder: TextEncoder | PrecomputedEncoder | None = None
        self.heads: dict[str, FFNNHead] = {}
        self.components: dict[str, "ModelInstance"] = {}

    # -- parameters -------------------------------------------------------

    def parameters(self, trainable_only: bool = False) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.encoder is not None:
            out.update(self.encoder.parameters())
        for head in self.heads.values():
            out.update(head.parameters())
        for comp in self.components.values():
            out.update(comp.parameters())
        if trainable_only:
            out = {k: v for k, v in out.items() if v.requires_grad}
        return out

    def freeze_components(self) -> None:
        for comp in self.components.values():
            for p in comp.parameters().values():
                p.requires_grad = False

    def freeze_component_classifiers(self) -> None:
        """Freeze only the component layers excluded from the fused path.

        The fused forward consumes each component's second-to-last activation,
        so its final classification layer (the whole single-layer head for the
        text model) never receives gradients and must not sit in the optimizer.
        """
        for comp in self.components.values():
            head = comp.heads["pcb_head"]
            layers = head.layers if comp.spec.id == 1 else head.layers[-1:]
            for layer in layers:
                for p in layer.parameters().values():
                    p.requires_grad = False

    # -- forward ----------------------------------------------------------

    def _require(self, batch: Batch) -> None:
        if TEXT in self.spec.input_modalities and batch.encoded is None \
                and not isinstance(self.encoder, PrecomputedEncoder):
            raise InputError("missing modality: Text")
        if APPRAISALS in self.spec.input_modalities and batch.appraisal_features is None:
            raise InputError("missing modality: Appraisals")
        if EMOTIONS in self.spec.input_modalities and batch.emotion_features is None:
            raise InputError("missing modality: Emotions")

    def embed_text(self, batch: Batch, pooled_text: Tensor | None = None) -> Tensor:
        """Encoder output for the batch's text.

        ``pooled_text [b, e]`` stands in for the masked mean of the token
        embeddings: it goes straight to the encoder's projection, and the
        batch's token ids are not read.
        """
        if isinstance(self.encoder, PrecomputedEncoder):
            if pooled_text is not None:
                raise ConfigError("precomputed encoder cannot accept pooled text")
            return self.encoder.embed_records(batch.record_ids)
        assert isinstance(self.encoder, TextEncoder)
        if pooled_text is not None:
            return self.encoder.projection(pooled_text)
        return self.encoder.encode(batch.encoded)

    def penultimate(self, batch: Batch, pooled_text: Tensor | None = None) -> Tensor:
        """Second-to-last activation, excluding the final classification layer."""
        from .autodiff import relu
        arch = self.spec.id
        if arch == 1:
            return self.embed_text(batch, pooled_text)
        if arch in (2, 3):
            x = Tensor(batch.appraisal_features if arch == 2 else batch.emotion_features)
            head = self.heads["pcb_head"]
            for layer in head.layers[:-1]:
                x = relu(layer(x))
            return x
        raise ConfigError(f"penultimate not defined for architecture {arch}")

    def forward(self, batch: Batch,
                pooled_text: Tensor | None = None) -> dict[str, Tensor]:
        """Compute pcb_logits plus whatever auxiliary logits the spec declares."""
        self._require(batch)
        arch = self.spec.id
        out: dict[str, Tensor] = {}
        if arch == 1:
            emb = self.embed_text(batch, pooled_text)
            out["pcb_logits"] = self.heads["pcb_head"](emb)
        elif arch == 2:
            out["pcb_logits"] = self.heads["pcb_head"](Tensor(batch.appraisal_features))
        elif arch == 3:
            out["pcb_logits"] = self.heads["pcb_head"](Tensor(batch.emotion_features))
        elif arch == 4:
            emb = self.embed_text(batch, pooled_text)
            app = self.heads["appraisal_head"](emb)
            out["appraisal_logits"] = app
            out["pcb_logits"] = self.heads["pcb_head"](app)
        elif arch == 5:
            emb = self.embed_text(batch, pooled_text)
            emo = self.heads["emotion_head"](emb)
            out["emotion_logits"] = emo
            out["pcb_logits"] = self.heads["pcb_head"](emo)
        elif arch == 6:
            emb = self.embed_text(batch, pooled_text)
            app = self.heads["appraisal_head"](emb)
            emo = self.heads["emotion_head"](app)
            out["appraisal_logits"] = app
            out["emotion_logits"] = emo
            out["pcb_logits"] = self.heads["pcb_head"](emo)
        elif arch in (7, 8, 9):
            parts = [self.components["text"].penultimate(batch, pooled_text)]
            if APPRAISALS in self.spec.input_modalities:
                parts.append(self.components["appraisals"].penultimate(batch))
            if EMOTIONS in self.spec.input_modalities:
                parts.append(self.components["emotions"].penultimate(batch))
            fused = concat(parts, axis=1)
            out["pcb_logits"] = self.heads["pcb_head"](fused)
        elif arch == 10:
            emb = self.embed_text(batch, pooled_text)
            app = self.heads["appraisal_head"](emb)
            out["appraisal_logits"] = app
            out["pcb_logits"] = self.heads["pcb_head"](concat([emb, app], axis=1))
        elif arch == 11:
            emb = self.embed_text(batch, pooled_text)
            emo = self.heads["emotion_head"](emb)
            out["emotion_logits"] = emo
            out["pcb_logits"] = self.heads["pcb_head"](concat([emb, emo], axis=1))
        elif arch == 12:
            emb = self.embed_text(batch, pooled_text)
            app = self.heads["appraisal_head"](emb)
            emo = self.heads["emotion_head"](app)
            out["appraisal_logits"] = app
            out["emotion_logits"] = emo
            out["pcb_logits"] = self.heads["pcb_head"](concat([emb, app, emo], axis=1))
        else:
            raise ConfigError(f"unknown architecture id {arch}")
        return out


def build(arch_id: int, encoder_dim: int = 128, vocab: Vocabulary | None = None,
          seed: int = 0, max_sequence_length: int = 256,
          precomputed: PrecomputedEncoder | None = None,
          _prefix: str = "", _rng: np.random.Generator | None = None) -> ModelInstance:
    """Instantiate architecture ``arch_id`` with seed-controlled initialization."""
    spec = architecture_spec(arch_id, encoder_dim)
    rng = _rng if _rng is not None else np.random.default_rng(seed)
    model = ModelInstance(spec, encoder_dim)
    p = _prefix

    def make_encoder() -> TextEncoder | PrecomputedEncoder:
        if precomputed is not None:
            return precomputed
        v = vocab if vocab is not None else Vocabulary(["<pad>", "<unk>"])
        return TextEncoder(v, TextEncoderConfig(encoder_dim, max_sequence_length),
                           rng, path=f"{p}encoder")

    if arch_id == 1:
        model.encoder = make_encoder()
        model.heads["pcb_head"] = FFNNHead(encoder_dim, [PCB_CLASSES],
                                           f"{p}pcb_head", rng)
    elif arch_id in (2, 3):
        in_dim = APPRAISAL_COUNT if arch_id == 2 else EMOTION_COUNT
        model.heads["pcb_head"] = FFNNHead(in_dim, [1024, 512, PCB_CLASSES],
                                           f"{p}pcb_head", rng)
    elif arch_id == 4:
        model.encoder = make_encoder()
        model.heads["appraisal_head"] = FFNNHead(encoder_dim, [APPRAISAL_LOGITS],
                                                 f"{p}appraisal_head", rng)
        model.heads["pcb_head"] = FFNNHead(APPRAISAL_LOGITS, [1024, 512, PCB_CLASSES],
                                           f"{p}pcb_head", rng)
    elif arch_id == 5:
        model.encoder = make_encoder()
        model.heads["emotion_head"] = FFNNHead(encoder_dim, [EMOTION_COUNT],
                                               f"{p}emotion_head", rng)
        model.heads["pcb_head"] = FFNNHead(EMOTION_COUNT, [1024, 512, PCB_CLASSES],
                                           f"{p}pcb_head", rng)
    elif arch_id == 6:
        model.encoder = make_encoder()
        model.heads["appraisal_head"] = FFNNHead(encoder_dim, [APPRAISAL_LOGITS],
                                                 f"{p}appraisal_head", rng)
        model.heads["emotion_head"] = FFNNHead(APPRAISAL_LOGITS, [512, EMOTION_COUNT],
                                               f"{p}emotion_head", rng)
        model.heads["pcb_head"] = FFNNHead(EMOTION_COUNT, [1024, 512, PCB_CLASSES],
                                           f"{p}pcb_head", rng)
    elif arch_id in (7, 8, 9):
        model.components["text"] = build(
            1, encoder_dim, vocab, max_sequence_length=max_sequence_length,
            precomputed=precomputed, _prefix=f"{p}text_model.", _rng=rng)
        model.encoder = model.components["text"].encoder
        fused = encoder_dim
        if arch_id in (7, 9):
            model.components["appraisals"] = build(
                2, encoder_dim, _prefix=f"{p}appraisal_model.", _rng=rng)
            fused += 512
        if arch_id in (8, 9):
            model.components["emotions"] = build(
                3, encoder_dim, _prefix=f"{p}emotion_model.", _rng=rng)
            fused += 512
        model.heads["pcb_head"] = FFNNHead(fused, [1024, 512, PCB_CLASSES],
                                           f"{p}pcb_head", rng)
    elif arch_id == 10:
        model.encoder = make_encoder()
        model.heads["appraisal_head"] = FFNNHead(encoder_dim, [APPRAISAL_LOGITS],
                                                 f"{p}appraisal_head", rng)
        model.heads["pcb_head"] = FFNNHead(encoder_dim + APPRAISAL_LOGITS,
                                           [512, PCB_CLASSES], f"{p}pcb_head", rng)
    elif arch_id == 11:
        model.encoder = make_encoder()
        model.heads["emotion_head"] = FFNNHead(encoder_dim, [EMOTION_COUNT],
                                               f"{p}emotion_head", rng)
        model.heads["pcb_head"] = FFNNHead(encoder_dim + EMOTION_COUNT,
                                           [512, PCB_CLASSES], f"{p}pcb_head", rng)
    elif arch_id == 12:
        model.encoder = make_encoder()
        model.heads["appraisal_head"] = FFNNHead(encoder_dim, [APPRAISAL_LOGITS],
                                                 f"{p}appraisal_head", rng)
        model.heads["emotion_head"] = FFNNHead(APPRAISAL_LOGITS, [512, EMOTION_COUNT],
                                               f"{p}emotion_head", rng)
        model.heads["pcb_head"] = FFNNHead(
            encoder_dim + APPRAISAL_LOGITS + EMOTION_COUNT,
            [512, PCB_CLASSES], f"{p}pcb_head", rng)
    return model


def describe(model: ModelInstance) -> dict:
    """Deterministic, seed-independent serialization of the model graph."""
    spec = model.spec
    return {
        "id": spec.id,
        "name": spec.name,
        "family": spec.family,
        "input_modalities": sorted(spec.input_modalities),
        "auxiliary_targets": sorted(spec.auxiliary_targets),
        "nodes": [{"name": n.name, "widths": list(n.widths)}
                  for n in sorted(spec.nodes, key=lambda n: n.name)],
        "edges": sorted([list(e) for e in spec.edges]),
    }


def describe_json(model: ModelInstance) -> str:
    return json.dumps(describe(model), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Checkpoints

def save_model(path, model: ModelInstance, meta: dict | None = None) -> None:
    """Checkpoint parameters plus enough metadata to rebuild the model."""
    full_meta = {
        "architecture_id": model.spec.id,
        "architecture": describe(model),
        "encoder_dim": model.encoder_dim,
        "encoder_kind": ("precomputed" if isinstance(model.encoder, PrecomputedEncoder)
                         else "trainable" if model.encoder is not None else None),
        "vocab": (model.encoder.vocab.tokens
                  if isinstance(model.encoder, TextEncoder) else None),
        "max_sequence_length": (model.encoder.config.max_sequence_length
                                if isinstance(model.encoder, TextEncoder) else None),
    }
    full_meta.update(meta or {})
    tensors = {name: p.data for name, p in model.parameters().items()}
    save_params(path, tensors, full_meta)


def load_model(path) -> tuple[ModelInstance, dict]:
    tensors, meta = load_params(path)
    if meta.get("encoder_kind") == "precomputed":
        raise ConfigError(
            "checkpoint was trained with externally computed embeddings; "
            "rebuild it in-process with the same embedding file instead")
    vocab = Vocabulary(meta["vocab"]) if meta.get("vocab") else None
    model = build(meta["architecture_id"], meta["encoder_dim"], vocab,
                  max_sequence_length=meta.get("max_sequence_length") or 256)
    params = model.parameters()
    missing = set(params) - set(tensors)
    extra = set(tensors) - set(params)
    if missing or extra:
        raise ConfigError(
            f"checkpoint parameters do not match architecture: "
            f"missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}")
    for name, p in params.items():
        if p.data.shape != tensors[name].shape:
            raise ConfigError(
                f"checkpoint tensor {name} shape {tensors[name].shape} "
                f"!= expected {p.data.shape}")
        p.data = tensors[name].copy()
    return model, meta
