"""The twelve architectures, declared once in ``ARCHITECTURES``.

Each entry gives an architecture's name, its family and its heads in order,
the PCB head last. A head is a stack of linear layers with the listed
widths. It reads one or more sources, concatenated in the order listed: the
text embedding, a rating input, an earlier head, or a tower, which is the
penultimate activation of an independently trained architecture 1, 2 or 3.
``build`` walks the heads to create the layers, ``ModelInstance.forward``
walks them to compute the logits, and the input modalities, the auxiliary
targets and the graph that ``describe()`` reports are read from the same
entry, so what is described is what runs.

Architectures 1-3 are single-modality baselines, 4-6 force text through a
low-dimensional bottleneck, 7-9 fuse independently trained single-modality
towers, 10-11 jointly predict behavior plus one auxiliary target, and 12
chains text -> appraisals -> emotions -> behavior with all three
representations fused for the final prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import Tensor, concat
from .data import APPRAISAL_COUNT, EMOTION_COUNT, PCB_TARGETS
from .errors import ConfigError, GraphError, InputError, ValidationError
from .nn import AFFINE, CONSTANT, ROWS, FFNNHead, Value, lift
from .schema import shown
from .serialize import is_int, load_params, save_params
from .text import TextEncoder, Vocabulary

PCB_CLASSES = 3
APPRAISAL_LOGITS = APPRAISAL_COUNT * 3  # 3-way block per dimension
TEXT, APPRAISALS, EMOTIONS = "Text", "Appraisals", "Emotions"
# A budget: a built text encoder trains a vocab x d table and a d x d projection, held four
# times (weights, gradient, two Adam moments), so 0.5 GB for the projection at d = 4096.
MAX_BUILT_ENCODER_DIM = 4096

FAMILY_BASELINE = "Baseline"
FAMILY_CONSTRAINED = "Constrained"
FAMILY_MULTIMODAL = "Multi-modal"
FAMILY_MULTITASK = "Multi-task"
FAMILY_THEORETICAL = "Theoretical model"

# Sources other than heads, each named by its describe() node. The text
# tower has no hidden layer, so describe() draws it as the text embedding.
TEXT_EMBEDDING = "TextEmbedding"
APPRAISAL_INPUT, EMOTION_INPUT = "AppraisalInput", "EmotionInput"
TEXT_TOWER, APPRAISAL_TOWER, EMOTION_TOWER = "TextTower", "AppraisalTower", "EmotionTower"
# Heads, named by their parameter path and their key in ModelInstance.heads.
APPRAISAL_HEAD, EMOTION_HEAD, PCB_HEAD = "appraisal_head", "emotion_head", "pcb_head"

_MODALITIES = {TEXT_EMBEDDING: TEXT, APPRAISAL_INPUT: APPRAISALS, EMOTION_INPUT: EMOTIONS}
# rating input -> (Batch field, width)
_RATINGS = {APPRAISAL_INPUT: ("appraisal_features", APPRAISAL_COUNT),
            EMOTION_INPUT: ("emotion_features", EMOTION_COUNT)}
# tower -> (architecture it is taken from, component key, parameter-path prefix)
_TOWERS = {TEXT_TOWER: (1, "text", "text_model."),
           APPRAISAL_TOWER: (2, "appraisals", "appraisal_model."),
           EMOTION_TOWER: (3, "emotions", "emotion_model.")}
# head -> (describe() node, auxiliary target it predicts)
_HEADS = {APPRAISAL_HEAD: ("AppraisalHead", APPRAISALS),
          EMOTION_HEAD: ("EmotionHead", EMOTIONS),
          PCB_HEAD: ("PCBHead", None)}
FUSION_CONCAT = "FusionConcat"  # describe() node of a head's concatenated sources

_PCB_DEEP = (1024, 512, PCB_CLASSES)
_PCB_SHALLOW = (512, PCB_CLASSES)


@dataclass(frozen=True)
class Head:
    name: str
    inputs: tuple[str, ...]
    widths: tuple[int, ...]


@dataclass(frozen=True)
class ArchitectureSpec:
    id: int
    name: str
    family: str
    heads: tuple[Head, ...]  # in build and forward order; the PCB head last

    @cached_property
    def input_modalities(self) -> tuple[str, ...]:
        found: list[str] = []
        for head in self.heads:
            for source in head.inputs:
                if source in _TOWERS:
                    found += architecture_spec(_TOWERS[source][0]).input_modalities
                elif source in _MODALITIES:
                    found.append(_MODALITIES[source])
        return tuple(dict.fromkeys(found))

    @cached_property
    def auxiliary_targets(self) -> tuple[str, ...]:
        return tuple(_HEADS[head.name][1] for head in self.heads[:-1])

    def width(self, source: str, encoder_dim: int) -> int:
        """Width of ``source`` as a head of this architecture reads it."""
        if source == TEXT_EMBEDDING:
            return encoder_dim
        if source in _RATINGS:
            return _RATINGS[source][1]
        if source in _TOWERS:
            return architecture_spec(_TOWERS[source][0]).penultimate_width(encoder_dim)
        return next(h for h in self.heads if h.name == source).widths[-1]

    def in_width(self, head: Head, encoder_dim: int) -> int:
        return sum(self.width(source, encoder_dim) for source in head.inputs)

    def penultimate_width(self, encoder_dim: int) -> int:
        pcb = self.heads[-1]
        return pcb.widths[-2] if len(pcb.widths) > 1 else self.in_width(pcb, encoder_dim)


ARCHITECTURES = (
    ArchitectureSpec(1, "Text -> PCB", FAMILY_BASELINE, (
        Head(PCB_HEAD, (TEXT_EMBEDDING,), (PCB_CLASSES,)),)),
    ArchitectureSpec(2, "Appraisals -> PCB", FAMILY_BASELINE, (
        Head(PCB_HEAD, (APPRAISAL_INPUT,), _PCB_DEEP),)),
    ArchitectureSpec(3, "Emotions -> PCB", FAMILY_BASELINE, (
        Head(PCB_HEAD, (EMOTION_INPUT,), _PCB_DEEP),)),
    ArchitectureSpec(4, "Text -> Appraisals -> PCB", FAMILY_CONSTRAINED, (
        Head(APPRAISAL_HEAD, (TEXT_EMBEDDING,), (APPRAISAL_LOGITS,)),
        Head(PCB_HEAD, (APPRAISAL_HEAD,), _PCB_DEEP))),
    ArchitectureSpec(5, "Text -> Emotions -> PCB", FAMILY_CONSTRAINED, (
        Head(EMOTION_HEAD, (TEXT_EMBEDDING,), (EMOTION_COUNT,)),
        Head(PCB_HEAD, (EMOTION_HEAD,), _PCB_DEEP))),
    ArchitectureSpec(6, "Text -> Appraisals -> Emotions -> PCB", FAMILY_CONSTRAINED, (
        Head(APPRAISAL_HEAD, (TEXT_EMBEDDING,), (APPRAISAL_LOGITS,)),
        Head(EMOTION_HEAD, (APPRAISAL_HEAD,), (512, EMOTION_COUNT)),
        Head(PCB_HEAD, (EMOTION_HEAD,), _PCB_DEEP))),
    ArchitectureSpec(7, "Text + Appraisals -> PCB", FAMILY_MULTIMODAL, (
        Head(PCB_HEAD, (TEXT_TOWER, APPRAISAL_TOWER), _PCB_DEEP),)),
    ArchitectureSpec(8, "Text + Emotions -> PCB", FAMILY_MULTIMODAL, (
        Head(PCB_HEAD, (TEXT_TOWER, EMOTION_TOWER), _PCB_DEEP),)),
    ArchitectureSpec(9, "Text + Appraisals + Emotions -> PCB", FAMILY_MULTIMODAL, (
        Head(PCB_HEAD, (TEXT_TOWER, APPRAISAL_TOWER, EMOTION_TOWER), _PCB_DEEP),)),
    ArchitectureSpec(10, "Text -> PCB + Appraisals", FAMILY_MULTITASK, (
        Head(APPRAISAL_HEAD, (TEXT_EMBEDDING,), (APPRAISAL_LOGITS,)),
        Head(PCB_HEAD, (TEXT_EMBEDDING, APPRAISAL_HEAD), _PCB_SHALLOW))),
    ArchitectureSpec(11, "Text -> PCB + Emotions", FAMILY_MULTITASK, (
        Head(EMOTION_HEAD, (TEXT_EMBEDDING,), (EMOTION_COUNT,)),
        Head(PCB_HEAD, (TEXT_EMBEDDING, EMOTION_HEAD), _PCB_SHALLOW))),
    ArchitectureSpec(12, "Theoretical model", FAMILY_THEORETICAL, (
        Head(APPRAISAL_HEAD, (TEXT_EMBEDDING,), (APPRAISAL_LOGITS,)),
        Head(EMOTION_HEAD, (APPRAISAL_HEAD,), (512, EMOTION_COUNT)),
        Head(PCB_HEAD, (TEXT_EMBEDDING, APPRAISAL_HEAD, EMOTION_HEAD), _PCB_SHALLOW))),
)
_BY_ID = {spec.id: spec for spec in ARCHITECTURES}


def architecture_spec(arch_id: int) -> ArchitectureSpec:
    if arch_id not in _BY_ID:
        raise ConfigError(f"unknown architecture id {shown(arch_id)}; valid ids are 1..12")
    return _BY_ID[arch_id]


@dataclass
class Batch:
    """Model inputs for one minibatch; fields are None when a modality is absent."""

    token_ids: np.ndarray | None = None           # [b, L] int64, padded with the pad id
    # [b, d] encoder output, given in place of token ids
    text_features: np.ndarray | Tensor | None = None
    appraisal_features: np.ndarray | None = None  # [b, 20] scaled ratings
    emotion_features: np.ndarray | None = None    # [b, 8] scaled ratings
    pcb_labels: np.ndarray | None = None          # [b] int class
    appraisal_target_classes: np.ndarray | None = None  # [b, 20] class indices
    emotion_target_flags: np.ndarray | None = None      # [b, 8] binary
    # Integrated gradients' α-path, [s, 2] with rows [1 - α, α]. With it,
    # ``text_features`` is the 2-row basis [q'; q], the text embedding at the
    # baseline and at the input, each rating input is one row, and each output
    # has one row per α (``ModelInstance``).
    alpha_path: np.ndarray | None = None


class ModelInstance:
    """One built architecture: text encoder, heads, and optional frozen towers.

    A text model without an encoder reads ``Batch.text_features`` alone.

    Every value of an ordinary batch is per row (``nn.ROWS``). With
    ``Batch.alpha_path`` the walk is integrated gradients' α-path and its
    values have the kinds of ``nn``: the text embedding is AFFINE and the
    rating inputs CONSTANT. A linear map keeps a kind, a ReLU turns an affine
    value into one row per α, and a head whose sources mix kinds multiplies
    each by its own rows of the first weight. So every product up to a
    branch's first ReLU runs on two rows, and the rating towers on one. Those
    weight rows record no gradient, so such a walk refuses, before it records
    anything, a model with a parameter that is not frozen.
    """

    def __init__(self, spec: ArchitectureSpec, encoder_dim: int):
        self.spec = spec
        self.encoder_dim = encoder_dim
        self.encoder: TextEncoder | None = None
        self.heads: dict[str, FFNNHead] = {}
        self.components: dict[str, "ModelInstance"] = {}

    # -- parameters -------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.encoder is not None:
            out.update(self.encoder.parameters())
        for head in self.heads.values():
            out.update(head.parameters())
        for comp in self.components.values():
            out.update(comp.parameters())
        return out

    # -- forward ----------------------------------------------------------

    def _require(self, batch: Batch) -> None:
        text = (batch.text_features if batch.text_features is not None or self.encoder is None
                else batch.token_ids)
        for modality, value in ((TEXT, text), (APPRAISALS, batch.appraisal_features),
                                (EMOTIONS, batch.emotion_features)):
            if modality in self.spec.input_modalities and value is None:
                raise InputError(f"missing modality: {modality}")

    def embed_text(self, batch: Batch) -> Tensor:
        """The ``[b, d]`` text embedding: ``batch.text_features`` when set, else
        the encoder's output for ``batch.token_ids``."""
        features = batch.text_features
        if features is None:
            return self.encoder.encode(batch.token_ids)
        return features if isinstance(features, Tensor) else Tensor(features)

    def _read(self, head: Head, batch: Batch, values: dict[str, Value]) -> list[Value]:
        """``head``'s sources, each computed once into ``values``: concatenated
        into one value, or one value per source if they mix kinds."""
        on_path = batch.alpha_path is not None
        for source in head.inputs:
            if source in values:
                continue
            if source == TEXT_EMBEDDING:
                values[source] = Value(self.embed_text(batch), AFFINE if on_path else ROWS)
            elif source in _RATINGS:
                values[source] = Value(Tensor(getattr(batch, _RATINGS[source][0])),
                                       CONSTANT if on_path else ROWS)
            else:  # an ordinary batch calls penultimate, which the benchmark's tracer counts
                tower = self.components[_TOWERS[source][1]]
                values[source] = (tower._walk(batch)[1] if on_path
                                  else Value(tower.penultimate(batch), ROWS))
        parts = [values[source] for source in head.inputs]
        if len(parts) == 1 or len({part.kind for part in parts}) > 1:
            return parts
        return [Value(concat([part.tensor for part in parts], axis=1), parts[0].kind)]

    def _walk(self, batch: Batch) -> tuple[dict[str, Value], Value]:
        """Every head before the PCB head, by name, and the PCB head's hidden activation."""
        self._require(batch)
        if batch.alpha_path is not None:
            trained = next((p for p in self.parameters().values() if p.requires_grad), None)
            if trained is not None:
                raise GraphError(f"parameter {trained.path!r} must be frozen on an α-path")
        *earlier, pcb = self.spec.heads
        values: dict[str, Value] = {}
        for head in earlier:
            values[head.name] = self.heads[head.name].run(self._read(head, batch, values),
                                                          batch.alpha_path)
        return values, self.heads[pcb.name].run(self._read(pcb, batch, values),
                                                batch.alpha_path, final=False)

    def penultimate(self, batch: Batch) -> Tensor:
        """Second-to-last activation, excluding the final classification layer."""
        return self._walk(batch)[1].tensor

    def forward(self, batch: Batch) -> dict[str, Tensor]:
        """Compute pcb_logits plus whatever auxiliary logits the spec declares,
        one row per α on an α-path."""
        values, hidden = self._walk(batch)
        path = batch.alpha_path
        values[PCB_HEAD] = self.heads[PCB_HEAD].layers[-1].run([hidden], False, path)
        return {head.name.replace("_head", "_logits"): lift(values[head.name], ROWS, path).tensor
                for head in self.spec.heads}


def build(arch_id: int, encoder_dim: int = 128, vocab: Vocabulary | None = None,
          seed: int = 0, max_sequence_length: int = 256, precomputed: bool = False,
          _prefix: str = "") -> ModelInstance:
    """Instantiate architecture ``arch_id`` with seed-controlled initialization.

    Heads are created in table order, each after the encoder it is the first
    to read. A tower is built as its architecture 1, 2 or 3 baseline is, from
    its own generator on the same ``seed``. With ``precomputed`` no encoder is
    built: the text input is ``Batch.text_features``, ``encoder_dim`` wide.
    """
    spec = architecture_spec(arch_id)
    rng = np.random.default_rng(seed)
    model = ModelInstance(spec, encoder_dim)
    for head in spec.heads:
        for source in head.inputs:
            if source == TEXT_EMBEDDING and model.encoder is None and not precomputed:
                v = vocab if vocab is not None else Vocabulary(["<pad>", "<unk>"])
                model.encoder = TextEncoder(v, encoder_dim, rng, max_sequence_length,
                                            path=f"{_prefix}encoder")
            elif source in _TOWERS:
                tower_id, key, prefix = _TOWERS[source]
                tower = build(tower_id, encoder_dim, vocab, seed, max_sequence_length,
                              precomputed, _prefix + prefix)
                model.components[key] = tower
                if tower.encoder is not None:
                    model.encoder = tower.encoder
        model.heads[head.name] = FFNNHead(spec.in_width(head, encoder_dim), head.widths,
                                          _prefix + head.name, rng)
    return model


def describe(model: ModelInstance) -> dict:
    """Deterministic, seed-independent serialization of the model graph."""
    spec, d = model.spec, model.encoder_dim
    nodes: dict[str, tuple[int, ...]] = {}
    edges: list[tuple[str, str]] = []

    def node(source: str) -> str:
        """The node carrying ``source``, added along with what feeds it."""
        if source in _HEADS:
            return _HEADS[source][0]
        if source not in _TOWERS:
            nodes[source] = (spec.width(source, d),)
            return source
        last = architecture_spec(_TOWERS[source][0]).heads[-1]
        (below,) = [node(s) for s in last.inputs]
        if len(last.widths) == 1:
            return below  # no hidden layer: the tower is its input
        nodes[source] = last.widths[:-1]
        edges.append((below, source))
        return source

    for head in spec.heads:
        name = _HEADS[head.name][0]
        nodes[name] = head.widths
        feeds = [node(source) for source in head.inputs]
        if len(feeds) > 1:
            nodes[FUSION_CONCAT] = (spec.in_width(head, d),)
            edges += [(feed, FUSION_CONCAT) for feed in feeds]
            feeds = [FUSION_CONCAT]
        edges.append((feeds[0], name))
    return {
        "id": spec.id,
        "name": spec.name,
        "family": spec.family,
        "input_modalities": sorted(spec.input_modalities),
        "auxiliary_targets": sorted(spec.auxiliary_targets),
        "nodes": [{"name": n, "widths": list(w)} for n, w in sorted(nodes.items())],
        "edges": sorted([list(e) for e in edges]),
    }


# ---------------------------------------------------------------------------
# Checkpoints

def save_model(path, model: ModelInstance, meta: dict | None = None) -> None:
    """Checkpoint parameters plus enough metadata to rebuild the model."""
    encoder = model.encoder
    full_meta = {
        "architecture_id": model.spec.id,
        "architecture": describe(model),
        "encoder_dim": model.encoder_dim,
        "encoder_kind": (None if TEXT not in model.spec.input_modalities
                         else "precomputed" if encoder is None else "trainable"),
        "vocab": encoder.vocab.tokens if encoder is not None else None,
        "max_sequence_length": encoder.max_sequence_length if encoder is not None else None,
    }
    full_meta.update(meta or {})
    tensors = {name: p.data for name, p in model.parameters().items()}
    save_params(path, tensors, full_meta)


def _check_meta(meta: dict, held: int) -> Vocabulary | None:
    """Refuse checkpoint metadata that ``load_model`` cannot rebuild a model from,
    before ``build`` allocates anything; ``held`` is the file's float64 count.
    Returns the checkpoint's vocabulary, if it has one."""
    vocab, length = meta.get("vocab"), meta.get("max_sequence_length")
    for key, ok, want in (
            ("architecture_id", is_int(meta.get("architecture_id"))
             and meta["architecture_id"] in _BY_ID, f"an integer in 1..{len(_BY_ID)}"),
            ("encoder_dim", is_int(meta.get("encoder_dim")) and meta["encoder_dim"] >= 1,
             "an integer >= 1"),
            ("vocab", vocab is None or (isinstance(vocab, list)
                                        and all(isinstance(t, str) for t in vocab)),
             "a list of strings or null"),
            ("max_sequence_length", length is None or is_int(length) and length >= 1,
             "an integer >= 1 or null"),
            ("pcb_target", "pcb_target" not in meta or meta["pcb_target"] in PCB_TARGETS,
             f"one of {PCB_TARGETS} or absent")):
        if not ok:
            got = repr(meta[key])[:40] if key in meta else "nothing"
            raise ValidationError(f"checkpoint metadata {key!r} must be {want}, got {got}")
    dim = meta["encoder_dim"]
    if TEXT in _BY_ID[meta["architecture_id"]].input_modalities and dim > MAX_BUILT_ENCODER_DIM:
        raise ValidationError(f"checkpoint metadata 'encoder_dim' must be at most "
                              f"{MAX_BUILT_ENCODER_DIM} for a text architecture, got {dim}")
    if len(vocab or ()) * dim > held:
        raise ValidationError(f"checkpoint metadata 'vocab' and 'encoder_dim' describe a "
                              f"{len(vocab)} x {dim} embedding; the file holds {held} values")
    try:
        return Vocabulary(vocab) if vocab else None
    except ConfigError as exc:  # the file, not the configuration, is at fault
        raise ValidationError(f"checkpoint metadata 'vocab' is not a vocabulary: {exc}") from None


def load_model(path) -> tuple[ModelInstance, dict]:
    """Rebuild a saved model and return it with the checkpoint's metadata.

    Malformed metadata, and tensors that do not fit the architecture the
    checkpoint names, are a ``ValidationError``; a checkpoint trained on
    precomputed embeddings is refused with a ``ConfigError``.
    """
    tensors, meta = load_params(path)
    if meta.get("encoder_kind") == "precomputed":
        raise ConfigError(
            "checkpoint was trained with externally computed embeddings; "
            "rebuild it in-process with the same embedding file instead")
    vocab = _check_meta(meta, sum(t.size for t in tensors.values()))
    model = build(meta["architecture_id"], meta["encoder_dim"], vocab,
                  max_sequence_length=meta.get("max_sequence_length") or 256)
    params = model.parameters()
    missing = set(params) - set(tensors)
    extra = set(tensors) - set(params)
    if missing or extra:
        raise ValidationError(
            f"checkpoint parameters do not match architecture: "
            f"missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}")
    for name, p in params.items():
        if p.data.shape != tensors[name].shape:
            raise ValidationError(
                f"checkpoint tensor {name} shape {tensors[name].shape} "
                f"!= expected {p.data.shape}")
        p.data = tensors[name]
    return model, meta
