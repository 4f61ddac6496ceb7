"""Training loops, the repetition protocol, and metric aggregation."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import starmap
from typing import Iterator, Sequence

import numpy as np

from . import blas
from .autodiff import (Tensor, add, backward, binary_cross_entropy, cross_entropy, frozen,
                       grouped_cross_entropy)
from .data import (APPRAISAL_COUNT, EMOTION_FLAGS, PCB_LEVELS, PCB_TARGETS, DatasetSplit,
                   ReviewRecord, split_records)
from .errors import ConfigError, SizeError, TrainingError
from .metrics import accuracy_score, weighted_f1
from .models import (APPRAISALS, EMOTIONS, MAX_BUILT_ENCODER_DIM, PCB_HEAD, TEXT, Batch,
                     ModelInstance, architecture_spec, build)
from .nn import Adam, arena
from .schema import Spec, check_fields, declared
from .text import Vocabulary, encode_texts, load_embeddings

# rows per evaluation forward pass; bounds its activations for any split size
_EVAL_CHUNK = 512
# A training call whose widest product per step (its rows times the largest 2-D
# parameter) has fewer multiply-adds runs on one OpenBLAS thread: splitting so
# small a product across threads costs more than it saves (README, "BLAS threads")
_SERIAL_MULADDS = 2**22


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: architecture, target, budgets, and the repetition protocol.

    ``text_epochs`` applies to any model with a text input; ``rating_epochs``
    to rating-only models, which also train full-batch regardless of
    ``batch_size``.
    """

    architecture: int = declared("int")
    pcb_target: str = declared("str", "promote", choices=PCB_TARGETS)
    text_epochs: int = declared("int", 10, ge=1)
    rating_epochs: int = declared("int", 2000, ge=1)
    # lr 0 leaves every parameter as initialized; a negative lr would climb the loss
    lr: float = declared("float", 1e-5, ge=0)
    batch_size: int = declared("int", 16, ge=1)
    repetitions: int = declared("int", 5, ge=1)
    base_seed: int = declared("int", 0, ge=0)  # numpy seeds are non-negative
    # the ratio rule (each in [0, 1], summing to 1) lives in data.split_records
    split_ratios: tuple[float, float, float] = declared("floats", (0.8, 0.1, 0.1))
    # "bce": one-hot blocks; "ce": per-dimension 3-way
    appraisal_loss: str = declared("str", "bce", choices=("bce", "ce"))
    aux_loss_weight: float = declared("float", 1.0, ge=0)
    # at most MAX_BUILT_ENCODER_DIM unless precomputed_embeddings fixes the width
    encoder_dim: int = declared("int", 128, ge=1)
    max_sequence_length: int = declared("int", 256, ge=1)
    min_token_freq: int = declared("int", 2, ge=1)
    resplit_each_repetition: bool = declared("bool", False)
    precomputed_embeddings: str | None = declared("str|null", None)
    finetune_fused: bool = declared("bool", False)  # multi-modal: train through the towers
    track_validation: bool = declared("bool", False)  # sample a validation-accuracy curve

    def __post_init__(self) -> None:
        check_fields(self)
        architecture_spec(self.architecture)  # validates the id
        if self.precomputed_embeddings is None:  # else the embedding file fixes the width
            Spec("int", le=MAX_BUILT_ENCODER_DIM).check("encoder_dim", self.encoder_dim)

    def epochs_for(self, modalities: Sequence[str]) -> int:
        return self.text_epochs if TEXT in modalities else self.rating_epochs


@dataclass
class TrainResult:
    loss_trace: list[float]
    steps: int
    validation_trace: list[tuple[int, float]]  # (epoch, accuracy); empty unless tracked


@dataclass
class RepetitionResult:
    repetition: int
    seed: int
    accuracy: float
    f1_weighted: float
    diagnostics: dict = field(default_factory=dict)
    # per split this repetition used: its [Low, Moderate, High] PCB label counts
    class_counts: dict[str, list[int]] = field(default_factory=dict)


@dataclass
class MetricsSummary:
    """Per-repetition test metrics plus population mean/std aggregates."""

    rows: list[RepetitionResult]
    mean_accuracy: float
    std_accuracy: float
    mean_f1: float
    std_f1: float

    @classmethod
    def aggregate(cls, rows: list[RepetitionResult]) -> "MetricsSummary":
        acc = np.array([r.accuracy for r in rows])
        f1 = np.array([r.f1_weighted for r in rows])
        return cls(rows=rows,
                   mean_accuracy=float(acc.mean()), std_accuracy=float(acc.std()),
                   mean_f1=float(f1.mean()), std_f1=float(f1.std()))


@dataclass
class Dataset:
    """Featurized record set shared by every repetition of a run.

    Text is stored as int64 ``token_ids`` alone, padded with the pad id; its
    readers derive the attention mask from them with ``text.token_mask``.
    """

    vocab: Vocabulary | None
    token_ids: np.ndarray | None      # [n, L] int64
    text_features: np.ndarray | None  # [n, d] precomputed text embeddings
    appraisal_features: np.ndarray
    emotion_features: np.ndarray
    pcb_labels: dict[str, np.ndarray]
    appraisal_target_classes: np.ndarray
    emotion_target_flags: np.ndarray

    def batch(self, idx: Sequence[int], pcb_target: str,
              modalities: Sequence[str] = (TEXT, APPRAISALS, EMOTIONS)) -> Batch:
        """Rows ``idx`` with every target, and the inputs of ``modalities`` only.

        ``idx`` follows the rule of ``rows``.
        """
        if pcb_target not in self.pcb_labels:
            raise ConfigError(f"unknown PCB target {pcb_target!r}")
        idx = self.rows(idx)

        def gather(column: np.ndarray | None, modality: str) -> np.ndarray | None:
            return None if column is None or modality not in modalities else column[idx]

        return Batch(
            token_ids=gather(self.token_ids, TEXT),
            text_features=gather(self.text_features, TEXT),
            appraisal_features=gather(self.appraisal_features, APPRAISALS),
            emotion_features=gather(self.emotion_features, EMOTIONS),
            pcb_labels=self.pcb_labels[pcb_target][idx],
            appraisal_target_classes=self.appraisal_target_classes[idx],
            emotion_target_flags=self.emotion_target_flags[idx],
        )

    def rows(self, idx: Sequence[int]) -> np.ndarray:
        """``idx`` as an integer array, if it holds integers in ``[0, n)`` alone;
        anything else is a ``ConfigError``."""
        rows, n = np.asarray(idx), len(self.appraisal_features)
        if rows.size == 0:
            rows = rows.astype(np.int64)  # an empty list arrives as float64
        # asarray reads a list that mixes bools and integers as integers
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or (
                not isinstance(idx, np.ndarray)
                and any(isinstance(i, (bool, np.bool_)) for i in idx)):
            raise ConfigError(f"row indices must be a list of integers, got {idx!r:.60}")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            bad = rows[(rows < 0) | (rows >= n)][0]
            raise ConfigError(f"row index {bad} is outside [0, {n})")
        return rows


def featurize(records: Sequence[ReviewRecord], vocab: Vocabulary | None,
              max_sequence_length: int = 256,
              text_features: np.ndarray | None = None) -> Dataset:
    """Precompute model inputs and segmented targets for every record.

    Rating features are centered and scaled to [-1, 1]; targets follow the
    Likert segmentation rules. ``text_features`` are precomputed text
    embeddings, one row per record. Every float column is float32, the
    parameters' dtype, each value rounded once from float64.
    """
    records = list(records)
    pcb = {t: [r.pcb(t) for r in records] for t in PCB_TARGETS}
    # a record checked its ratings when it was made, so they index the tables
    appraisals = np.array([r.appraisals for r in records], dtype=np.int64)
    emotions = np.array([r.emotions for r in records], dtype=np.int64)
    levels = np.array(PCB_LEVELS, dtype=np.int64)
    return Dataset(
        vocab=vocab,
        token_ids=(None if vocab is None
                   else encode_texts([r.text for r in records], vocab, max_sequence_length)),
        text_features=None if text_features is None else text_features.astype(np.float32),
        appraisal_features=((appraisals - 4.0) / 3.0).astype(np.float32),
        emotion_features=((emotions - 4.0) / 3.0).astype(np.float32),
        pcb_labels={t: levels[np.array(column, dtype=np.int64) - 1]
                    for t, column in pcb.items()},
        appraisal_target_classes=levels[appraisals - 1],
        emotion_target_flags=np.array(EMOTION_FLAGS, dtype=np.float32)[emotions - 1],
    )


def compute_loss(model: ModelInstance, batch: Batch, cfg: ExperimentConfig) -> Tensor:
    """PCB cross-entropy plus the declared auxiliary losses."""
    out = model.forward(batch)
    loss = cross_entropy(out["pcb_logits"], batch.pcb_labels)
    if APPRAISALS in model.spec.auxiliary_targets:
        if cfg.appraisal_loss == "bce":  # one-hot blocks: class c of dimension k at k*3 + c
            classes = batch.appraisal_target_classes
            aux = binary_cross_entropy(out["appraisal_logits"],
                                       np.eye(3)[classes].reshape(len(classes), -1),
                                       weight=cfg.aux_loss_weight)
        else:
            aux = grouped_cross_entropy(out["appraisal_logits"],
                                        batch.appraisal_target_classes,
                                        groups=APPRAISAL_COUNT,
                                        weight=cfg.aux_loss_weight)
        loss = add(loss, aux)
    if EMOTIONS in model.spec.auxiliary_targets:
        aux = binary_cross_entropy(out["emotion_logits"],
                                   batch.emotion_target_flags,
                                   weight=cfg.aux_loss_weight)
        loss = add(loss, aux)
    return loss


def _param_norms(params: dict[str, Tensor]) -> dict[str, float]:
    return {k: float(np.linalg.norm(p.data)) for k, p in params.items()}


def _train_single(model: ModelInstance, data: Dataset, train_idx: Sequence[int],
                  cfg: ExperimentConfig, seed: int,
                  validation_idx: Sequence[int] | None = None) -> TrainResult:
    """Train ``model``'s parameters that have ``requires_grad``.

    On entry the trained parameters are copied into views of one float32
    arena (``nn.arena``), which Adam updates in one pass; they stay views of
    it after the call, and even on an error no gradient is left. Parameters
    and ``data``'s float columns are float32 already, so every step computes
    in float32 with no cast.
    """
    n = len(train_idx)
    if n == 0:
        raise SizeError("cannot train on an empty train index")
    modalities = model.spec.input_modalities
    epochs = cfg.epochs_for(modalities)
    batch_size = cfg.batch_size if TEXT in modalities else n
    total_steps = epochs * ((n + batch_size - 1) // batch_size)
    rng = np.random.default_rng(seed)
    idx = data.rows(train_idx)
    trace: list[float] = []
    val_trace: list[tuple[int, float]] = []
    val_every = max(1, epochs // 20)
    step = 0
    params = {k: p for k, p in model.parameters().items() if p.requires_grad}
    widest = min(batch_size, n) * max(
        (p.data.size for p in model.parameters().values() if p.data.ndim == 2), default=0)
    arena(params.values(), np.float32)
    try:
        with blas.one_thread() if widest < _SERIAL_MULADDS else nullcontext():
            optimizer = Adam(params, lr=cfg.lr)
            for epoch in range(epochs):
                order = rng.permutation(n)
                for start in range(0, n, batch_size):
                    batch = data.batch(idx[order[start:start + batch_size]],
                                       cfg.pcb_target, modalities)
                    loss = compute_loss(model, batch, cfg)
                    value = loss.item()
                    if not np.isfinite(value):
                        raise TrainingError(
                            f"non-finite loss at step {step}; parameter norms: "
                            f"{_param_norms(params)}")
                    backward(loss)
                    optimizer.step(lr=cfg.lr * (1.0 - step / total_steps))
                    trace.append(value)
                    step += 1
                if cfg.track_validation and validation_idx and epoch % val_every == 0:
                    acc = evaluate(model, data, validation_idx, cfg.pcb_target).accuracy
                    val_trace.append((epoch, acc))
    finally:
        for p in params.values():
            p.grad = None
    return TrainResult(loss_trace=trace, steps=step, validation_trace=val_trace)


def train(model: ModelInstance, data: Dataset, train_idx: Sequence[int],
          cfg: ExperimentConfig, seed: int,
          validation_idx: Sequence[int] | None = None) -> TrainResult:
    """Train a model; a multi-modal model first trains each tower, then freezes it.

    With ``cfg.finetune_fused`` only a tower's final classification layer is
    frozen, so the fusion phase trains through the rest of the tower.
    """
    for tower in model.components.values():
        _train_single(tower, data, train_idx, cfg, seed)
        # the fused path reads the tower's penultimate activation, never its final layer
        fixed = tower.heads[PCB_HEAD].layers[-1] if cfg.finetune_fused else tower
        for p in fixed.parameters().values():
            p.requires_grad = False
            if fixed is not tower:  # its own copy, so the tower's arena is freed
                p.data = p.data.copy()
    return _train_single(model, data, train_idx, cfg, seed, validation_idx)


def evaluate(model: ModelInstance, data: Dataset, idx: Sequence[int],
             pcb_target: str) -> RepetitionResult:
    """Accuracy and weighted F1 of PCB predictions on the given index set,
    computed in the model's own dtype: float32, or float64 once loaded."""
    idx = list(idx)
    if not idx:
        raise SizeError("cannot evaluate on an empty split")
    chunks: dict[str, list[np.ndarray]] = {}
    with frozen(model.parameters().values()):
        for start in range(0, len(idx), _EVAL_CHUNK):
            out = model.forward(data.batch(idx[start:start + _EVAL_CHUNK], pcb_target,
                                           model.spec.input_modalities))
            for name, value in out.items():
                chunks.setdefault(name, []).append(value.data)
    logits = {name: np.concatenate(parts) for name, parts in chunks.items()}
    rows = data.rows(idx)
    y_pred, y_true = np.argmax(logits["pcb_logits"], axis=1), data.pcb_labels[pcb_target][rows]
    aux_diag: dict[str, float] = {}
    if "emotion_logits" in logits:
        got = logits["emotion_logits"] > 0
        aux_diag["emotion_flag_accuracy"] = float(np.mean(got == data.emotion_target_flags[rows]))
    if "appraisal_logits" in logits:
        got = np.argmax(logits["appraisal_logits"].reshape(-1, APPRAISAL_COUNT, 3), axis=2)
        aux_diag["appraisal_class_accuracy"] = float(
            np.mean(got == data.appraisal_target_classes[rows]))
    return RepetitionResult(
        repetition=-1, seed=-1,
        accuracy=accuracy_score(y_true, y_pred),
        f1_weighted=weighted_f1(y_true, y_pred, n_classes=3),
        diagnostics=aux_diag,
    )


def build_vocab_for_split(records: Sequence[ReviewRecord], split: DatasetSplit,
                          min_token_freq: int = 2) -> Vocabulary:
    return Vocabulary.build((records[i].text for i in split.train),
                            min_freq=min_token_freq)


def run_repetition(records: Sequence[ReviewRecord], data: Dataset,
                   split: DatasetSplit, cfg: ExperimentConfig,
                   repetition: int) -> tuple[RepetitionResult, ModelInstance]:
    seed = cfg.base_seed + repetition
    model = build(cfg.architecture, cfg.encoder_dim, data.vocab, seed=seed,
                  max_sequence_length=cfg.max_sequence_length,
                  precomputed=bool(cfg.precomputed_embeddings))
    train_result = train(model, data, split.train, cfg, seed,
                         validation_idx=split.validation)
    result = evaluate(model, data, split.test, cfg.pcb_target)
    result.repetition = repetition
    result.seed = seed
    labels = data.pcb_labels[cfg.pcb_target]
    result.class_counts = {
        name: np.bincount(labels[np.asarray(idx, dtype=np.int64)], minlength=3).tolist()
        for name, idx in (("train", split.train), ("validation", split.validation),
                          ("test", split.test))}
    if train_result.validation_trace:
        result.diagnostics["validation_trace"] = train_result.validation_trace
    return result, model


def run_sweep(records: Sequence[ReviewRecord], configs: Sequence[ExperimentConfig],
              workers: int = 1) -> Iterator[tuple[MetricsSummary, ModelInstance]]:
    """Run the repetition protocol for each config: a fixed split, a fresh seed
    per repetition, or with ``resplit_each_repetition`` a split per repetition.

    Every split, vocabulary, featurized ``Dataset`` and embedding file the
    configs need is made first, once for all the configs that share it, so a
    bad input is refused before anything trains. Returns an iterator of each
    config's summary and last repetition's model, in the order given; a config
    trains when it is drawn. ``workers`` bounds how many of a config's
    repetitions run concurrently.
    """
    records = list(records)
    embeddings: dict[str, np.ndarray] = {}
    prepared: dict[tuple, tuple[Dataset, DatasetSplit]] = {}
    runs: list[list[tuple]] = []  # per config, run_repetition's arguments per repetition
    for cfg in configs:
        text = TEXT in architecture_spec(cfg.architecture).input_modalities
        path = cfg.precomputed_embeddings if text else None
        if path is not None:
            if path not in embeddings:
                embeddings[path] = load_embeddings(path, [r.id for r in records])
            if (width := embeddings[path].shape[1]) != cfg.encoder_dim:
                raise ConfigError(f"precomputed embeddings are {width} wide but "
                                  f"encoder_dim is {cfg.encoder_dim}; they must be equal")
        jobs = []
        for rep in range(cfg.repetitions):
            seed = cfg.base_seed + (rep if cfg.resplit_each_repetition else 0)
            key = (seed, cfg.split_ratios, text, path, cfg.min_token_freq,
                   cfg.max_sequence_length)
            if key not in prepared:
                split = split_records(len(records), cfg.split_ratios, seed)
                if not split.train or not split.test:  # an empty validation split is allowed
                    raise SizeError(f"split_ratios {list(cfg.split_ratios)} leave no train or "
                                    f"no test record of {len(records)}")
                vocab = (build_vocab_for_split(records, split, cfg.min_token_freq)
                         if text and path is None else None)
                prepared[key] = (featurize(records, vocab, cfg.max_sequence_length,
                                           embeddings.get(path)), split)
            jobs.append((records, *prepared[key], cfg, rep))
        runs.append(jobs)
    return (_repetitions(jobs, workers) for jobs in runs)


def _repetitions(jobs: list[tuple], workers: int) -> tuple[MetricsSummary, ModelInstance]:
    """A config's summary and last model, from ``run_repetition``'s arguments per repetition."""
    if workers > 1 and len(jobs) > 1:
        # the workers share the cores, so none splits its products across them
        with blas.one_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_repetition, *zip(*jobs)))
    else:
        outcomes = list(starmap(run_repetition, jobs))
    return MetricsSummary.aggregate([r for r, _ in outcomes]), outcomes[-1][1]
