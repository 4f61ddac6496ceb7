"""Training loops, the repetition protocol, and metric aggregation."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import (Tensor, add, backward, binary_cross_entropy, cross_entropy,
                       grouped_cross_entropy, no_grad)
from .data import (APPRAISAL_COUNT, DatasetSplit, ReviewRecord, segment_emotion,
                   segment_pcb, split_records)
from .errors import ConfigError, SizeError, TrainingError
from .metrics import accuracy_score, weighted_f1
from .models import (APPRAISALS, EMOTIONS, TEXT, Batch, ModelInstance,
                     architecture_spec, build)
from .nn import Adam, LinearSchedule
from .text import EncodedBatch, PrecomputedEncoder, Vocabulary, encode_texts

PCB_TARGETS = ("repurchase", "promote")


@dataclass
class ExperimentConfig:
    """One run: architecture, target, budgets, and the repetition protocol.

    ``text_epochs`` applies to any model with a text input; ``rating_epochs``
    to rating-only models, which also train full-batch regardless of
    ``batch_size``.
    """

    architecture: int
    pcb_target: str = "promote"
    text_epochs: int = 10
    rating_epochs: int = 2000
    lr: float = 1e-5
    batch_size: int = 16
    repetitions: int = 5
    base_seed: int = 0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    appraisal_loss: str = "bce"  # "bce": one-hot blocks; "ce": per-dimension 3-way
    aux_loss_weight: float = 1.0
    encoder_dim: int = 128
    max_sequence_length: int = 256
    min_token_freq: int = 2
    resplit_each_repetition: bool = False
    precomputed_embeddings: str | None = None
    finetune_fused: bool = False   # multi-modal: also train through frozen towers
    track_validation: bool = False  # record a sampled validation-accuracy curve

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.text_epochs < 1 or self.rating_epochs < 1:
            raise ConfigError("epoch counts must be >= 1")
        if self.pcb_target not in PCB_TARGETS:
            raise ConfigError(f"pcb_target must be one of {PCB_TARGETS}, "
                              f"got {self.pcb_target!r}")
        if self.appraisal_loss not in ("bce", "ce"):
            raise ConfigError(f"appraisal_loss must be 'bce' or 'ce', "
                              f"got {self.appraisal_loss!r}")
        for name in ("batch_size", "encoder_dim", "max_sequence_length"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # lr 0 is a run that leaves every parameter as initialized; a negative
        # lr would climb the loss
        for name in ("lr", "aux_loss_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        architecture_spec(self.architecture)  # validates the id

    def epochs_for(self, modalities: Sequence[str]) -> int:
        return self.text_epochs if TEXT in modalities else self.rating_epochs


@dataclass
class TrainResult:
    loss_trace: list[float]
    steps: int
    diagnostics: dict = field(default_factory=dict)


@dataclass
class RepetitionResult:
    repetition: int
    seed: int
    accuracy: float
    f1_weighted: float
    diagnostics: dict = field(default_factory=dict)


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
    """Featurized record set shared by every repetition of a run."""

    records: list[ReviewRecord]
    vocab: Vocabulary | None
    token_ids: np.ndarray | None
    attention_mask: np.ndarray | None
    appraisal_features: np.ndarray
    emotion_features: np.ndarray
    pcb_labels: dict[str, np.ndarray]
    appraisal_target_flags: np.ndarray
    appraisal_target_classes: np.ndarray
    emotion_target_flags: np.ndarray

    def batch(self, idx: Sequence[int], pcb_target: str,
              modalities: Sequence[str] = (TEXT, APPRAISALS, EMOTIONS)) -> Batch:
        """Rows ``idx`` with every target, and the inputs of ``modalities`` only."""
        idx = np.asarray(idx, dtype=np.int64)
        encoded = None
        if self.token_ids is not None and TEXT in modalities:
            encoded = EncodedBatch(self.token_ids[idx], self.attention_mask[idx])
        return Batch(
            record_ids=[self.records[i].id for i in idx],
            encoded=encoded,
            appraisal_features=(self.appraisal_features[idx]
                                if APPRAISALS in modalities else None),
            emotion_features=(self.emotion_features[idx]
                              if EMOTIONS in modalities else None),
            pcb_labels=self.pcb_labels[pcb_target][idx],
            appraisal_target_flags=self.appraisal_target_flags[idx],
            appraisal_target_classes=self.appraisal_target_classes[idx],
            emotion_target_flags=self.emotion_target_flags[idx],
        )


def featurize(records: Sequence[ReviewRecord], vocab: Vocabulary | None,
              max_sequence_length: int = 256) -> Dataset:
    """Precompute model inputs and segmented targets for every record.

    Rating features are centered and scaled to [-1, 1]; targets follow the
    Likert segmentation rules.
    """
    records = list(records)
    appraisals = np.array([r.appraisals for r in records], dtype=np.float64)
    emotions = np.array([r.emotions for r in records], dtype=np.float64)
    app_classes = np.array([[segment_pcb(a) for a in r.appraisals]
                            for r in records], dtype=np.int64)
    flags = np.zeros((len(records), APPRAISAL_COUNT * 3))
    rows = np.repeat(np.arange(len(records)), APPRAISAL_COUNT)
    cols = (np.tile(np.arange(APPRAISAL_COUNT), len(records)) * 3
            + app_classes.reshape(-1))
    flags[rows, cols] = 1.0
    token_ids = attention = None
    if vocab is not None:
        encoded = encode_texts([r.text for r in records], vocab, max_sequence_length)
        token_ids, attention = encoded.token_ids, encoded.attention_mask
    return Dataset(
        records=records,
        vocab=vocab,
        token_ids=token_ids,
        attention_mask=attention,
        appraisal_features=(appraisals - 4.0) / 3.0,
        emotion_features=(emotions - 4.0) / 3.0,
        pcb_labels={t: np.array([int(segment_pcb(r.pcb(t))) for r in records],
                                dtype=np.int64) for t in PCB_TARGETS},
        appraisal_target_flags=flags,
        appraisal_target_classes=app_classes,
        emotion_target_flags=np.array([[segment_emotion(e) for e in r.emotions]
                                       for r in records], dtype=np.float64),
    )


def compute_loss(model: ModelInstance, batch: Batch, cfg: ExperimentConfig,
                 outputs: dict[str, Tensor] | None = None) -> Tensor:
    """PCB cross-entropy plus the declared auxiliary losses."""
    out = outputs if outputs is not None else model.forward(batch)
    loss = cross_entropy(out["pcb_logits"], batch.pcb_labels)
    if APPRAISALS in model.spec.auxiliary_targets:
        if cfg.appraisal_loss == "bce":
            aux = binary_cross_entropy(out["appraisal_logits"],
                                       batch.appraisal_target_flags,
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
    modalities = model.spec.input_modalities
    epochs = cfg.epochs_for(modalities)
    n = len(train_idx)
    batch_size = cfg.batch_size if TEXT in modalities else n
    batches_per_epoch = max(1, (n + batch_size - 1) // batch_size)
    total_steps = epochs * batches_per_epoch
    params = model.parameters(trainable_only=True)
    optimizer = Adam(params, lr=cfg.lr)
    schedule = LinearSchedule(cfg.lr, total_steps)
    rng = np.random.default_rng(seed)
    idx = np.asarray(train_idx, dtype=np.int64)
    trace: list[float] = []
    val_trace: list[tuple[int, float]] = []
    val_every = max(1, epochs // 20)
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = data.batch(idx[order[start:start + batch_size]], cfg.pcb_target,
                               modalities)
            loss = compute_loss(model, batch, cfg)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at step {step}; parameter norms: "
                    f"{_param_norms(params)}")
            backward(loss)
            optimizer.step(lr=schedule.lr_at(step))
            trace.append(value)
            step += 1
        if cfg.track_validation and validation_idx and epoch % val_every == 0:
            acc = evaluate(model, data, validation_idx, cfg.pcb_target).accuracy
            val_trace.append((epoch, acc))
    result = TrainResult(loss_trace=trace, steps=step)
    if val_trace:
        result.diagnostics["validation_trace"] = val_trace
    return result


def train(model: ModelInstance, data: Dataset, train_idx: Sequence[int],
          cfg: ExperimentConfig, seed: int,
          validation_idx: Sequence[int] | None = None) -> TrainResult:
    """Train a model; multi-modal models pretrain their towers first.

    Towers are frozen before the fusion phase unless ``cfg.finetune_fused``.
    """
    if not model.components:
        return _train_single(model, data, train_idx, cfg, seed, validation_idx)
    diagnostics = {}
    for i, (name, comp) in enumerate(sorted(model.components.items())):
        comp_result = _train_single(comp, data, train_idx, cfg, seed + 101 * (i + 1))
        diagnostics[f"component_{name}_steps"] = comp_result.steps
    if cfg.finetune_fused:
        model.freeze_component_classifiers()
    else:
        model.freeze_components()
    result = _train_single(model, data, train_idx, cfg, seed, validation_idx)
    result.diagnostics.update(diagnostics)
    return result


def evaluate(model: ModelInstance, data: Dataset, idx: Sequence[int],
             pcb_target: str, chunk: int = 512) -> RepetitionResult:
    """Accuracy and weighted F1 of PCB predictions on the given index set."""
    idx = list(idx)
    if not idx:
        raise SizeError("cannot evaluate on an empty split")
    preds = []
    aux_diag: dict[str, float] = {}
    emo_correct = emo_total = app_correct = app_total = 0
    for start in range(0, len(idx), chunk):
        batch = data.batch(idx[start:start + chunk], pcb_target,
                           model.spec.input_modalities)
        with no_grad():
            out = model.forward(batch)
        preds.append(np.argmax(out["pcb_logits"].data, axis=1))
        if "emotion_logits" in out:
            got = (out["emotion_logits"].data > 0).astype(np.float64)
            emo_correct += float((got == batch.emotion_target_flags).sum())
            emo_total += got.size
        if "appraisal_logits" in out:
            blocks = out["appraisal_logits"].data.reshape(len(batch.record_ids),
                                                          APPRAISAL_COUNT, 3)
            got = np.argmax(blocks, axis=2)
            app_correct += float((got == batch.appraisal_target_classes).sum())
            app_total += got.size
    y_pred = np.concatenate(preds)
    y_true = data.pcb_labels[pcb_target][np.asarray(idx, dtype=np.int64)]
    if emo_total:
        aux_diag["emotion_flag_accuracy"] = emo_correct / emo_total
    if app_total:
        aux_diag["appraisal_class_accuracy"] = app_correct / app_total
    return RepetitionResult(
        repetition=-1, seed=-1,
        accuracy=accuracy_score(y_true, y_pred),
        f1_weighted=weighted_f1(y_true, y_pred, n_classes=3),
        diagnostics=aux_diag,
    )


def _needs_text(cfg: ExperimentConfig) -> bool:
    return TEXT in architecture_spec(cfg.architecture).input_modalities


def build_vocab_for_split(records: Sequence[ReviewRecord], split: DatasetSplit,
                          min_token_freq: int = 2) -> Vocabulary:
    return Vocabulary.build((records[i].text for i in split.train),
                            min_freq=min_token_freq)


def run_repetition(records: Sequence[ReviewRecord], data: Dataset,
                   split: DatasetSplit, cfg: ExperimentConfig,
                   repetition: int) -> tuple[RepetitionResult, ModelInstance]:
    seed = cfg.base_seed + repetition
    precomputed = None
    if cfg.precomputed_embeddings and _needs_text(cfg):
        precomputed = PrecomputedEncoder.load(cfg.precomputed_embeddings)
    model = build(cfg.architecture, cfg.encoder_dim, data.vocab, seed=seed,
                  max_sequence_length=cfg.max_sequence_length,
                  precomputed=precomputed)
    train_result = train(model, data, split.train, cfg, seed,
                         validation_idx=split.validation)
    result = evaluate(model, data, split.test, cfg.pcb_target)
    result.repetition = repetition
    result.seed = seed
    if "validation_trace" in train_result.diagnostics:
        result.diagnostics["validation_trace"] = \
            train_result.diagnostics["validation_trace"]
    return result, model


def run_repetitions(records: Sequence[ReviewRecord], cfg: ExperimentConfig,
                    workers: int = 1, return_last_model: bool = False):
    """Run the repetition protocol: fixed split, fresh seed per repetition.

    With ``resplit_each_repetition`` the split is redrawn per repetition
    instead. Repetitions are independent; ``workers`` bounds how many run
    concurrently.
    """
    records = list(records)
    base_split = split_records(len(records), cfg.split_ratios, cfg.base_seed)

    def prepared(split: DatasetSplit) -> Dataset:
        vocab = None
        if _needs_text(cfg) and not cfg.precomputed_embeddings:
            vocab = build_vocab_for_split(records, split, cfg.min_token_freq)
        return featurize(records, vocab, cfg.max_sequence_length)

    jobs: list[tuple[Dataset, DatasetSplit, int]] = []
    if cfg.resplit_each_repetition:
        for rep in range(cfg.repetitions):
            split = split_records(len(records), cfg.split_ratios, cfg.base_seed + rep)
            jobs.append((prepared(split), split, rep))
    else:
        data = prepared(base_split)
        jobs = [(data, base_split, rep) for rep in range(cfg.repetitions)]

    if workers > 1 and cfg.repetitions > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(
                lambda job: run_repetition(records, job[0], job[1], cfg, job[2]), jobs))
    else:
        outcomes = [run_repetition(records, d, s, cfg, rep) for d, s, rep in jobs]
    summary = MetricsSummary.aggregate([r for r, _ in outcomes])
    if return_last_model:
        return summary, outcomes[-1][1]
    return summary
