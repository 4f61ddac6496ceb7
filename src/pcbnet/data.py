"""Record schema, Likert segmentation, splits, ingestion, and the synthetic generator.

The generator operationalizes the appraisal -> emotion -> behavior chain:
appraisals are drawn uniformly, emotion ratings derive from a planted
appraisal-to-emotion weight matrix, and the two behavior ratings derive from
planted weights over both appraisals and emotions. Review text is rendered
from templates that insert lexicon words for every high/low appraisal and
every flagged emotion, so the text carries a recoverable copy of the signal.
With zero noise the generator is its own closed-form oracle.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, SizeError, ValidationError
from .schema import check_fields, declared
from .serialize import (atomic_write_text, atomic_writer, read_input, read_items, read_jsonl,
                        record_id)
from .text import tokenize

APPRAISAL_COUNT = 20
EMOTION_COUNT = 8

EMOTION_NAMES = ("anger", "disappointment", "disgust", "gratitude",
                 "joy", "pride", "regret", "surprise")

# The first five names are the documented dimensions; the rest are placeholders
# treated purely as dataset metadata.
DEFAULT_APPRAISAL_NAMES = (
    "novelty", "pleasantness", "goal_conduciveness", "fairness",
    "accountability_other",
    "durability", "responsiveness", "spaciousness", "quietness", "freshness",
    "polish", "generosity", "reliability", "smoothness", "brightness",
    "crispness", "swiftness", "tidiness", "warmth", "security",
)

PCB_TARGETS = ("repurchase", "promote")
PCB_FIELDS = tuple(f"pcb_{target}" for target in PCB_TARGETS)
_FIELDS = ("id", "text", "appraisals", "emotions", *PCB_FIELDS)
_RATINGS = frozenset(range(1, 8))


class Level(enum.IntEnum):
    LOW = 0
    MODERATE = 1
    HIGH = 2


@dataclass(frozen=True)
class ReviewRecord:
    """One consumer record; all ratings are integers on a 1-7 scale.

    A record checks itself when it is made: the ``id`` follows ``record_id``,
    the text is a string, and there are 20 appraisal and 8 emotion ratings
    (stored as tuples) and two PCB ratings; anything else is a ``ValidationError``.
    """

    id: str
    text: str
    appraisals: tuple[int, ...]
    emotions: tuple[int, ...]
    pcb_repurchase: int
    pcb_promote: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", record_id(self.id))
        if not isinstance(self.text, str):
            raise ValidationError(f"text must be a string, got {type(self.text).__name__}")
        for name, count in (("appraisals", APPRAISAL_COUNT), ("emotions", EMOTION_COUNT)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValidationError(f"{name} must be a list of ratings")
            if len(values) != count:
                raise ValidationError(f"expected {count} {name[:-1]} ratings, got {len(values)}")
            object.__setattr__(self, name, tuple(values))
        check_ratings(self.appraisals, "appraisal rating")
        check_ratings(self.emotions, "emotion rating")
        check_ratings((self.pcb_repurchase,), "pcb_repurchase")
        check_ratings((self.pcb_promote,), "pcb_promote")

    def pcb(self, target: str) -> int:
        if target == "repurchase":
            return self.pcb_repurchase
        if target == "promote":
            return self.pcb_promote
        raise ConfigError(f"unknown PCB target {target!r}")


@dataclass
class DatasetSplit:
    train: list[int]
    validation: list[int]
    test: list[int]


def _check_rating(value: int, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not 1 <= value <= 7:
        raise ValidationError(f"{what} must be in [1, 7], got {value}")
    return int(value)


def check_ratings(values: Sequence, what: str) -> None:
    """Refuse the first value that ``segment_pcb``/``segment_emotion`` would refuse."""
    # a plain int, so never a bool, and hashable before the set lookup
    if not ({int}.issuperset(map(type, values)) and _RATINGS.issuperset(values)):
        for value in values:
            _check_rating(value, what)


def segment_pcb(rating: int) -> Level:
    """1-2 -> Low, 3-5 -> Moderate, 6-7 -> High; appraisals share these boundaries."""
    r = _check_rating(rating, "PCB rating")
    if r <= 2:
        return Level.LOW
    if r <= 5:
        return Level.MODERATE
    return Level.HIGH


def segment_emotion(rating: int) -> int:
    """1-4 -> 0 (absent), 5-7 -> 1 (present)."""
    r = _check_rating(rating, "emotion rating")
    return 1 if r >= 5 else 0


# The two rules as tables, entry r - 1 for rating r, for code that has checked its ratings.
PCB_LEVELS = tuple(segment_pcb(r) for r in range(1, 8))
EMOTION_FLAGS = tuple(segment_emotion(r) for r in range(1, 8))


def split_records(n_records: int, ratios: Sequence[float], seed: int) -> DatasetSplit:
    """Seeded shuffle then contiguous partition.

    Validation and test sizes are floors of their ratios; the remainder
    goes to train.
    """
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be three values summing to 1, got {ratios}")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ConfigError(f"split ratios must each be in [0, 1], got {ratios}")
    if n_records < 3:
        raise SizeError(f"need at least 3 records to split, got {n_records}")
    n_val = int(n_records * ratios[1])
    n_test = int(n_records * ratios[2])
    n_train = n_records - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n_records)
    return DatasetSplit(
        train=[int(i) for i in perm[:n_train]],
        validation=[int(i) for i in perm[n_train:n_train + n_val]],
        test=[int(i) for i in perm[n_train + n_val:]],
    )


# ---------------------------------------------------------------------------
# Ingestion and export

def _record_from_obj(obj) -> ReviewRecord:
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in _FIELDS if key not in obj]
    if missing:
        raise ValidationError("; ".join(f"missing field {key!r}" for key in missing))
    return ReviewRecord(**{key: obj[key] for key in _FIELDS})


_CSV_HEADER = (["id", "text"]
               + [f"appraisal_{i + 1}" for i in range(APPRAISAL_COUNT)]
               + [f"emotion_{name}" for name in EMOTION_NAMES]
               + list(PCB_FIELDS))


def ingest(path: str | Path) -> list[ReviewRecord]:
    """Load and validate records from CSV (a ``.csv`` suffix) or else JSONL.

    Malformed rows, and rows that repeat an earlier row's id, are collected
    with their line numbers and the whole batch is rejected in one error.
    """
    path = Path(path)
    if path.suffix.lower() != ".csv":
        return [record for _, record in read_jsonl(path, "dataset", _record_from_obj,
                                                   lambda record: record.id)]
    reader = csv.reader(io.StringIO(read_input(path, "dataset"), newline=""))
    rows: list[tuple[int, list[str]]] = []  # each row with the line it starts on
    start = 1
    try:
        for row in reader:  # a quoted field may span lines
            rows.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows or rows[0][1] != _CSV_HEADER:
        raise ValidationError(f"{path}: CSV header must be {','.join(_CSV_HEADER)}")
    records = read_items(path, ((n, row) for n, row in rows[1:] if row), _record_from_row,
                         lambda record: record.id)
    return [record for _, record in records]


def _record_from_row(row: list[str]) -> ReviewRecord:
    """A record from a CSV row of ``_CSV_HEADER``'s columns."""
    if len(row) != len(_CSV_HEADER):
        raise ValidationError(f"expected {len(_CSV_HEADER)} columns, got {len(row)}")
    try:
        ratings = [int(v) for v in row[2:]]
    except ValueError:
        raise ValidationError("non-integer rating value") from None
    return ReviewRecord(row[0], row[1], ratings[:APPRAISAL_COUNT],
                        ratings[APPRAISAL_COUNT:-2], *ratings[-2:])


def record_to_obj(record: ReviewRecord) -> dict:
    return {key: getattr(record, key) for key in _FIELDS}  # a tuple dumps as a JSON list


def write_jsonl(records: Iterable[ReviewRecord], path: str | Path) -> None:
    """One sorted-key JSON object per line, written record by record."""
    with atomic_writer(path) as fh:
        for r in records:
            fh.write(json.dumps(record_to_obj(r), sort_keys=True) + "\n")


def write_csv(records: Iterable[ReviewRecord], path: str | Path) -> None:
    """The header row, then one row per record, written record by record. The csv
    module quotes a field for "\\n" but not for a bare "\\r", so a row with one is
    quoted whole."""
    with atomic_writer(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(_CSV_HEADER)
        for r in records:
            (quoted if "\r" in r.id or "\r" in r.text else writer).writerow(
                [r.id, r.text, *r.appraisals, *r.emotions, r.pcb_repurchase, r.pcb_promote])


def write_appraisal_names(path: str | Path) -> None:
    """The sidecar: one appraisal name per "\\n"-ended line, in feature order."""
    atomic_write_text(path, "\n".join(DEFAULT_APPRAISAL_NAMES) + "\n")


# ---------------------------------------------------------------------------
# Synthetic generator

# +1 means higher ratings on this dimension push behavior intentions up.
APPRAISAL_VALENCE = np.array([+1, +1, +1, +1, -1,
                              +1, +1, +1, +1, +1,
                              -1, +1, -1, +1, -1,
                              +1, -1, +1, -1, +1], dtype=np.float64)
EMOTION_VALENCE = np.array([-1, -1, -1, +1, +1, +1, -1, +1], dtype=np.float64)

# (high words, low words) per appraisal dimension; all single lowercase tokens
# so the tokenizer keeps them intact.
APPRAISAL_WORDS: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("novel", "unprecedented"), ("familiar", "routine")),
    (("pleasant", "lovely"), ("unpleasant", "miserable")),
    (("effective", "seamless"), ("obstructive", "useless")),
    (("fair", "honest"), ("unfair", "deceptive")),
    (("negligent", "dismissive"), ("attentive", "accommodating")),
    (("durable", "solid"), ("flimsy", "fragile")),
    (("responsive", "prompt"), ("sluggish", "unresponsive")),
    (("spacious", "roomy"), ("cramped", "tight")),
    (("quiet", "peaceful"), ("noisy", "loud")),
    (("fresh", "crisp"), ("stale", "soggy")),
    (("sloppy", "careless"), ("polished", "meticulous")),
    (("generous", "plentiful"), ("stingy", "meager")),
    (("erratic", "unpredictable"), ("reliable", "dependable")),
    (("smooth", "effortless"), ("clunky", "awkward")),
    (("grimy", "dingy"), ("spotless", "immaculate")),
    (("bright", "vivid"), ("dim", "drab")),
    (("tardy", "delayed"), ("punctual", "swift")),
    (("tidy", "organized"), ("cluttered", "messy")),
    (("frosty", "cold"), ("warm", "cozy")),
    (("secure", "sturdy"), ("precarious", "wobbly")),
)

EMOTION_WORDS: tuple[tuple[str, ...], ...] = (
    ("furious", "outraged"),
    ("disappointed", "letdown"),
    ("disgusted", "revolted"),
    ("grateful", "thankful"),
    ("delighted", "overjoyed"),
    ("proud", "accomplished"),
    ("regretful", "remorseful"),
    ("astonished", "stunned"),
)

_FILLER_WORDS = (
    "the", "we", "i", "my", "our", "it", "this", "that", "visit", "order",
    "arrived", "later", "again", "room", "meal", "staff", "table", "menu",
    "day", "trip", "place", "time", "then", "also", "quite", "overall",
    "during", "after", "before", "while", "two", "three", "first", "next",
    "booked", "checked", "paid", "asked", "told", "brought", "package",
    "store", "counter", "drive", "evening", "morning", "weekend", "item",
)

_OPENINGS = (
    "i am writing about a recent purchase .",
    "this review covers our latest visit .",
    "we tried this product not long ago .",
    "here is how the whole experience went .",
)

_APPRAISAL_TEMPLATES = (
    "the whole thing felt {word} to us .",
    "everything about it seemed {word} .",
    "my partner called it {word} outright .",
    "honestly it came across as {word} .",
)

_EMOTION_TEMPLATES = (
    "i felt {word} about it .",
    "it left me {word} for days .",
    "walking away i was simply {word} .",
)


def _default_appraisal_emotion_weights() -> np.ndarray:
    w = np.full((APPRAISAL_COUNT, EMOTION_COUNT), 0.25)
    for k in range(APPRAISAL_COUNT):
        w[k, k % EMOTION_COUNT] = 0.9
    return w * np.outer(APPRAISAL_VALENCE, EMOTION_VALENCE)


@dataclass(frozen=True)
class SyntheticGeneratorConfig:
    """Planted-signal generator settings; the defaults are the tested baseline."""

    record_count: int = declared("int", 1400, ge=1)
    noise_scale: float = declared("float", 0.25, ge=0)
    # a budget: rendering time is linear in it, 21-25 s for 1400 records of 10000 on a 2-core Xeon
    mean_review_length: int = declared("int", 190, ge=0, le=10_000)
    text_signal: float = declared("float", 1.0, ge=0, le=1)
    squash_scale: float = declared("float", 3.0, gt=0)
    appraisal_emotion_weights: np.ndarray = declared(
        "array", default_factory=_default_appraisal_emotion_weights,
        shape=(APPRAISAL_COUNT, EMOTION_COUNT))
    repurchase_appraisal_weights: np.ndarray = declared(
        "array", default_factory=lambda: 0.13 * APPRAISAL_VALENCE, shape=(APPRAISAL_COUNT,))
    repurchase_emotion_weights: np.ndarray = declared(
        "array", default_factory=lambda: 0.15 * EMOTION_VALENCE, shape=(EMOTION_COUNT,))
    promote_appraisal_weights: np.ndarray = declared(
        "array", default_factory=lambda: 0.07 * APPRAISAL_VALENCE, shape=(APPRAISAL_COUNT,))
    promote_emotion_weights: np.ndarray = declared(
        "array", default_factory=lambda: 0.19 * EMOTION_VALENCE, shape=(EMOTION_COUNT,))

    def __post_init__(self) -> None:
        check_fields(self)


def discretize_unit(x: float) -> int:
    """Affine-map a squashed latent in (-1, 1) onto [1, 7], rounding half-up."""
    # max(-1.0, nan) is -1.0, so NaN maps to 1
    return math.floor(4.0 + 3.0 * min(1.0, max(-1.0, float(x))) + 0.5)


def planted_emotions(appraisals: Sequence[int],
                     cfg: SyntheticGeneratorConfig,
                     noise: np.ndarray | None = None) -> tuple[int, ...]:
    """Closed-form emotion ratings implied by the planted weights."""
    centered = np.asarray(appraisals, dtype=np.float64) - 4.0
    latent = centered @ cfg.appraisal_emotion_weights
    if noise is not None:
        latent = latent + noise
    return tuple(discretize_unit(v) for v in np.tanh(latent / cfg.squash_scale).tolist())


def planted_pcb(appraisals: Sequence[int], emotions: Sequence[int],
                cfg: SyntheticGeneratorConfig, target: str,
                noise: float = 0.0) -> int:
    """Closed-form PCB rating implied by the planted weights."""
    if target == "repurchase":
        wa, we = cfg.repurchase_appraisal_weights, cfg.repurchase_emotion_weights
    elif target == "promote":
        wa, we = cfg.promote_appraisal_weights, cfg.promote_emotion_weights
    else:
        raise ConfigError(f"unknown PCB target {target!r}")
    latent = ((np.asarray(appraisals, dtype=np.float64) - 4.0) @ wa
              + (np.asarray(emotions, dtype=np.float64) - 4.0) @ we
              + noise)
    return discretize_unit(np.tanh(latent / cfg.squash_scale))


def _render_text(rng: np.random.Generator, appraisal_classes: Sequence[Level],
                 emotion_flags: Sequence[int], cfg: SyntheticGeneratorConfig,
                 target_tokens: int) -> str:
    candidates = [(APPRAISAL_WORDS[k][0 if cls == Level.HIGH else 1], _APPRAISAL_TEMPLATES)
                  for k, cls in enumerate(appraisal_classes) if cls != Level.MODERATE]
    candidates += [(EMOTION_WORDS[e], _EMOTION_TEMPLATES)
                   for e, flag in enumerate(emotion_flags) if flag]
    # Each kept sentence draws a word, then a template. One rng.integers call over an
    # array of bounds yields the values and the generator state of drawing them one at
    # a time, so the bounds are queued and drawn together; the queue is drawn before
    # each keep-or-drop draw, which keeps the stream's order.
    kept: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    bounds: list[int] = []
    picks: list[int] = []
    for words, templates in candidates:
        if cfg.text_signal < 1.0:
            if bounds:
                picks += rng.integers(0, bounds).tolist()
                bounds = []
            if rng.random() >= cfg.text_signal:
                continue
        kept.append((words, templates))
        bounds += (len(words), len(templates))
    picks += rng.integers(0, bounds + [len(_OPENINGS)]).tolist()

    sentences = [_OPENINGS[picks[-1]]]
    sentences += [templates[t].format(word=words[w])
                  for (words, templates), w, t in zip(kept, picks[0::2], picks[1::2])]
    count = len(tokenize(" ".join(sentences)))
    while count < target_tokens:
        n_words = int(rng.integers(6, 13))
        idx = rng.integers(len(_FILLER_WORDS), size=n_words)
        filler = " ".join([_FILLER_WORDS[i] for i in idx.tolist()]) + " ."
        # splice filler between signal sentences so signal position varies
        pos = int(rng.integers(1, len(sentences) + 1))
        sentences.insert(pos, filler)
        count += n_words + 1
    return " ".join(sentences)


def generate_synthetic(cfg: SyntheticGeneratorConfig, seed: int) -> list[ReviewRecord]:
    """Generate records whose ratings follow the planted causal chain."""
    rng = np.random.default_rng(seed)
    records: list[ReviewRecord] = []
    for i in range(cfg.record_count):
        appraisals = tuple(rng.integers(1, 8, size=APPRAISAL_COUNT).tolist())
        emo_noise = rng.normal(0.0, cfg.noise_scale, size=EMOTION_COUNT) \
            if cfg.noise_scale > 0 else None
        emotions = planted_emotions(appraisals, cfg, noise=emo_noise)
        pcb_noise = rng.normal(0.0, cfg.noise_scale, size=2) if cfg.noise_scale > 0 \
            else np.zeros(2)
        repurchase = planted_pcb(appraisals, emotions, cfg, "repurchase",
                                 noise=float(pcb_noise[0]))
        promote = planted_pcb(appraisals, emotions, cfg, "promote",
                              noise=float(pcb_noise[1]))
        length = rng.normal(cfg.mean_review_length, cfg.mean_review_length * 0.12)
        target_tokens = int(min(max(length, 30), 2 * cfg.mean_review_length))
        text = _render_text(rng,
                            [PCB_LEVELS[a - 1] for a in appraisals],
                            [EMOTION_FLAGS[e - 1] for e in emotions],
                            cfg, target_tokens)
        records.append(ReviewRecord(
            id=f"synth-{i:05d}",
            text=text,
            appraisals=appraisals,
            emotions=emotions,
            pcb_repurchase=repurchase,
            pcb_promote=promote,
        ))
    return records
