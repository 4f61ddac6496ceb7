"""Tokenization, vocabulary, and the trainable mean-pooling text encoder.

The default encoder is deliberately small: an embedding table, mean pooling
over unmasked positions, and one linear projection. Externally computed
embeddings take its place as data, not as a second encoder: ``load_embeddings``
reads the file once per run into one row per record, which ``featurize``
stores as the ``Dataset.text_features`` column.

Text is int64 token ids alone, padded with the pad id, and ``token_mask``
derives the attention mask from them. Encoding holds no per-token Python
object past its own text: each becomes an id row before the next is tokenized.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Tensor, embedding_bag, parameter
# The per-token reference ops are not called here: the benchmark's tracer
# (perfbench/spans.py) patches both names in this module.
from .autodiff import embedding_lookup, masked_mean  # noqa: F401
from .errors import ConfigError, ValidationError
from .nn import LinearLayer
from .serialize import atomic_writer, read_jsonl, record_id

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and break punctuation into standalone tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token/id bijection with pad and unknown specials at ids 0 and 1."""

    def __init__(self, tokens: Sequence[str]):
        if list(tokens[:2]) != [PAD_TOKEN, UNK_TOKEN]:
            raise ConfigError("vocabulary must start with the pad and unknown tokens")
        self.tokens = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ConfigError("vocabulary contains duplicate tokens")
        self.pad_id = 0
        self.unk_id = 1

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def build(cls, texts: Iterable[str], min_freq: int = 2) -> "Vocabulary":
        """Build from training-split texts only; tokens under min_freq are dropped."""
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(tokenize(text))
        kept = sorted(t for t, n in counts.items() if n >= min_freq)
        return cls([PAD_TOKEN, UNK_TOKEN] + kept)

    def ids(self, tokens: Sequence[str]) -> list[int]:
        """Map tokens to ids; out-of-vocabulary tokens map to the unknown id."""
        unk = self.unk_id
        return [self.token_to_id.get(t, unk) for t in tokens]


def encode_texts(texts: Sequence[str], vocab: Vocabulary,
                 max_sequence_length: int = 256) -> np.ndarray:
    """Tokenize, truncate from the tail, and pad into ``[n, L]`` int64 token ids,
    L the longest row (at least 1).

    One text at a time, into one ``[n, max_sequence_length]`` buffer: a text's
    token list lives only until its ids are a row of it.
    """
    n, capacity = len(texts), max(max_sequence_length, 1)
    ids = np.full((n, capacity), vocab.pad_id, dtype=np.int64)
    width = 1
    for i, text in enumerate(texts):
        row = vocab.ids(tokenize(text)[:max_sequence_length])
        ids[i, :len(row)] = row
        width = max(width, len(row))
    return np.ascontiguousarray(ids[:, :width])


def token_mask(token_ids: np.ndarray, pad_id: int) -> np.ndarray:
    """The float64 {0, 1} mask of ``token_ids``: 0 exactly on pad positions.

    No real token has the pad id: ``Vocabulary`` puts pad at 0 and refuses
    duplicates, and ``tokenize`` cannot produce ``"<pad>"``.
    """
    return (token_ids != pad_id).astype(np.float64)


class TextEncoder:
    """Embedding table -> masked mean pooling -> linear projection.

    ``encode`` pools with ``embedding_bag``, the one pooling expression in
    the program; integrated-gradients attribution pools with the same op and
    feeds its pooled vectors to ``projection``. ``max_sequence_length`` is
    the truncation of its texts, which checkpoints and attribution read.
    """

    def __init__(self, vocab: Vocabulary, d: int, rng: np.random.Generator,
                 max_sequence_length: int = 256, path: str = "encoder"):
        self.vocab = vocab
        self.max_sequence_length = max_sequence_length
        self.embedding = parameter(rng.normal(0.0, 0.1, size=(len(vocab), d)),
                                   f"{path}.embedding")
        self.projection = LinearLayer(d, d, f"{path}.projection", rng)

    def encode(self, token_ids: np.ndarray) -> Tensor:
        table = self.embedding
        mask = token_mask(token_ids, self.vocab.pad_id).astype(table.data.dtype, copy=False)
        return self.projection(embedding_bag(table, token_ids, mask))

    def parameters(self) -> dict[str, Tensor]:
        out = {self.embedding.path: self.embedding}
        out.update(self.projection.parameters())
        return out


def _embedding(obj) -> tuple[str, np.ndarray]:
    if not (isinstance(obj, dict) and "id" in obj and "embedding" in obj):
        raise ValidationError("expected an object with an id and an embedding")
    values = obj["embedding"]
    # a flat list of JSON numbers; a bool or a string would convert silently
    if not (isinstance(values, list) and set(map(type, values)) <= {int, float}):
        raise ValidationError("embedding must be a flat list of numbers")
    vec = np.array(values, dtype=np.float64)  # an integer past float64 is an OverflowError
    if not np.isfinite(vec).all():
        raise ValidationError("embedding values must be finite")
    return record_id(obj["id"]), vec


def load_embeddings(path: str | Path, ids: Sequence[str]) -> np.ndarray:
    """Externally computed embeddings, one row per record id, in that order.

    File format: one JSON object per line, ``{"id": ..., "embedding": [...]}``.
    A ``ValidationError`` lists every line that is not JSON, not finite
    numbers or a repeated id (``serialize.read_jsonl``), else names the first line whose width
    differs from the first line's, or an id in ``ids`` with no line.
    """
    lines = read_jsonl(path, "precomputed embeddings", _embedding, lambda row: row[0])
    if not lines:
        raise ValidationError(f"{path}: no embedding records found")
    dim = len(lines[0][1][1])  # each line holds (id, vector)
    for lineno, (_, vec) in lines:
        if len(vec) != dim:
            raise ValidationError(f"{path}: line {lineno}: embedding width {len(vec)} != {dim}")
    table = dict(row for _, row in lines)
    rows = np.empty((len(ids), dim))
    for i, rid in enumerate(ids):
        if rid not in table:
            raise ValidationError(f"{path}: no precomputed embedding for record {rid!r}")
        rows[i] = table[rid]
    return rows


def save_precomputed_embeddings(path: str | Path,
                                table: dict[str, np.ndarray]) -> None:
    with atomic_writer(path) as fh:
        for rid, vec in table.items():
            fh.write(json.dumps({"id": rid, "embedding": list(map(float, vec))}) + "\n")
