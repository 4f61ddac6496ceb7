"""Tokenization, vocabulary, and the trainable mean-pooling text encoder.

The default encoder is deliberately small: an embedding table, mean pooling
over unmasked positions, and one linear projection. It fills the text-encoder
slot behind a stable interface; externally computed embeddings can be slotted
in via ``PrecomputedEncoder`` without touching downstream modules.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autodiff import (Tensor, embedding_bag, embedding_lookup, masked_mean,
                       parameter)
from .errors import ConfigError, ValidationError
from .nn import LinearLayer

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

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

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

    def save(self, path: str | Path) -> None:
        from .serialize import atomic_write_text
        atomic_write_text(path, "\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(lines)


@dataclass
class EncodedBatch:
    """Padded token ids with an attention mask that is 0 exactly on pad positions."""

    token_ids: np.ndarray       # [b, L] int64
    attention_mask: np.ndarray  # [b, L] float64 in {0, 1}


def encode_texts(texts: Sequence[str], vocab: Vocabulary,
                 max_sequence_length: int = 256) -> EncodedBatch:
    """Tokenize, truncate from the tail, and pad into a rectangular batch."""
    token_lists = [tokenize(t)[:max_sequence_length] for t in texts]
    width = max((len(ts) for ts in token_lists), default=0)
    width = max(width, 1)
    ids = np.full((len(texts), width), vocab.pad_id, dtype=np.int64)
    mask = np.zeros((len(texts), width), dtype=np.float64)
    for i, ts in enumerate(token_lists):
        ids[i, :len(ts)] = vocab.ids(ts)
        mask[i, :len(ts)] = 1.0
    return EncodedBatch(token_ids=ids, attention_mask=mask)


@dataclass
class TextEncoderConfig:
    embedding_dim: int = 128
    max_sequence_length: int = 256


class TextEncoder:
    """Embedding table -> masked mean pooling -> linear projection.

    ``encode`` pools through the fused ``embedding_bag`` op. The per-token
    path ``token_embeddings`` -> ``pool`` -> ``projection`` gives the same
    output bit for bit; integrated-gradients attribution pools with it and
    feeds its own pooled vectors to ``projection``.
    """

    def __init__(self, vocab: Vocabulary, config: TextEncoderConfig,
                 rng: np.random.Generator, path: str = "encoder"):
        self.vocab = vocab
        self.config = config
        d = config.embedding_dim
        self.embedding = parameter(rng.normal(0.0, 0.1, size=(len(vocab), d)),
                                   f"{path}.embedding")
        self.projection = LinearLayer(d, d, f"{path}.projection", rng)

    @property
    def output_dim(self) -> int:
        return self.config.embedding_dim

    def token_embeddings(self, batch: EncodedBatch) -> Tensor:
        return embedding_lookup(self.embedding, batch.token_ids)

    def pool(self, emb: Tensor, mask: np.ndarray) -> Tensor:
        """Masked mean of token embeddings ``[b, L, e]`` -> ``[b, e]``."""
        return masked_mean(emb, mask)

    def encode(self, batch: EncodedBatch) -> Tensor:
        return self.projection(
            embedding_bag(self.embedding, batch.token_ids, batch.attention_mask))

    def parameters(self) -> dict[str, Tensor]:
        out = {self.embedding.path: self.embedding}
        out.update(self.projection.parameters())
        return out


class PrecomputedEncoder:
    """Encoder slot fed from a file of externally computed embeddings.

    File format: one JSON object per line, ``{"id": ..., "embedding": [...]}``.
    Not differentiable into the text, so attribution is unavailable.
    """

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        self.table = table
        self.dim = dim

    @property
    def output_dim(self) -> int:
        return self.dim

    @classmethod
    def load(cls, path: str | Path) -> "PrecomputedEncoder":
        table: dict[str, np.ndarray] = {}
        dim: int | None = None
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rid = str(obj["id"])
                vec = np.asarray(obj["embedding"], dtype=np.float64)
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValidationError(f"line {lineno}: bad embedding record ({exc})") from exc
            if vec.ndim != 1:
                raise ValidationError(f"line {lineno}: embedding must be a flat vector")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ValidationError(
                    f"line {lineno}: embedding width {vec.shape[0]} != {dim}")
            table[rid] = vec
        if dim is None:
            raise ValidationError(f"{path}: no embedding records found")
        return cls(table, dim)

    def embed_records(self, record_ids: Sequence[str]) -> Tensor:
        rows = []
        for rid in record_ids:
            if rid not in self.table:
                raise ValidationError(f"no precomputed embedding for record {rid!r}")
            rows.append(self.table[rid])
        return Tensor(np.stack(rows))

    def parameters(self) -> dict[str, Tensor]:
        return {}


def save_precomputed_embeddings(path: str | Path,
                                table: dict[str, np.ndarray]) -> None:
    from .serialize import atomic_write_text
    lines = [json.dumps({"id": rid, "embedding": list(map(float, vec))})
             for rid, vec in table.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")
