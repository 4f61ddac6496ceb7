"""Reverse-mode automatic differentiation over dense float tensors.

A tensor keeps a float32 or float64 array as given and converts anything
else to float64; every operation computes in its inputs' dtype. A
``parameter`` is float32, so training runs in float32; integrated gradients
(through ``frozen``) and the gradient checks compute in float64.

Operations eagerly record a closure graph as they execute; ``backward`` walks
it once in reverse topological order and accumulates gradients additively.
Shapes are strict: the only broadcast supported is adding a ``[n]`` bias
vector to a ``[m, n]`` matrix, so mismatches surface as shape errors instead
of silent bugs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, GraphError, LabelError, VocabularyError

Array = np.ndarray


class ComputationNode:
    """Backward record for one operation.

    ``backward_fn`` closes over whatever forward values the gradient rule
    needs and accumulates into the inputs' ``grad`` buffers when called with
    the upstream gradient.
    """

    __slots__ = ("op_kind", "inputs", "backward_fn")

    def __init__(self, op_kind: str, inputs: Sequence["Tensor"],
                 backward_fn: Callable[[Array], None]):
        self.op_kind = op_kind
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


def _as_float(data) -> Array:
    """``data`` as an array: float32 stays float32, anything else is float64."""
    data = np.asarray(data)
    return data if data.dtype == np.float32 else data.astype(np.float64, copy=False)


class Tensor:
    """Dense float32 or float64 array with an optional gradient buffer.

    Tensors produced by recorded operations carry a ``node`` linking them to
    their parents; leaves (parameters, inputs) have ``node is None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "node", "path")

    def __init__(self, data, requires_grad: bool = False,
                 node: ComputationNode | None = None, path: str | None = None):
        self.data = _as_float(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.node = node
        self.path = path

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" path={self.path!r}" if self.path else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def parameter(data, path: str) -> Tensor:
    """A trainable leaf tensor registered under a unique path, its value
    rounded once to float32, the dtype of every parameter pcbnet builds."""
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=True, path=path)


@contextmanager
def frozen(tensors: Iterable[Tensor], dtype=None) -> Iterator[None]:
    """Clear ``requires_grad`` on ``tensors`` for the block, then restore it.

    Operations on them alone record no graph; a tensor made in the block with
    ``requires_grad`` still records its own. With ``dtype``, each tensor also
    holds its value cast to ``dtype`` for the block (no copy where it is one
    already), and gets the array it had back.
    """
    held = [(t, t.requires_grad, t.data) for t in tensors]
    for t, _, value in held:
        t.requires_grad = False
        t.data = value if dtype is None else value.astype(dtype, copy=False)
    try:
        yield
    finally:
        for t, flag, value in held:
            t.requires_grad, t.data = flag, value


def _accumulate(t: Tensor, g: Array, owned: bool = False) -> None:
    # Ownership rule: ``backward_from`` takes an interior tensor's gradient off
    # it before its backward rule runs, so that ``g`` has one owner and a rule
    # may keep or hand it on (``owned``: a fresh product or sum, or the ``g``
    # add, relu and dense_epilogue pass on); any other is copied, never
    # aliased: ``concat`` hands out views of ``g``, same-shape add reads it
    # twice, the seed is the caller's
    if t.requires_grad:
        if t.grad is None:
            t.grad = g if owned else g.copy()
        else:
            t.grad += g


def _result(data: Array, op_kind: str, inputs: Sequence[Tensor],
            backward_fn: Callable[[Array], None]) -> Tensor:
    if any(t.requires_grad for t in inputs):
        node = ComputationNode(op_kind, inputs, backward_fn)
        return Tensor(data, requires_grad=True, node=node)
    return Tensor(data)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for parent in t.node.inputs:
                stack.append((parent, False))
    return order


def backward_from(output: Tensor, upstream: Array) -> None:
    """Seed ``output`` with an arbitrary upstream gradient and propagate.

    As in PyTorch, only leaves keep a gradient: every interior ``grad`` ends None.
    """
    upstream = np.asarray(upstream, dtype=output.data.dtype)
    if upstream.shape != output.data.shape:
        raise DimensionError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"output shape {output.data.shape}")
    order = _topo_order(output)
    _accumulate(output, upstream)
    for t in reversed(order):
        if t.node is not None and t.grad is not None:
            g, t.grad = t.grad, None
            t.node.backward_fn(g)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf ancestor of a scalar loss.

    Repeated calls without zeroing accumulate additively.
    """
    if loss.data.size != 1:
        raise GraphError(
            f"backward requires a scalar loss, got shape {loss.data.shape}")
    backward_from(loss, np.ones_like(loss.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul requires 2-d operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} and {b.shape}")
    out = a.data @ b.data

    def _back(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.data.T, owned=True)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g, owned=True)

    return _result(out, "matmul", (a, b), _back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; the one allowed broadcast is bias-add of ``[n]`` to ``[m, n]``."""
    if a.shape == b.shape:
        def _back_same(g: Array) -> None:
            _accumulate(b, g)
            _accumulate(a, g, owned=True)
        return _result(a.data + b.data, "add", (a, b), _back_same)
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def _back_bias(g: Array) -> None:
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0), owned=True)
            _accumulate(a, g, owned=True)
        return _result(a.data + b.data, "add", (a, b), _back_bias)
    raise DimensionError(f"add shapes incompatible: {a.shape} and {b.shape}")


def dense_epilogue(z: Tensor, bias: Tensor, apply_relu: bool) -> Tensor:
    """``relu(add(z, bias))``, or ``add(z, bias)`` without ``apply_relu``, bit for bit.

    ``z`` must be the output of a ``matmul`` that nothing else reads: the op
    takes over its buffer and writes the result into it. The backward reads
    the relu mask back from that result (``out > 0`` exactly where
    ``z + bias > 0``) and runs the chain's operations in the chain's order.
    """
    if z.data.ndim != 2 or bias.data.ndim != 1 or z.shape[1] != bias.shape[0]:
        raise DimensionError(
            f"dense_epilogue expects z [m, n] and bias [n], got {z.shape} and {bias.shape}")
    out = z.data
    out += bias.data
    if apply_relu:
        np.maximum(out, 0.0, out=out)

    def _back(g: Array) -> None:
        if apply_relu:
            np.multiply(g, out > 0.0, out=g)  # relu'(0) := 0
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0), owned=True)
        _accumulate(z, g, owned=True)

    return _result(out, "dense_epilogue", (z, bias), _back)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0.0  # relu'(0) := 0

    def _back(g: Array) -> None:
        _accumulate(x, np.multiply(g, mask, out=g), owned=True)

    return _result(out, "relu", (x,), _back)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    if not 0 <= axis < ndim:
        raise DimensionError(f"concat axis {axis} out of range for {ndim}-d tensors")
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or other[:axis] + other[axis + 1:] != ref[:axis] + ref[axis + 1:]:
            raise DimensionError(
                "concat shapes incompatible along axis "
                f"{axis}: {[tuple(t.shape) for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def _back(g: Array) -> None:
        offset = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * ndim
            sl[axis] = slice(offset, offset + size)
            _accumulate(t, g[tuple(sl)])
            offset += size

    return _result(out, "concat", tuple(tensors), _back)


def mean(x: Tensor) -> Tensor:
    """Mean over all elements, producing a scalar."""
    n = x.data.size
    out = np.asarray(x.data.mean())

    def _back(g: Array) -> None:
        _accumulate(x, np.full_like(x.data, float(g) / n), owned=True)

    return _result(out, "mean", (x,), _back)


def masked_mean(x: Tensor, mask: Array) -> Tensor:
    """Mean of ``x [b, L, e]`` over the positions where ``mask [b, L]`` is 1.

    Divides by the mask sum of each row, never by L; all-masked rows pool
    to the zero vector.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if x.data.ndim != 3 or mask.shape != x.data.shape[:2]:
        raise DimensionError(
            f"masked_mean expects x [b, L, e] and mask [b, L], got {x.shape} and {mask.shape}")
    counts = np.maximum(mask.sum(axis=1), 1.0)[:, None]
    out = np.matmul(mask[:, None, :], x.data)[:, 0] / counts

    def _back(g: Array) -> None:
        _accumulate(x, (g / counts)[:, None, :] * mask[:, :, None], owned=True)

    return _result(out, "masked_mean", (x,), _back)


def _check_ids(table: Tensor, ids: Array) -> None:
    if table.data.ndim != 2:
        raise DimensionError(f"embedding table must be 2-d, got {table.shape}")
    vocab_size = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        bad = int(ids.max() if ids.max() >= vocab_size else ids.min())
        raise VocabularyError(f"token id {bad} outside vocabulary of size {vocab_size}")


def embedding_bag(table: Tensor, ids: Array, mask: Array) -> Tensor:
    """``masked_mean(embedding_lookup(table, ids), mask)`` up to rounding, as one op.

    A mean ignores word order: with ``bags [b, V]`` the mask-weighted count of
    each id in each row, it is ``bags @ table / counts``, and the table
    gradient ``bags.T @ (g / counts)``; no ``[b, L, e]`` tensor is built.
    """
    ids = np.asarray(ids)
    mask = _as_float(mask)
    _check_ids(table, ids)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise DimensionError(
            f"embedding_bag expects ids [b, L] and mask [b, L], got {ids.shape} and {mask.shape}")
    b, vocab_size = ids.shape[0], table.shape[0]
    rows = (np.arange(b)[:, None] * vocab_size + ids).ravel()
    # bincount sums in float64; the counts are small integers, exact in float32
    bags = np.bincount(rows, weights=mask.ravel(), minlength=b * vocab_size).reshape(
        b, vocab_size).astype(mask.dtype, copy=False)
    counts = np.maximum(mask.sum(axis=1), 1.0)[:, None]
    out = (bags @ table.data) / counts

    def _back(g: Array) -> None:
        _accumulate(table, bags.T @ (g / counts), owned=True)

    return _result(out, "embedding_bag", (table,), _back)


def embedding_lookup(table: Tensor, ids: Array) -> Tensor:
    """Gather rows of ``table [V, e]`` by integer ids ``[b, L]``."""
    ids = np.asarray(ids)
    _check_ids(table, ids)
    out = table.data[ids]

    def _back(g: Array) -> None:
        if not table.requires_grad:
            return
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        _accumulate(table, gt, owned=True)

    return _result(out, "embedding_lookup", (table,), _back)


def _log_softmax(z: Array) -> Array:
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, targets: Array) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target].

    Past its two shape checks it is ``grouped_cross_entropy`` with one group.
    """
    targets = np.asarray(targets)
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects logits [b, c], got {logits.shape}")
    b = logits.shape[0]
    if targets.shape != (b,):
        raise DimensionError(
            f"cross_entropy targets shape {targets.shape} does not match batch {b}")
    return grouped_cross_entropy(logits, targets[:, None], groups=1)


def grouped_cross_entropy(logits: Tensor, targets: Array, groups: int,
                          weight: float = 1.0) -> Tensor:
    """Cross-entropy over ``groups`` independent class blocks per row.

    ``logits [b, groups*c]`` is reshaped to ``[b, groups, c]``; ``targets``
    is ``[b, groups]`` of class indices. Loss is the mean over all b*groups
    sub-problems. ``weight`` scales the loss (and its gradients), for joint objectives.
    """
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or logits.shape[1] % groups != 0:
        raise DimensionError(
            f"grouped_cross_entropy logits {logits.shape} not divisible into {groups} groups")
    b = logits.shape[0]
    c = logits.shape[1] // groups
    if c < 2:
        raise DimensionError(f"grouped_cross_entropy needs at least 2 classes, got {c}")
    if targets.shape != (b, groups):
        raise DimensionError(
            f"grouped_cross_entropy targets shape {targets.shape}, expected {(b, groups)}")
    bad = np.nonzero((targets < 0) | (targets >= c))
    if bad[0].size:
        i, j = int(bad[0][0]), int(bad[1][0])
        at = i if groups == 1 else (i, j)  # one group: a row of a cross_entropy batch
        raise LabelError(
            f"target {int(targets[i, j])} at index {at} outside class range [0, {c})")
    z = logits.data.reshape(b, groups, c)
    lsm = _log_softmax(z)
    rows = np.arange(b)[:, None]
    cols = np.arange(groups)[None, :]
    out = np.asarray(-lsm[rows, cols, targets].mean() * weight)

    def _back(g: Array) -> None:
        dz = np.exp(lsm)
        dz[rows, cols, targets] -= 1.0
        _accumulate(logits, dz.reshape(b, groups * c) * (weight * float(g) / (b * groups)),
                    owned=True)

    return _result(out, "cross_entropy", (logits,), _back)


def binary_cross_entropy(logits: Tensor, targets: Array, weight: float = 1.0) -> Tensor:
    """Mean over all entries of the stable logits-form binary cross-entropy."""
    targets = np.asarray(targets, dtype=logits.data.dtype)
    if logits.data.ndim != 2:
        raise DimensionError(
            f"binary_cross_entropy expects logits [b, k], got {logits.shape}")
    if targets.shape != logits.data.shape:
        raise DimensionError(
            f"binary_cross_entropy targets shape {targets.shape} "
            f"does not match logits {logits.shape}")
    if not np.all((targets == 0.0) | (targets == 1.0)):
        bad = np.argwhere((targets != 0.0) & (targets != 1.0))[0]
        raise LabelError(
            f"non-binary target {targets[tuple(bad)]} at index {tuple(int(v) for v in bad)}")
    z = logits.data
    # max(z,0) - z*t + log(1 + exp(-|z|)) is exact and overflow-free
    per_elem = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    out = np.asarray(per_elem.mean() * weight)

    def _back(g: Array) -> None:
        e = np.exp(-np.abs(z))
        sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
        _accumulate(logits, (sig - targets) * (weight * float(g) / n), owned=True)

    return _result(out, "binary_cross_entropy", (logits,), _back)
