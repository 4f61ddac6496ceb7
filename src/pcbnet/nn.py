"""Layers, initialization, the α-path value kinds, and Adam.

Adam packs its parameters into views of one flat buffer (``arena``), which
it updates in one blocked pass with the bias corrections folded into one
step size (Kingma & Ba 2015, Section 2).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .autodiff import Tensor, add, dense_epilogue, matmul, parameter
# Layers run bias and relu in dense_epilogue; the benchmark's tracer
# (perfbench/spans.py) still patches relu in this module.
from .autodiff import relu  # noqa: F401
from .errors import OptimizerError

__all__ = ["LinearLayer", "FFNNHead", "Adam", "arena", "Value", "CONSTANT", "AFFINE", "ROWS",
           "lift"]


def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# The kinds of a value on integrated gradients' α-path, in the order they
# combine. The path's s steps are the rows of A @ [q'; q], the baseline's and
# the input's text embedding, where A is the fixed [s, 2] matrix with rows
# [1 - α, α] (``Batch.alpha_path``). A CONSTANT value is one row that stands
# for every step: the rating inputs and what is computed from them alone. An
# AFFINE value is two rows V, its values at the baseline and at the input,
# that stand for A @ V. ROWS is one row per step; every value of an ordinary
# batch is ROWS. Each row of A sums to 1, so a row added to both rows of V is
# added to every step: a bias acts on every kind alike.
CONSTANT, AFFINE, ROWS = 0, 1, 2


class Value(NamedTuple):
    tensor: Tensor
    kind: int


def lift(value: Value, kind: int, alpha_path: np.ndarray | None) -> Value:
    """``value`` as a value of the wider ``kind``, by one product with a fixed matrix.

    A constant row c is [c; c] as an affine value, and one row per step as a
    column of ones times c; an affine value V is A @ V per step.
    """
    if value.kind == kind:
        return value
    left = (alpha_path if value.kind == AFFINE
            else np.ones((2 if kind == AFFINE else len(alpha_path), 1)))
    return Value(matmul(Tensor(left), value.tensor), kind)


def _total(values: Sequence[Value], alpha_path: np.ndarray | None) -> Value:
    """The sum of same-width ``values``, of the widest kind among them; the
    narrower kinds are summed first, so each is lifted once."""
    values = sorted(values, key=lambda v: v.kind)
    out = values[0]
    for v in values[1:]:
        out = Value(add(lift(out, v.kind, alpha_path).tensor, v.tensor), v.kind)
    return out


class LinearLayer:
    """Affine map x @ W + b, then relu if asked, with parameters under ``path``.

    Bias and relu run in place in the matmul's output buffer (``dense_epilogue``).
    ``run`` applies it to values of any kind.
    """

    def __init__(self, in_dim: int, out_dim: int, path: str, rng: np.random.Generator):
        self.weight = parameter(kaiming_uniform(rng, in_dim, (in_dim, out_dim)),
                                f"{path}.weight")
        self.bias = parameter(np.zeros(out_dim), f"{path}.bias")

    def __call__(self, x: Tensor, apply_relu: bool = False) -> Tensor:
        return dense_epilogue(matmul(x, self.weight), self.bias, apply_relu)

    def run(self, parts: Sequence[Value], apply_relu: bool,
            alpha_path: np.ndarray | None) -> Value:
        """The layer on its input, given whole as one value, or as one value per
        block of the weight's rows, in order.

        Each block is multiplied by its own rows of the weight and the products
        are summed, so no value is expanded to one row per step before a ReLU;
        a ReLU expands an affine sum first. The bias is then added to every row
        of the sum, whatever its kind. A whole input of one row per step runs
        exactly as ``__call__``. The weight's row blocks record no gradient:
        an α-path runs on frozen parameters (``ModelInstance``).
        """
        products, start = [], 0
        for x in parts:
            stop = start + x.tensor.shape[1]
            weight = self.weight if len(parts) == 1 else Tensor(self.weight.data[start:stop])
            products.append(Value(matmul(x.tensor, weight), x.kind))
            start = stop
        z = _total(products, alpha_path)
        if apply_relu and z.kind == AFFINE:
            z = lift(z, ROWS, alpha_path)
        return Value(dense_epilogue(z.tensor, self.bias, apply_relu), z.kind)

    def parameters(self) -> dict[str, Tensor]:
        return {self.weight.path: self.weight, self.bias.path: self.bias}


class FFNNHead:
    """Stack of linear layers with relu between them; final layer emits raw logits."""

    def __init__(self, in_dim: int, widths: list[int], path: str,
                 rng: np.random.Generator):
        self.layers: list[LinearLayer] = []
        prev = in_dim
        for i, w in enumerate(widths):
            self.layers.append(LinearLayer(prev, w, f"{path}.layer{i}", rng))
            prev = w

    def run(self, parts: Sequence[Value], alpha_path: np.ndarray | None,
            final: bool = True) -> Value:
        """The head on its input, as ``LinearLayer.run`` takes it, through every
        layer, or without ``final`` through all but the last; a ReLU follows
        every layer but the last."""
        layers = self.layers if final else self.layers[:-1]
        for i, layer in enumerate(layers):
            parts = [layer.run(parts, i < len(self.layers) - 1, alpha_path)]
        (x,) = parts
        return x

    def __call__(self, x: Tensor) -> Tensor:
        return self.run([Value(x, ROWS)], None).tensor

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for layer in self.layers:
            out.update(layer.parameters())
        return out


# Adam walks the parameters in blocks of this many elements (128 KiB per array
# in float32, the dtype of every parameter pcbnet builds), so a block of p, g,
# m, v and the scratch blocks stays in a 2 MiB L2 cache across the update's 12
# passes. Measured on a 2-core Intel Xeon with 2 MiB L2 per core, float32, one
# arena, fastest of 50 steps in each of 4 alternating runs: the fusion head's
# 1.71 M values took 3.7-4.5 ms at 32768 and 3.7-4.7 ms at 65536, architecture
# 12's 186,055 values 0.45-0.47 and 0.44-0.45 ms; 16384 and 131072 were no
# faster. The smaller block holds half the scratch.
_ADAM_BLOCK = 32768
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


def arena(tensors: Iterable[Tensor], dtype) -> np.ndarray:
    """One flat C-contiguous buffer of ``dtype`` that the tensors fill in order.

    Each tensor's value is cast straight into its view, which becomes its
    ``data``; no other copy is made.
    """
    tensors = list(tensors)
    buffer = np.empty(sum(t.data.size for t in tensors), dtype)
    start = 0
    for t in tensors:
        view = buffer[start:start + t.data.size].reshape(t.data.shape)
        view[...] = t.data
        start += view.size
        t.data = view
    return buffer


class Adam:
    """Adam with its bias corrections folded into the step size; clears
    gradients after each step.

    The parameters must share one dtype; the constructor refuses anything
    else before it touches one. It then packs them into one arena of that
    dtype (``nn.arena``), so each becomes a view of it, and every step walks
    the arena in place in ``_ADAM_BLOCK`` blocks. ``m`` and ``v`` are flat
    arrays in the parameters' order.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        dtypes = {p.data.dtype for p in params.values()} or {np.dtype(np.float64)}
        if len(dtypes) > 1:
            raise OptimizerError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        theta = arena(params.values(), dtypes.pop())
        self._values = [p.data for p in params.values()]
        ends = list(accumulate(v.size for v in self._values))
        starts = [0, *ends[:-1]]
        self.step_count = 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        # the update's two scratch blocks, and one that gathers the gradient
        # of a block that spans parameters; each step overwrites them, and
        # each training call makes its own optimizer, so no two threads share them
        self._scratch = tuple(np.empty(min(_ADAM_BLOCK, theta.size), theta.dtype)
                              for _ in range(3))
        # per block: its views of theta, m and v, and the (parameter, start,
        # stop) pieces of the parameters' flat gradients it covers
        self._blocks = []
        for lo in range(0, theta.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, theta.size)
            pieces = [(k, max(lo, s) - s, min(hi, e) - s)
                      for k, (s, e) in enumerate(zip(starts, ends)) if s < hi and e > lo]
            self._blocks.append((theta[lo:hi], self.m[lo:hi], self.v[lo:hi], pieces))

    def step(self, lr: float) -> None:
        for (path, p), value in zip(self.params.items(), self._values):
            if p.data is not value:  # the update would land in the old buffer
                raise OptimizerError(f"parameter {path!r} was rebound after the "
                                     f"optimizer was made")
            if p.grad is None:
                raise OptimizerError(f"parameter {path!r} has no gradient")
            if p.grad.shape != p.data.shape:
                raise OptimizerError(
                    f"parameter {path!r} has shape {p.data.shape} "
                    f"but its gradient {p.grad.shape}")
        self.step_count += 1
        # Kingma & Ba (2015), Section 2, with the bias corrections folded into
        # the step size and epsilon, in place:
        #   m = beta1 * m + (1 - beta1) * g
        #   v = beta2 * v + (1 - beta2) * g * g
        #   p -= step_size * m / (sqrt(v) + eps_hat)
        # step_size = lr * sqrt(bc2) / bc1 and eps_hat = epsilon * sqrt(bc2)
        # are Python floats, which numpy never lets widen a float32 array.
        # The update equals the textbook one up to rounding; each operation is
        # elementwise, so running them block by block changes no bit.
        root_bc2 = math.sqrt(1.0 - _BETA2 ** self.step_count)
        step_size = lr * root_bc2 / (1.0 - _BETA1 ** self.step_count)
        eps_hat = _EPSILON * root_bc2
        grads = [p.grad.reshape(-1) for p in self.params.values()]
        buf_a, buf_b, buf_g = self._scratch
        for theta, m, v, pieces in self._blocks:
            if len(pieces) == 1:
                k, lo, hi = pieces[0]
                g = grads[k][lo:hi]
            else:
                g = np.concatenate([grads[k][lo:hi] for k, lo, hi in pieces],
                                   out=buf_g[:theta.size])
            a, b = buf_a[:theta.size], buf_b[:theta.size]
            m *= _BETA1
            m += np.multiply(1.0 - _BETA1, g, out=a)
            v *= _BETA2
            np.multiply(1.0 - _BETA2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.multiply(m, step_size, out=a)
            np.sqrt(v, out=b)
            b += eps_hat
            theta -= np.divide(a, b, out=a)
        for p in self.params.values():
            p.grad = None
