"""Layers, initialization, and Adam.

Training hands Adam its parameters as views of one flat buffer (``arena``),
which it updates in one blocked pass with the bias corrections folded into
one step size (Kingma & Ba 2015, Section 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

import numpy as np

from .autodiff import Tensor, dense_epilogue, matmul, parameter
# Layers run bias and relu in dense_epilogue; the benchmark's tracer
# (perfbench/spans.py) still patches both chain ops in this module.
from .autodiff import add, relu  # noqa: F401
from .errors import OptimizerError

__all__ = ["LinearLayer", "FFNNHead", "Adam", "arena"]


def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class LinearLayer:
    """Affine map x @ W + b, then relu if asked, with parameters under ``path``.

    Bias and relu run in place in the matmul's output buffer (``dense_epilogue``).
    """

    def __init__(self, in_dim: int, out_dim: int, path: str, rng: np.random.Generator):
        self.weight = parameter(kaiming_uniform(rng, in_dim, (in_dim, out_dim)),
                                f"{path}.weight")
        self.bias = parameter(np.zeros(out_dim), f"{path}.bias")

    def __call__(self, x: Tensor, apply_relu: bool = False) -> Tensor:
        return dense_epilogue(matmul(x, self.weight), self.bias, apply_relu)

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

    def hidden(self, x: Tensor) -> Tensor:
        """Activation before the final layer: each earlier layer followed by relu."""
        for layer in self.layers[:-1]:
            x = layer(x, apply_relu=True)
        return x

    def __call__(self, x: Tensor) -> Tensor:
        return self.layers[-1](self.hidden(x))

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for layer in self.layers:
            out.update(layer.parameters())
        return out


# Adam walks the parameters in blocks of this many elements (128 KiB per array
# in float32, which training runs in; 256 KiB in float64), so a block of p, g,
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


def _arena_of(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The flat buffer that ``arrays`` exactly fill in order, if there is one."""
    buffer = arrays[0].base if arrays else None
    if (buffer is None or buffer.ndim != 1 or not buffer.flags.c_contiguous
            or buffer.dtype != arrays[0].dtype):
        return None
    address = buffer.ctypes.data
    for a in arrays:
        if a.base is not buffer or a.ctypes.data != address:
            return None
        address += a.nbytes
    return buffer if address == buffer.ctypes.data + buffer.nbytes else None


@dataclass
class Adam:
    """Adam with its bias corrections folded into the step size; clears
    gradients after each step.

    Every parameter must be C-contiguous and all must share one dtype; the
    constructor refuses anything else. The update runs in place, on flat
    views of the parameters' buffers: one pass over the whole arena when the
    parameters fill one (``arena``), else one pass per parameter. ``m`` and
    ``v`` are flat arrays in the parameters' order.
    """

    params: dict[str, Tensor]
    lr: float = 1e-5

    def __post_init__(self) -> None:
        self._values = values = [p.data for p in self.params.values()]
        for path, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise OptimizerError(f"parameter {path!r} is not C-contiguous")
        dtypes = {v.dtype for v in values} or {np.dtype(np.float64)}
        if len(dtypes) > 1:
            raise OptimizerError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop()
        ends = list(accumulate(v.size for v in values))
        starts = [0, *ends[:-1]]
        total = ends[-1] if ends else 0
        self.step_count = 0
        self.m, self.v = np.zeros(total, dtype), np.zeros(total, dtype)
        # the update's two scratch blocks, and one that gathers the gradient
        # of a block that spans parameters; each step overwrites them, and
        # each training call makes its own optimizer, so no two threads share them
        self._scratch = tuple(np.empty(min(_ADAM_BLOCK, total), dtype) for _ in range(3))
        flat = _arena_of(values)
        segments = ([(flat, 0)] if flat is not None
                    else [(v.reshape(-1), s) for v, s in zip(values, starts)])
        # per block: its views of theta, m and v, and the (parameter, start,
        # stop) pieces of the parameters' flat gradients it covers
        self._blocks = []
        for theta, offset in segments:
            for lo in range(0, theta.size, _ADAM_BLOCK):
                hi = min(lo + _ADAM_BLOCK, theta.size)
                first, last = offset + lo, offset + hi
                pieces = [(k, max(first, s) - s, min(last, e) - s)
                          for k, (s, e) in enumerate(zip(starts, ends))
                          if s < last and e > first]
                self._blocks.append((theta[lo:hi], self.m[first:last],
                                     self.v[first:last], pieces))

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
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
