"""Layers, initialization, Adam, and the linear learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, dense_epilogue, matmul, parameter
# Layers run bias and relu in dense_epilogue; the benchmark's tracer
# (perfbench/spans.py) still patches both chain ops in this module.
from .autodiff import add, relu  # noqa: F401
from .errors import ConfigError, OptimizerError

__all__ = ["LinearLayer", "FFNNHead", "Adam", "LinearSchedule"]


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


@dataclass
class LinearSchedule:
    """lr(step) = base_lr * (1 - step / total_steps), clamped at 0."""

    base_lr: float
    total_steps: int

    def __post_init__(self) -> None:
        if self.total_steps <= 0:
            raise ConfigError(f"total_steps must be positive, got {self.total_steps}")

    def lr_at(self, step: int) -> float:
        return max(self.base_lr * (1.0 - step / self.total_steps), 0.0)


# Adam walks each parameter in blocks of this many elements (128 KiB per
# array in float32, which training runs in; 256 KiB in float64), so a block of
# p, g, m, v and the two scratch blocks stays in a 2 MiB L2 cache across the
# update's 14 passes. Measured on the fusion head's shapes (1.71 M values) on
# a 2-core Intel Xeon with 2 MiB L2 per core: in float64, 35.8 ms per step
# whole-array, 27.9 ms at 4096, 23.1 ms at 8192 and 21.2-21.8 ms from 16384
# to 65536; in float32, fastest of 25 steps, 6.0 ms at 8192, 5.0 ms at 16384,
# 4.4 ms at 32768 and 65536 and 4.6 ms at 131072.
_ADAM_BLOCK = 32768
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


@dataclass
class Adam:
    """Standard Adam with bias correction; clears gradients after each step.

    Every parameter must be C-contiguous: the update runs on flat views of
    its buffer, in place.
    """

    params: dict[str, Tensor]
    lr: float = 1e-5

    def __post_init__(self) -> None:
        self.step_count = 0
        self.m = {path: np.zeros(p.data.shape, p.data.dtype)
                  for path, p in self.params.items()}
        self.v = {path: np.zeros(p.data.shape, p.data.dtype)
                  for path, p in self.params.items()}

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        for path, p in self.params.items():
            if p.grad is None:
                raise OptimizerError(f"parameter {path!r} has no gradient")
            if p.grad.shape != p.data.shape:
                raise OptimizerError(
                    f"parameter {path!r} has shape {p.data.shape} "
                    f"but its gradient {p.grad.shape}")
            if not p.data.flags.c_contiguous:
                raise OptimizerError(f"parameter {path!r} is not C-contiguous")
        self.step_count += 1
        bc1 = 1.0 - _BETA1 ** self.step_count
        bc2 = 1.0 - _BETA2 ** self.step_count
        # In place, with the operations and their order of the textbook update
        #   m = beta1 * m + (1 - beta1) * g
        #   v = beta2 * v + (1 - beta2) * g * g
        #   p -= lr * (m / bc1) / (sqrt(v / bc2) + epsilon)
        # so every result is bit-for-bit the same: each operation is
        # elementwise, so running them block by block changes no bit. The two
        # scratch blocks live for one call, never on the optimizer or the
        # module, so they add nothing to the memory held between steps and
        # are never shared between threads. Moments and scratch follow each
        # parameter's dtype, and every scalar is a Python float, which numpy
        # never lets widen a float32 array.
        scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        for path, p in self.params.items():
            if p.data.dtype not in scratch:
                scratch[p.data.dtype] = (np.empty(_ADAM_BLOCK, p.data.dtype),
                                         np.empty(_ADAM_BLOCK, p.data.dtype))
            buf_a, buf_b = scratch[p.data.dtype]
            theta, grad = p.data.reshape(-1), p.grad.reshape(-1)
            m_all, v_all = self.m[path].reshape(-1), self.v[path].reshape(-1)
            for start in range(0, theta.size, _ADAM_BLOCK):
                stop = min(start + _ADAM_BLOCK, theta.size)
                g, m, v = grad[start:stop], m_all[start:stop], v_all[start:stop]
                a, b = buf_a[:stop - start], buf_b[:stop - start]
                m *= _BETA1
                m += np.multiply(1.0 - _BETA1, g, out=a)
                v *= _BETA2
                np.multiply(1.0 - _BETA2, g, out=a)
                v += np.multiply(a, g, out=a)
                np.divide(m, bc1, out=a)
                a *= lr
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += _EPSILON
                theta[start:stop] -= np.divide(a, b, out=a)
            p.grad = None
