"""Adam with bias correction and a cosine learning-rate decay."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam over a named parameter dict.

    The moment decays and the denominator's guard are the module constants
    _BETA1 = 0.9, _BETA2 = 0.999 and _EPS = 1e-8.  The learning rate is
    passed per step so a scheduler can drive it.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._scratch = {name: (np.empty_like(p.data), np.empty_like(p.data))  # step allocates none
                         for name, p in params.items()}

    def step(self, lr: float):
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            m, v, (a, b) = self.m[name], self.v[name], self._scratch[name]
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            v *= b2
            v += np.multiply(np.multiply(1 - b2, g, out=a), g, out=a)
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(lr, np.divide(m, bc1, out=a), out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), _EPS, out=b)
            p.data -= np.divide(a, b, out=a)


def cosine_lr(epoch: int, total: int, lr0: float, lr_min: float) -> float:
    """lr_min + 0.5 (lr0 - lr_min) (1 + cos(pi epoch/total)); no warmup."""
    if not 0 <= epoch <= total:
        raise ValueError(f"epoch {epoch} outside 0..{total}")
    if total == 0:
        return lr0
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + np.cos(np.pi * epoch / total))
