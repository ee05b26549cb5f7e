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

    ``m`` and ``v`` hold one array per parameter name, shaped like it.  A
    step updates each parameter's moments and ``p.data`` in place, so it
    reads whatever array ``p.data`` is at the time of the step.  A
    parameter without a gradient keeps its value and moments.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

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
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += ((1 - b2) * g) * g
            p.data -= (lr * (m / bc1)) / (np.sqrt(v / bc2) + _EPS)


def cosine_lr(epoch: int, total: int, lr0: float, lr_min: float) -> float:
    """lr_min + 0.5 (lr0 - lr_min) (1 + cos(pi epoch/total)); no warmup."""
    if not 0 <= epoch <= total:
        raise ValueError(f"epoch {epoch} outside 0..{total}")
    if total == 0:
        return lr0
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + np.cos(np.pi * epoch / total))
