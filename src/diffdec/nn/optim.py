"""Adam with bias correction and a cosine learning-rate decay."""

from __future__ import annotations

import numpy as np

from .tensor import _BLOCK_FLOATS, Tensor

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam over a named parameter dict.

    The moment decays and the denominator's guard are the module constants
    _BETA1 = 0.9, _BETA2 = 0.999 and _EPS = 1e-8.  The learning rate is
    passed per step so a scheduler can drive it.

    Adam owns its parameters' storage: each ``p.data`` becomes a view of one
    flat vector, so that a step copies the gradients into one array and runs
    each elementwise pass once over every parameter, block by block of
    ``_BLOCK_FLOATS`` floats so that a block's arrays stay in cache.  The
    passes are elementwise, so the bits are those of stepping each parameter
    on its own.  Writing into a ``p.data`` in place is seen by the next
    step; rebinding it detaches that parameter, which the optimizer then no
    longer updates (nothing in this package does that).  A parameter
    without a gradient keeps its value and moments.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        total = sum(p.data.size for p in params.values())
        self._data = np.empty(total)
        self._grad = np.empty(total)
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self._scratch = np.empty((2, min(total, _BLOCK_FLOATS)))  # step allocates none
        self._slices: dict[str, slice] = {}
        lo = 0
        for name, p in params.items():
            sl = self._slices[name] = slice(lo, lo + p.data.size)
            view = self._data[sl].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            lo = sl.stop

    def step(self, lr: float):
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        idle = []  # the slices of parameters without a gradient, and their state
        for name, p in self.params.items():
            sl, g = self._slices[name], p.grad
            if g is None:
                idle.append((sl, self._data[sl].copy(), self.m[sl].copy(), self.v[sl].copy()))
                self._grad[sl] = 0.0
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            self._grad[sl].reshape(g.shape)[...] = g
        for lo in range(0, len(self._data), _BLOCK_FLOATS):
            block = slice(lo, lo + _BLOCK_FLOATS)
            g, m, v, p = self._grad[block], self.m[block], self.v[block], self._data[block]
            a, b = self._scratch[:, :len(g)]
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            v *= b2
            v += np.multiply(np.multiply(1 - b2, g, out=a), g, out=a)
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(lr, np.divide(m, bc1, out=a), out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), _EPS, out=b)
            p -= np.divide(a, b, out=a)
        for sl, data, m_sl, v_sl in idle:
            self._data[sl], self.m[sl], self.v[sl] = data, m_sl, v_sl


def cosine_lr(epoch: int, total: int, lr0: float, lr_min: float) -> float:
    """lr_min + 0.5 (lr0 - lr_min) (1 + cos(pi epoch/total)); no warmup."""
    if not 0 <= epoch <= total:
        raise ValueError(f"epoch {epoch} outside 0..{total}")
    if total == 0:
        return lr0
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + np.cos(np.pi * epoch / total))
