"""Minimal numpy-backed reverse-mode autodiff.

Tensors wrap float64 arrays; every op that sees a grad-requiring operand
records a closure that scatters the output gradient back to its parents.
``backward()`` runs the closures in reverse topological order.  Graphs are
single-use: a second backward on the same root raises.

Backward releases the graph as it goes.  Once a node's closure has run, the
node drops its closure, its parents and its ``.grad``, so an activation or
an interior gradient is freed as soon as no closure left to run reads it.
Only leaves (tensors no op made, such as parameters) keep ``.grad``.

No op writes into an array it was handed, operand or gradient.  Some write
in place into arrays they allocated themselves:

* ``gelu``, ``layer_norm`` and ``softmax_last`` run each step on one or two
  scratch arrays of their own, in the order of the plain formulas;
* ``linear`` and ``grouped_matmul`` with a bias add it into the fresh
  product, so the graph holds one array for ``x @ w + b``;
* ``softmax_last`` applies an optional scale and constant bias in the array
  it computes the weights in, or in an ``out`` array the caller names;
  ``attention_weights`` names the fresh score product, so the scores, their
  scaled and masked forms and the weights share one array.

Each gives the same bits as the chain of plain ops it replaces.

Only the ops the denoiser needs are provided (broadcasted add/mul, matmul,
a linear layer, a matmul with one table per group of rows, reshape, row
gather, softmax, attention weights, gelu, layer norm, stable
BCE-with-logits).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()  # per thread, so decodes in worker threads leave training alone


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode) in this thread."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, grad: np.ndarray):
        # ``grad`` may be shared (add hands one array to both parents, reshape
        # a view), so it is kept as is and never added into in place.
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self):
        """Reverse-mode sweep from this (scalar) tensor."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        if self._consumed:
            raise RuntimeError("graph already consumed by a previous backward()")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            # its consumers ran first and dropped their closures, so once popped a
            # node (data and gradient) lives only until its own closure has run
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None
                node._parents = ()
                node.grad = None
        self._consumed = True

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra:  # every leading axis in one sum, e.g. a bias over (B, s, w)
        grad = grad.reshape((-1,) + grad.shape[extra:]).sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects operands with ndim >= 2")
    # a stack of activations times one weight: every product is one GEMM over
    # all leading rows, not one per matrix of the stack (and a sum, for b's gradient)
    stacked = b.data.ndim == 2 < a.data.ndim
    k, n = b.data.shape[-2:]
    if a.data.shape[-1] != k:
        raise ValueError(f"matmul shapes {a.data.shape} and {b.data.shape} do not align")
    if stacked:
        data = (a.data.reshape(-1, k) @ b.data).reshape(a.data.shape[:-1] + (n,))
    else:
        data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            if stacked:
                a._accumulate((grad.reshape(-1, n) @ b.data.T).reshape(a.data.shape))
            else:
                ga = grad @ b.data.swapaxes(-1, -2)
                a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if stacked:
                b._accumulate(a.data.reshape(-1, k).T @ grad.reshape(-1, n))
            else:
                gb = a.data.swapaxes(-1, -2) @ grad
                b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), backward)


def _add_bias(product: Tensor, bias) -> Tensor:
    """product + bias, added in place into ``product.data``.

    Only for a product this module has just made: its array is fresh, and
    the backward of the op that made it reads that op's operands, never its
    output.  The graph then holds one array where an ``add`` held two."""
    bias = _wrap(bias)
    data = np.add(product.data, bias.data, out=product.data)

    def backward(grad):
        if product.requires_grad:
            product._accumulate(grad)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))

    return _make(data, (product, bias), backward)


def linear(x, weight, bias, shape=None) -> Tensor:
    """x @ weight + bias, or reshape(x @ weight, shape) + bias.

    The product goes through ``matmul``; the bias is then added into the
    product's own array (see ``_add_bias``)."""
    product = matmul(x, weight)
    return _add_bias(product if shape is None else reshape(product, shape), bias)


def grouped_matmul(x, group, tables, bias=None) -> Tensor:
    """out[b] = x[b] @ tables[:, group[b], :] (+ bias) for x (B, s) and tables (s, G, w).

    The rows of each group go through one product with their own table, so a
    row costs s*w multiply-adds however many groups there are.  A bias is
    added into the product's own array (see ``_add_bias``)."""
    x, tables = _wrap(x), _wrap(tables)
    group = np.asarray(group, dtype=np.int64)
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(tables.data.shape[1] + 1))
    parts = [(g, order[lo:hi], x.data[order[lo:hi]])
             for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo]
    data = np.empty((len(group), tables.data.shape[2]))
    for g, rows, xg in parts:
        data[rows] = xg @ tables.data[:, g]

    def backward(grad):
        if tables.requires_grad:
            full = np.zeros_like(tables.data)
            for g, rows, xg in parts:
                full[:, g] = xg.T @ grad[rows]
            tables._accumulate(full)
        if x.requires_grad:
            gx = np.empty_like(x.data)
            for g, rows, _ in parts:
                gx[rows] = grad[rows] @ tables.data[:, g].T
            x._accumulate(gx)

    product = _make(data, (x, tables), backward)
    return product if bias is None else _add_bias(product, bias)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.data.shape
    data = a.data.reshape(shape)

    def backward(grad):
        a._accumulate(grad.reshape(old))

    return _make(data, (a,), backward)


def swap_last_axes(a) -> Tensor:
    a = _wrap(a)
    data = a.data.swapaxes(-1, -2)

    def backward(grad):
        a._accumulate(grad.swapaxes(-1, -2))

    return _make(data, (a,), backward)


def slice_leading(a, count: int, axis: int = 1) -> Tensor:
    """Keep the first ``count`` entries along ``axis`` (token readout)."""
    a = _wrap(a)
    index = tuple(slice(None) if ax != axis else slice(count) for ax in range(a.data.ndim))
    data = a.data[index]

    def backward(grad):
        full = np.zeros_like(a.data)
        full[index] = grad
        a._accumulate(full)

    return _make(data, (a,), backward)


def gather_rows(table, idx) -> Tensor:
    """out[i] = table[idx[i]]; backward scatter-adds into the table."""
    table = _wrap(table)
    idx = np.asarray(idx, dtype=np.int64)
    data = table.data[idx]

    def backward(grad):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, grad)
        table._accumulate(full)

    return _make(data, (table,), backward)


def softmax_last(a, scale=None, bias=None, out=None) -> Tensor:
    """Softmax over the last axis of ``a * scale + bias``; -inf entries get
    exactly zero weight.

    ``scale`` (a number) and ``bias`` (a constant array that broadcasts to
    ``a``'s shape, such as an attention mask of 0 and -inf) are optional.
    Every step writes into one array: ``out`` when given (it may be
    ``a.data``, which is then overwritten), else the first step's.  The
    results equal those of ``mul``, ``add`` and the plain softmax bit for
    bit, and the backward is the softmax rule followed by ``* scale``."""
    a = _wrap(a)
    x = a.data
    if scale is not None:
        x = out = np.multiply(x, scale, out=out)
    if bias is not None:
        x = out = np.add(x, bias, out=out)
    s = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def backward(grad):
        ga = np.multiply(grad, s)
        inner = ga.sum(axis=-1, keepdims=True)
        ga = np.subtract(grad, inner, out=ga)
        ga *= s
        if scale is not None:
            ga *= scale
        a._accumulate(ga)

    return _make(s, (a,), backward)


def attention_weights(q, k, scale, bias=None) -> Tensor:
    """softmax_last(q @ k^T * scale + bias) in one (..., s, s) array.

    The scores come from ``matmul``; their softmax overwrites them in place,
    since the score product's backward reads q and k only."""
    scores = matmul(q, swap_last_axes(k))
    return softmax_last(scores, scale, bias, out=scores.data)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a) -> Tensor:
    """Smooth GELU (tanh approximation); smoothness keeps finite-difference
    gradient checks well-conditioned.

    Forward and backward run in place on one or two scratch arrays, each step
    in the order of the plain formulas in the comments, so the results are
    bit-identical to them."""
    a = _wrap(a)
    x = a.data
    # th = tanh(C * (x + 0.044715 * (x * x * x))); x**3 would go through pow
    th = np.multiply(x, x)
    th *= x
    th *= 0.044715
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    # data = 0.5 * x * (1.0 + th)
    data = np.multiply(x, 0.5)
    data *= np.add(th, 1.0)

    def backward(grad):
        # grad * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du),
        # du = C * (1.0 + 3 * 0.044715 * (x * x))
        du = np.multiply(x, x)
        du *= 3 * 0.044715
        du += 1.0
        du *= _GELU_C
        tail = np.multiply(th, th)
        np.subtract(1.0, tail, out=tail)
        local = np.multiply(x, 0.5)
        tail *= local
        tail *= du
        np.add(th, 1.0, out=local)
        local *= 0.5
        local += tail
        local *= grad
        a._accumulate(local)

    return _make(data, (a,), backward)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = _wrap(a), _wrap(gain), _wrap(bias)
    x = a.data
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    data = np.square(xhat)
    var = data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def backward(grad):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(grad * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))
        if a.requires_grad:
            # (inv / d) * (d * dxhat - gsum - xhat * gdot), dxhat = grad * gain
            dxhat = grad * gain.data
            gsum = dxhat.sum(axis=-1, keepdims=True)
            scratch = dxhat * xhat
            gdot = scratch.sum(axis=-1, keepdims=True)
            dxhat *= d
            dxhat -= gsum
            dxhat -= np.multiply(xhat, gdot, out=scratch)
            dxhat *= inv / d
            a._accumulate(dxhat)

    return _make(data, (a, gain, bias), backward)


def bce_with_logits_mean(logits, targets) -> Tensor:
    """Mean binary cross entropy from logits, in log-sum-exp stable form.

    loss = mean( max(l,0) - l*z + log(1 + exp(-|l|)) )
    """
    logits = _wrap(logits)
    z = np.asarray(targets, dtype=np.float64)
    if z.shape != logits.data.shape:
        raise ValueError(f"target shape {z.shape} != logits shape {logits.data.shape}")
    l = logits.data
    per = np.maximum(l, 0.0) - l * z + np.log1p(np.exp(-np.abs(l)))
    count = l.size
    data = np.asarray(per.sum() / count)

    def backward(grad):
        sig = 0.5 * (1.0 + np.tanh(0.5 * l))  # sigmoid, overflow-free
        logits._accumulate(grad * (sig - z) / count)

    return _make(data, (logits,), backward)
