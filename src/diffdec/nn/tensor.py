"""Minimal numpy-backed reverse-mode autodiff.

Tensors wrap float64 arrays.  A tensor that takes part in a graph also has
a record (``_Record``): its gradient, its parents' records and a closure
that scatters its gradient back to them.  Every op that sees an operand
with a record gives its output one.  ``backward()`` runs the closures in
reverse topological order.  Graphs are single-use: a second backward on the
same root raises.

The graph owns no tensor.  A closure keeps the arrays its backward reads
and the shapes it needs, and reaches its parents through their records
alone: ``matmul``, ``grouped_matmul`` and ``mul`` keep their operands,
``gelu`` its derivative, ``layer_norm`` xhat, the inverse deviation and the
gain, ``attention`` q, k|v, the weights, the tokens and [wq | wk | wv], and
``add``, ``reshape``, ``slice_leading`` and ``gather_rows`` shapes only.  So
an activation lives only while the caller holds its tensor or some closure
reads it: the product a GELU consumes and the residual stream on both sides
of an add are freed as soon as ``forward`` moves past them.

Backward releases the graph as it goes.  Once a record's closure has run,
the record drops its closure, its parents and its gradient, so an array a
closure kept or an interior gradient is freed as soon as no closure left to
run reads it.  Only leaves (tensors no op made, such as parameters) keep
``.grad``.

No op writes into an array it was handed, operand or gradient, unless the
caller names it as ``out``.  Some write in place into arrays they allocated
themselves:

* ``gelu``, ``layer_norm`` and ``softmax_last`` run each step on one or two
  scratch arrays of their own, in the order of the plain formulas;
  ``gelu``'s forward goes over flat blocks of ``_BLOCK_FLOATS`` floats and,
  while a graph is recorded, computes its derivative there too, into an
  array the backward then multiplies by once;
* ``matmul`` and ``grouped_matmul`` with a bias add it into the fresh
  product and take its gradient in their own backward, so ``x @ w + b``
  is one node holding one array;
* ``attention`` is one node for a block's masked self-attention: one
  product of every token with [wk | wv] and one of the querying tokens with
  wq, scores whose scale (1/sqrt(d), from the tokens' width), mask and
  softmax run in the score array, and a backward that writes dq | dk | dv
  into one array, so that each of the tokens' and the weights' gradients
  is one product;
* ``gelu`` writes into an ``out`` array the caller names (the operand's own
  array included) when no graph is recorded, with one block of scratch.

Each gives the same bits as the chain of plain ops it replaces, with two
exceptions.  Sums over the last axis (softmax's normaliser, layer norm's
mean and variance, and the row dots of their backward) go through
``einsum``: on short rows it costs a fraction of ``sum``'s overhead and
gives each row the same bits at any batch size, though not those of
``sum``'s pairwise order.  And ``attention``'s backward adds the q, k and v
paths inside one product, so its gradients match the chain's to rounding.
``_unbroadcast`` also sums leading axes through ``einsum``, with ``sum``'s
bits.

Only the ops the denoiser needs are provided (broadcasted add/mul, matmul
with an optional bias, a matmul with one table per group of rows and an
optional bias, reshape, row gather, softmax, masked attention, gelu, layer
norm, stable BCE-with-logits).
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


class _Record:
    """A tensor's place in the graph: its gradient, its parents' records and
    the rule that sends its gradient to them (None for a leaf)."""

    __slots__ = ("grad", "parents", "backward", "consumed")

    def __init__(self, parents: tuple[_Record, ...] = (), backward=None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward = backward
        self.consumed = False

    def accumulate(self, grad: np.ndarray):
        # ``grad`` may be shared (add hands one array to both parents, reshape
        # a view), so it is kept as is and never added into in place.
        self.grad = grad if self.grad is None else self.grad + grad


class Tensor:
    """A float64 array and, while it takes part in a graph, its ``_Record``."""

    __slots__ = ("data", "_record")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._record = _Record() if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self._record is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._record is None else self._record.grad

    @grad.setter
    def grad(self, grad: np.ndarray | None):
        self._record.grad = grad

    def zero_grad(self):
        if self._record is not None:
            self._record.grad = None

    def backward(self):
        """Reverse-mode sweep from this (scalar) tensor."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        root = self._record
        if root is None:
            raise RuntimeError("backward() on a tensor outside any graph")
        if root.consumed:
            raise RuntimeError("graph already consumed by a previous backward()")
        topo: list[_Record] = []
        seen: set[int] = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.accumulate(np.ones_like(self.data))
        while topo:
            # its consumers ran first and dropped their closures, so once popped a
            # node (its gradient and the arrays its closure keeps) lives only
            # until its own closure has run
            node = topo.pop()
            if node.backward is not None:
                node.backward(node.grad)
                node.backward = None
                node.parents = ()
                node.grad = None
        root.consumed = True

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[_Record | None, ...], backward) -> Tensor:
    """A Tensor over ``data`` that, while a graph is recorded and some parent
    has a record, gets a record over those parents with rule ``backward``."""
    out = Tensor(data)
    if _grad_mode.enabled:
        parents = tuple(p for p in parents if p is not None)
        if parents:
            out._record = _Record(parents, backward)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra:  # every leading axis in one sum, e.g. a bias over (B, s, w)
        flat = grad.reshape((-1,) + grad.shape[extra:])
        # einsum adds the rows in sum(axis=0)'s order at a fraction of its
        # overhead, except in one column, which sum adds pairwise
        one_column = flat.ndim == 1 or flat.shape[-1] == 1
        grad = flat.sum(axis=0) if one_column else np.einsum("i...->...", flat)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    ra, rb, a_shape, b_shape = a._record, b._record, a.data.shape, b.data.shape

    def backward(grad):
        if ra is not None:
            ra.accumulate(_unbroadcast(grad, a_shape))
        if rb is not None:
            rb.accumulate(_unbroadcast(grad, b_shape))

    return _make(a.data + b.data, (ra, rb), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    ra, rb, x, y = a._record, b._record, a.data, b.data

    def backward(grad):
        if ra is not None:
            ra.accumulate(_unbroadcast(grad * y, x.shape))
        if rb is not None:
            rb.accumulate(_unbroadcast(grad * x, y.shape))

    return _make(x * y, (ra, rb), backward)


def matmul(a, b, bias=None) -> Tensor:
    """a @ b, or a @ b + bias with the bias added into the fresh product, so
    the graph holds one array and one node for a dense layer."""
    a, b = _wrap(a), _wrap(b)
    ra, rb, x, w = a._record, b._record, a.data, b.data
    if x.ndim < 2 or w.ndim < 2:
        raise ValueError("matmul expects operands with ndim >= 2")
    # a stack of activations times one weight: every product is one GEMM over
    # all leading rows, not one per matrix of the stack (and a sum, for b's gradient)
    stacked = w.ndim == 2 < x.ndim
    k, n = w.shape[-2:]
    if x.shape[-1] != k:
        raise ValueError(f"matmul shapes {x.shape} and {w.shape} do not align")
    if stacked:
        data = (x.reshape(-1, k) @ w).reshape(x.shape[:-1] + (n,))
    else:
        data = x @ w
    rbias = None
    if bias is not None:
        bias = _wrap(bias)
        data += bias.data
        rbias, bias_shape = bias._record, bias.data.shape

    def backward(grad):
        if ra is not None:
            if stacked:
                ra.accumulate((grad.reshape(-1, n) @ w.T).reshape(x.shape))
            else:
                ra.accumulate(_unbroadcast(grad @ w.swapaxes(-1, -2), x.shape))
        if rb is not None:
            if stacked:
                rb.accumulate(x.reshape(-1, k).T @ grad.reshape(-1, n))
            else:
                rb.accumulate(_unbroadcast(x.swapaxes(-1, -2) @ grad, w.shape))
        if rbias is not None:
            rbias.accumulate(_unbroadcast(grad, bias_shape))

    return _make(data, (ra, rb, rbias), backward)


def grouped_matmul(x, order, bounds, tables, bias=None) -> Tensor:
    """out[b] = x[b] @ tables[:, g, :] (+ bias) for x (B, s) and tables (s, G, w),
    for each row b in ``order[bounds[g]:bounds[g + 1]]``.

    ``order`` lists the rows group by group and ``bounds`` (G + 1,) delimits
    the groups in it, as a stable sort of the rows by group gives them.  The
    rows of each group go through one product with their own table, so a
    row costs s*w multiply-adds however many groups there are.  A bias is
    added into the fresh product, as in ``matmul``."""
    x, tables = _wrap(x), _wrap(tables)
    rx, rt, x_shape, t = x._record, tables._record, x.data.shape, tables.data
    parts = [(g, order[lo:hi], x.data[order[lo:hi]])
             for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo]
    data = np.empty((len(order), t.shape[2]))
    for g, rows, xg in parts:
        data[rows] = xg @ t[:, g]
    rbias = None
    if bias is not None:
        bias = _wrap(bias)
        data += bias.data
        rbias, bias_shape = bias._record, bias.data.shape

    def backward(grad):
        if rt is not None:
            full = np.zeros(t.shape)
            for g, rows, xg in parts:
                full[:, g] = xg.T @ grad[rows]
            rt.accumulate(full)
        if rx is not None:
            gx = np.empty(x_shape)
            for g, rows, _ in parts:
                gx[rows] = grad[rows] @ t[:, g].T
            rx.accumulate(gx)
        if rbias is not None:
            rbias.accumulate(_unbroadcast(grad, bias_shape))

    return _make(data, (rx, rt, rbias), backward)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    ra, old = a._record, a.data.shape

    def backward(grad):
        ra.accumulate(grad.reshape(old))

    return _make(a.data.reshape(shape), (ra,), backward)


def slice_leading(a, count: int) -> Tensor:
    """Keep the first ``count`` entries along axis 1 (token readout)."""
    a = _wrap(a)
    ra, old = a._record, a.data.shape

    def backward(grad):
        full = np.zeros(old)
        full[:, :count] = grad
        ra.accumulate(full)

    return _make(a.data[:, :count], (ra,), backward)


def gather_rows(table, idx) -> Tensor:
    """out[i] = table[idx[i]]; backward scatter-adds into the table."""
    table = _wrap(table)
    rt, old = table._record, table.data.shape
    idx = np.asarray(idx, dtype=np.int64)

    def backward(grad):
        full = np.zeros(old)
        np.add.at(full, idx, grad)
        rt.accumulate(full)

    return _make(table.data[idx], (rt,), backward)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, kept as an axis of 1.  ``einsum`` costs less
    than ``sum`` on short rows and gives each row the same bits whatever the
    batch around it."""
    return np.einsum("...i->...", x)[..., None]


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, as ``_row_sums`` of ``x * y``."""
    return np.einsum("...i,...i->...", x, y)[..., None]


def _softmax(x: np.ndarray, out) -> np.ndarray:
    """Softmax over the last axis of ``x``, every step into ``out`` (``x``
    itself allowed) or, with ``out`` None, into the first step's array."""
    s = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= _row_sums(s)
    return s


def _softmax_grad(grad: np.ndarray, s: np.ndarray, out=None) -> np.ndarray:
    """The gradient of ``_softmax``'s operand from that of its weights ``s``:
    (grad - rowdot(grad, s)) * s, into ``out`` (``grad`` allowed)."""
    ga = np.subtract(grad, _row_dots(grad, s), out=out)
    ga *= s
    return ga


def softmax_last(a) -> Tensor:
    """Softmax over the last axis; -inf entries get exactly zero weight."""
    a = _wrap(a)
    ra, s = a._record, _softmax(a.data, None)

    def backward(grad):
        ra.accumulate(_softmax_grad(grad, s))

    return _make(s, (ra,), backward)


def attention(h, wq, wk, wv, bias) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias) v for q, k, v = h wq, h wk, h wv, in one node.

    ``h`` is (B, s, d) and ``bias`` a constant (s_q, s) array such as an
    attention mask of 0 and -inf (every row with a 0); the first s_q tokens
    query, every token is a key and a value, and the output is (B, s_q, d).
    One product of every token with [wk | wv] gives k and v, one of the
    first s_q tokens with wq gives q.  The scale, the mask and the softmax
    (see ``_softmax``) overwrite the score product in that order, as
    ``mul``, ``add`` and ``softmax_last`` would compute them.  The backward
    writes dq | dk | dv into one (B, s, 3d) array (dq zero past row s_q), so
    that h's gradient is one product with [wq | wk | wv]^T and the three
    weights' gradient one product with h^T."""
    h, wq, wk, wv = (_wrap(t) for t in (h, wq, wk, wv))
    rh, rw = h._record, (wq._record, wk._record, wv._record)
    b, s, d = h.data.shape
    queries, scale = len(bias), 1.0 / np.sqrt(d)
    w = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    rows = h.data.reshape(-1, d)
    kv = (rows @ w[:, d:]).reshape(b, s, 2 * d)
    k, v = kv[..., :d], kv[..., d:]
    q = (h.data[:, :queries].reshape(-1, d) @ wq.data).reshape(b, queries, d)
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    scores += bias
    weights = _softmax(scores, out=scores)
    data = weights @ v

    def backward(grad):
        dqkv = np.empty((b, s, 3 * d))
        np.matmul(weights.swapaxes(-1, -2), grad, out=dqkv[..., 2 * d:])
        dscores = grad @ v.swapaxes(-1, -2)
        _softmax_grad(dscores, weights, out=dscores)
        dscores *= scale
        np.matmul(dscores, k, out=dqkv[:, :queries, :d])
        dqkv[:, queries:, :d] = 0.0
        np.matmul(dscores.swapaxes(-1, -2), q, out=dqkv[..., d:2 * d])
        dqkv = dqkv.reshape(-1, 3 * d)
        if rh is not None:
            rh.accumulate((dqkv @ w.T).reshape(b, s, d))
        if any(r is not None for r in rw):
            dw = rows.T @ dqkv
            for i, r in enumerate(rw):
                if r is not None:
                    r.accumulate(dw[:, i * d:(i + 1) * d])

    return _make(data, (rh, *rw), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
# Floats per block of ``gelu``'s forward (256 KiB of float64; with its one
# block of scratch 512 KiB, inside L2).
_BLOCK_FLOATS = 2**15


def gelu(a, out=None) -> Tensor:
    """Smooth GELU (tanh approximation); smoothness keeps finite-difference
    gradient checks well-conditioned.

    The forward runs over flat blocks of ``_BLOCK_FLOATS`` floats, so that a
    block and its scratch stay in cache.  While a graph is recorded it also
    computes the derivative, block by block into the array that held the
    tanh, and keeps that array for the backward, which is then one multiply;
    otherwise it keeps one block of scratch.  Each step runs in place, in the
    order of the plain formulas in the comments, so the results are
    bit-identical to them.  With ``out`` (C-contiguous; it may be ``a.data``,
    which is then overwritten) the forward writes there; ``out`` is for
    inference, and refused while a graph is recorded."""
    a = _wrap(a)
    ra = a._record
    record = _grad_mode.enabled and ra is not None
    if out is not None and record:
        raise RuntimeError("gelu(out=...) is for inference; call it under no_grad()")
    x = a.data
    data = np.empty(x.shape) if out is None else out
    deriv = np.empty(x.shape) if record else None
    scratch = np.empty((2 if record else 1, min(x.size, _BLOCK_FLOATS)))
    flat_x, flat_data = x.reshape(-1), data.reshape(-1, copy=False)
    for lo in range(0, x.size, _BLOCK_FLOATS):
        hi = lo + _BLOCK_FLOATS
        xb = flat_x[lo:hi]
        sb = scratch[0, :len(xb)]
        tb = sb if deriv is None else deriv.reshape(-1)[lo:hi]
        # th = tanh(C * (x + 0.044715 * (x * x * x))); x**3 would go through pow
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= 0.044715
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        # data = 0.5 * x * (1.0 + th)
        db = np.multiply(xb, 0.5, out=flat_data[lo:hi])
        np.add(tb, 1.0, out=sb)
        if deriv is not None:
            # deriv = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du,
            # du = C * (1.0 + 3 * 0.044715 * (x * x)); db holds 0.5 * x
            du = np.multiply(xb, xb, out=scratch[1, :len(xb)])
            du *= 3 * 0.044715
            du += 1.0
            du *= _GELU_C
            np.multiply(tb, tb, out=tb)
            np.subtract(1.0, tb, out=tb)
            tb *= db
            tb *= du
            tb += np.multiply(sb, 0.5, out=du)
        db *= sb

    def backward(grad):
        ra.accumulate(np.multiply(grad, deriv))

    return _make(data, (ra,), backward)


_LN_EPS = 1e-5


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (the variance
    guarded by _LN_EPS), then affine.  Row sums go through ``_row_sums`` and
    ``_row_dots``."""
    a, gain, bias = _wrap(a), _wrap(gain), _wrap(bias)
    ra, rg, rb, g, b_shape = a._record, gain._record, bias._record, gain.data, bias.data.shape
    x = a.data
    d = x.shape[-1]
    xhat = x - _row_sums(x) / d
    inv = 1.0 / np.sqrt(_row_dots(xhat, xhat) / d + _LN_EPS)
    xhat *= inv
    data = np.multiply(xhat, g)
    data += bias.data

    def backward(grad):
        grad_xhat = np.multiply(grad, xhat)
        if rg is not None:
            rg.accumulate(_unbroadcast(grad_xhat, g.shape))
        if rb is not None:
            rb.accumulate(_unbroadcast(grad, b_shape))
        if ra is not None:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = grad * gain,
            # each mean a row dot with gain / d
            per_d = g / d
            dx = np.multiply(grad, g)
            dx -= _row_dots(grad, per_d)
            dx -= xhat * _row_dots(grad_xhat, per_d)
            dx *= inv
            ra.accumulate(dx)

    return _make(data, (ra, rg, rb), backward)


def bce_with_logits_mean(logits, targets) -> Tensor:
    """Mean binary cross entropy from logits, in log-sum-exp stable form.

    loss = mean( max(l,0) - l*z + log(1 + exp(-|l|)) )
    """
    logits = _wrap(logits)
    rl = logits._record
    z = np.asarray(targets, dtype=np.float64)
    if z.shape != logits.data.shape:
        raise ValueError(f"target shape {z.shape} != logits shape {logits.data.shape}")
    l = logits.data
    per = np.maximum(l, 0.0) - l * z + np.log1p(np.exp(-np.abs(l)))
    count = l.size
    data = np.asarray(per.sum() / count)

    def backward(grad):
        sig = 0.5 * (1.0 + np.tanh(0.5 * l))  # sigmoid, overflow-free
        rl.accumulate(grad * (sig - z) / count)

    return _make(data, (rl,), backward)
