"""Sum-product belief propagation on the Tanner graph of H.

Flooding schedule: every check node updates, then every variable node.
All LLRs saturate at +-30: the channel LLRs 2y/sigma^2 on input (so a
saturated channel observation can still be overturned by its checks) and
the check-node tanh rule inside tanh/atanh as an overflow guard.  Decoding
exits early once the hard decisions satisfy all checks.  Messages live in
flat edge arrays; per-node reductions use ``np.add.reduceat`` over row-
and column-sorted edge orderings.
"""

from __future__ import annotations

import numpy as np

from .gf2 import ParityCheckMatrix, hard_decision, single_word, word_batch

LLR_CLAMP = 30.0
_ATANH_EPS = 1e-15


class TannerGraph:
    """Edge-list view of H: one edge per set bit, with both sort orders."""

    def __init__(self, H: ParityCheckMatrix):
        rows, cols = np.nonzero(H.matrix)  # row-major: sorted by (row, col)
        self.edge_row = rows
        self.edge_col = cols
        self.num_edges = len(rows)
        row_deg = H.matrix.sum(axis=1)
        self.row_ptr = np.concatenate([[0], np.cumsum(row_deg)]).astype(np.int64)
        self.col_order = np.lexsort((rows, cols))  # edges sorted by (col, row)
        col_deg = H.matrix.sum(axis=0)
        # reduceat cannot sum an empty segment, so the per-bit sums run over
        # the bits that sit in some check; a slice when that is every bit
        checked = np.flatnonzero(col_deg)
        self.col_start = (np.cumsum(col_deg) - col_deg)[checked].astype(np.int64)
        self.checked = slice(None) if len(checked) == H.n else checked


def check_update(messages: np.ndarray, graph: TannerGraph) -> np.ndarray:
    """Tanh-rule check-node update on (B, E) variable-to-check messages."""
    t = np.tanh(np.clip(messages, -LLR_CLAMP, LLR_CLAMP) / 2.0)
    mag = np.log(np.maximum(np.abs(t), 1e-300))
    neg = (t < 0).astype(np.int64)
    sum_mag = np.add.reduceat(mag, graph.row_ptr[:-1], axis=-1)
    sum_neg = np.add.reduceat(neg, graph.row_ptr[:-1], axis=-1)
    ex_mag = sum_mag[..., graph.edge_row] - mag
    ex_neg = sum_neg[..., graph.edge_row] - neg
    prod = np.exp(ex_mag) * np.where(ex_neg % 2 == 1, -1.0, 1.0)
    out = 2.0 * np.arctanh(np.clip(prod, -1.0 + _ATANH_EPS, 1.0 - _ATANH_EPS))
    return np.clip(out, -LLR_CLAMP, LLR_CLAMP)


def bp_decode_batch(H: ParityCheckMatrix, Y: np.ndarray, sigma: float, max_iters: int = 50,
                    graph: TannerGraph | None = None):
    """Decode a (B, n) batch; returns (bits, converged, iters, posteriors)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    graph = graph or TannerGraph(H)
    Y = word_batch(Y, H.n)
    B = len(Y)
    llr = np.clip(2.0 * Y / sigma**2, -LLR_CLAMP, LLR_CLAMP)
    bits = hard_decision(llr)
    posterior = llr.copy()
    iters = np.zeros(B, dtype=np.int64)
    done = H.syndrome_bits(bits).sum(axis=-1) == 0
    alive = np.flatnonzero(~done)
    m_vc = llr[alive][:, graph.edge_col]
    llr_alive = llr[alive]
    for it in range(1, max_iters + 1):
        if alive.size == 0:
            break
        m_cv = check_update(m_vc, graph)
        post = llr_alive.copy()
        post[:, graph.checked] += np.add.reduceat(m_cv[:, graph.col_order], graph.col_start, axis=-1)
        m_vc = post[:, graph.edge_col] - m_cv
        hard = hard_decision(post)
        ok = H.syndrome_bits(hard).sum(axis=-1) == 0
        bits[alive] = hard
        posterior[alive] = post
        iters[alive] = it
        if ok.any():
            done[alive[ok]] = True
            keep = ~ok
            alive, m_vc, llr_alive = alive[keep], m_vc[keep], llr_alive[keep]
    return bits, done, iters, posterior


def bp_decode(H: ParityCheckMatrix, y: np.ndarray, sigma: float, max_iters: int = 50):
    """Decode one word; returns (bits, converged, iters)."""
    bits, done, iters, _ = bp_decode_batch(H, single_word(y, H.n), sigma, max_iters)
    return bits[0], bool(done[0]), int(iters[0])
