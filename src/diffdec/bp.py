"""Sum-product belief propagation on the Tanner graph of H.

Flooding schedule: every check node updates, then every variable node.
All LLRs saturate at +-30: the channel LLRs 2y/sigma^2 on input (so a
saturated channel observation can still be overturned by its checks) and
the check-node tanh rule inside tanh/atanh as an overflow guard.  Decoding
exits early once the hard decisions satisfy all checks.  Messages live in
(B, m*d_c) slots, slot c*d_c + j on the edge of check c and its j-th bit
``H.check_cols[c, j]``; a check below the largest degree d_c has pad slots.
A check message is 2 atanh of the product of tanh(msg/2) over the other
slots of its check, pads counting as 1: a prefix times a suffix product
along d_c, taken on a (d_c, B, m) copy so that each step is one contiguous
block.  Each bit sums its slots through an (n, d_v) index padded with one
extra slot holding zero, which also serves bits in no check.
"""

from __future__ import annotations

import numpy as np

from .gf2 import ParityCheckMatrix, hard_decision, padded_support, single_word, word_batch

LLR_CLAMP = 30.0
_ATANH_EPS = 1e-15


class TannerGraph:
    """Check-slot view of H: the bit each slot reads and the slots each bit sums."""

    def __init__(self, H: ParityCheckMatrix):
        cols = H.check_cols.ravel()
        self.check_shape = H.check_cols.shape  # (m, d_c)
        self.num_slots = cols.size
        self.pad = np.flatnonzero(cols == H.n)
        self.slot_col = np.where(cols == H.n, 0, cols)  # a pad reads bit 0, then counts as 1
        # (n, d_v): each bit's slots, padded with the zero slot num_slots
        self.bit_slots = padded_support(cols == np.arange(H.n)[:, None], self.num_slots)


def check_update(messages: np.ndarray, graph: TannerGraph) -> np.ndarray:
    """Tanh-rule check-node update on (B, m*d_c) variable-to-check slot messages."""
    out = np.clip(messages, -LLR_CLAMP, LLR_CLAMP)
    out /= 2.0
    by_position = out.reshape((len(out),) + graph.check_shape).transpose(2, 0, 1)
    t = np.tanh(by_position, order="C")
    t[graph.pad % len(t), :, graph.pad // len(t)] = 1.0
    prod = np.empty_like(t)  # position j: the product over positions before j, then after j
    prod[0] = 1.0
    for j in range(1, len(t)):
        np.multiply(prod[j - 1], t[j - 1], out=prod[j])
    for j in range(len(t) - 2, -1, -1):  # t[j] becomes the product over positions from j on
        prod[j] *= t[j + 1]
        t[j] *= t[j + 1]
    np.arctanh(np.clip(prod, -1.0 + _ATANH_EPS, 1.0 - _ATANH_EPS, out=prod), out=by_position)
    out *= 2.0
    return np.clip(out, -LLR_CLAMP, LLR_CLAMP, out=out)


def bp_decode_batch(H: ParityCheckMatrix, Y: np.ndarray, sigma: float, max_iters: int = 50,
                    graph: TannerGraph | None = None):
    """Decode a (B, n) batch; returns (bits, converged, iters, posteriors)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    graph = graph or TannerGraph(H)
    Y = word_batch(Y, H.n)
    llr = np.clip(2.0 * Y / sigma**2, -LLR_CLAMP, LLR_CLAMP)
    bits = hard_decision(llr)
    posterior = llr.copy()
    iters = np.zeros(len(Y), dtype=np.int64)
    done = H.syndrome_bits(bits).sum(axis=-1) == 0
    alive = np.flatnonzero(~done)
    llr_alive = llr[alive]
    m_vc = llr_alive[:, graph.slot_col]
    for it in range(1, max_iters + 1):
        if alive.size == 0:
            break
        m_cv = check_update(m_vc, graph)
        with_zero = np.concatenate([m_cv, np.zeros((len(m_cv), 1))], axis=1)
        post = llr_alive + with_zero[:, graph.bit_slots].sum(axis=-1)
        m_vc = post[:, graph.slot_col] - m_cv
        hard = hard_decision(post)
        ok = H.syndrome_bits(hard).sum(axis=-1) == 0
        bits[alive] = hard
        posterior[alive] = post
        iters[alive] = it
        if ok.any():
            done[alive[ok]] = True
            alive, m_vc, llr_alive = alive[~ok], m_vc[~ok], llr_alive[~ok]
    return bits, done, iters, posterior


def bp_decode(H: ParityCheckMatrix, y: np.ndarray, sigma: float, max_iters: int = 50):
    """Decode one word; returns (bits, converged, iters)."""
    bits, done, iters, _ = bp_decode_batch(H, single_word(y, H.n), sigma, max_iters)
    return bits[0], bool(done[0]), int(iters[0])
