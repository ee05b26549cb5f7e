"""Sum-product belief propagation on the Tanner graph of H.

Flooding schedule: every check node updates, then every variable node.
All LLRs saturate at +-30: the channel LLRs 2y/sigma^2 on input (so a
saturated channel observation can still be overturned by its checks) and
the check-node tanh rule on its way in and out as an overflow guard.
Decoding exits early once the hard decisions satisfy all checks.

Inside the decoder every message, channel LLR and posterior sum is kept as
a half-LLR, L/2, so the tanh rule needs no halving or doubling pass: a
check message is atanh of the product of tanh(msg) over the other slots of
its check, with both clamps at +-15 (+-30 in LLRs).  Scaling by 2 is exact,
so the half-LLR sums are the LLR sums halved bit for bit; a word's posterior
is doubled once, when it leaves.  The product is not clipped below 1 before
atanh: a product of tanh values of clamped messages is at most tanh(15) < 1,
and the empty product 1 of a degree-one check gives atanh(1) = inf, which
the output clamp turns into +15.

Messages are kept batch-last, as (num_slots, B) arrays whose slots are
position-major: slot j*m + c is the edge of check c and its j-th bit
``H.check_cols[c, j]``, so position j of every check is one contiguous
(m, B) block.  A check below the largest degree d_c has pad slots, whose
tanh counts as 1.  The leave-one-out product is a prefix times a suffix
product over the d_c blocks, each step one contiguous in-place operation.
The check messages are written into an array with one extra row holding
zero, so that each bit sums the rows of its slots, listed in check order in
an (n, d_v) index padded with that zero row, which also serves bits in no
check.  The posterior gathered to the slots is the next variable message
before its own check message is taken off, and its signs are the hard
decisions of each check's bits: the XOR over the d_c blocks, pads masked,
is every check's syndrome bit, so ``H.syndrome_bits`` runs once per call,
on the channel decisions.  A word's bits, posteriors and iteration count
are written once, when it converges or after the last iteration.  Every
word is decoded on its own, so a batch of several rounds decodes each round
exactly as it would alone.
"""

from __future__ import annotations

import numpy as np

from .channel import check_count, check_positive
from .gf2 import ParityCheckMatrix, hard_decision, padded_support, word_batch

LLR_CLAMP = 30.0
_HALF_CLAMP = LLR_CLAMP / 2


class TannerGraph:
    """Position-major slot view of H: the bit each slot reads and the slots each bit sums."""

    def __init__(self, H: ParityCheckMatrix):
        m, d_c = H.check_cols.shape
        cols = H.check_cols.T.ravel()
        self.check_shape = (d_c, m)
        self.num_slots = cols.size
        self.pad = np.flatnonzero(cols == H.n)
        self.slot_col = np.where(cols == H.n, 0, cols)  # a pad reads bit 0, then counts as 1
        # (n, d_v): each bit's slots in check order, padded with the zero slot num_slots
        by_check = padded_support(H.check_cols.ravel() == np.arange(H.n)[:, None], cols.size)
        slot_of = np.append(np.arange(cols.size).reshape(d_c, m).T, cols.size)  # c*d_c + j -> j*m + c
        self.bit_slots = slot_of[by_check]

    def any_check_fails(self, gathered: np.ndarray) -> np.ndarray:
        """Per word of (num_slots, B) posteriors gathered to the slots, whether
        an odd number of some check's bits decide 1 (a negative posterior)."""
        is_one = gathered < 0
        is_one[self.pad] = False
        odd = np.logical_xor.reduce(is_one.reshape(self.check_shape + gathered.shape[1:]))
        return odd.any(axis=0)


def check_update(messages: np.ndarray, graph: TannerGraph,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Tanh-rule check-node update on (num_slots, B) variable-to-check slot
    messages in half-LLRs, giving half-LLRs, written into ``out`` (a
    C-contiguous (num_slots, B) array) if given."""
    t = np.clip(messages, -_HALF_CLAMP, _HALF_CLAMP)
    np.tanh(t, out=t)
    t[graph.pad] = 1.0
    t = t.reshape(graph.check_shape + messages.shape[1:])
    d_c = len(t)
    # position j: the product over positions before j, then times those after j
    prod = np.empty_like(t) if out is None else out.reshape(t.shape)
    if d_c > 1:
        prod[1] = t[0]
    for j in range(2, d_c):
        np.multiply(prod[j - 1], t[j - 1], out=prod[j])
    for j in range(d_c - 2, 0, -1):  # t[j] becomes the product over positions from j on
        prod[j] *= t[j + 1]
        t[j] *= t[j + 1]
    prod[0] = t[1] if d_c > 1 else 1.0
    with np.errstate(divide="ignore"):  # the empty product 1 gives inf, clamped below
        np.arctanh(prod, out=prod)
    np.clip(prod, -_HALF_CLAMP, _HALF_CLAMP, out=prod)
    return prod.reshape(messages.shape)


def bp_decode_batch(H: ParityCheckMatrix, Y: np.ndarray, sigma: float, max_iters: int):
    """Decode a (B, n) batch; returns (bits, converged, iters, posteriors)."""
    check_positive(sigma=sigma)
    check_count(max_iters=max_iters)
    graph = TannerGraph(H)
    Y = word_batch(Y, H.n)
    llr = np.clip(2.0 * Y / sigma**2, -LLR_CLAMP, LLR_CLAMP)
    bits = hard_decision(llr)
    posterior = llr.copy()
    iters = np.zeros(len(Y), dtype=np.int64)
    done = ~H.syndrome_bits(bits).any(axis=-1)
    alive = np.flatnonzero(~done)
    llr_T = np.ascontiguousarray(llr[alive].T)  # (n, alive words), in half-LLRs from here on
    llr_T /= 2.0
    m_vc = llr_T[graph.slot_col]
    for it in range(1, max_iters + 1):
        if alive.size == 0:
            break
        slots = np.empty((graph.num_slots + 1, alive.size))
        slots[-1] = 0.0  # the row that pad entries of bit_slots read
        m_cv = check_update(m_vc, graph, out=slots[:-1])
        post = slots[graph.bit_slots[:, 0]]
        for i in range(1, graph.bit_slots.shape[1]):  # left to right, in check order
            post += slots[graph.bit_slots[:, i]]
        post += llr_T
        m_vc = post[graph.slot_col]
        ok = ~graph.any_check_fails(m_vc)
        m_vc -= m_cv
        leaving = ok if it < max_iters else np.ones_like(ok)
        if leaving.any():  # write each word's outputs once, as it leaves
            bits[alive[leaving]] = hard_decision(post[:, leaving].T)
            posterior[alive[leaving]] = 2.0 * post[:, leaving].T
            iters[alive[leaving]] = it
            done[alive[ok]] = True
            keep = ~leaving
            alive = alive[keep]
            # np.compress keeps C order, so the in-place updates above stay on contiguous rows
            m_vc, llr_T = np.compress(keep, m_vc, axis=1), np.compress(keep, llr_T, axis=1)
        del slots, m_cv, post  # freed before the next iteration allocates its own
    return bits, done, iters, posterior
