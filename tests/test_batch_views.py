"""Every single-word function is a view of its batch form.

On random full-rank codes and random words, ``encode``, ``syndrome``,
``ml_decode``, ``bp_decode`` and ``decode`` applied to word i must equal
row i of ``encode_batch``, ``syndrome_bits``/``syndrome_weights``,
``ml_decode_batch``, ``bp_decode_batch`` and ``decode_batch``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdec.bp import bp_decode, bp_decode_batch
from diffdec.decoding import DecodeConfig, decode, decode_batch
from diffdec.diffusion import NoiseSchedule
from diffdec.gf2 import ParityCheckMatrix, encode, encode_batch, hard_decision, ml_decode, \
    ml_decode_batch, syndrome, syndrome_weights, systematic_generator

BATCH = 6


@st.composite
def codes(draw):
    """[A | I] with a random A and a random column order: always full rank."""
    n = draw(st.integers(3, 10))
    m = draw(st.integers(1, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(m, n - m), dtype=np.uint8)
    H = np.concatenate([A, np.eye(m, dtype=np.uint8)], axis=1)
    return ParityCheckMatrix(H[:, rng.permutation(n)]), rng


def flip_logits(Y, gamma):
    """A deterministic per-entry denoiser, so each row depends on itself only."""
    return np.sin(3.0 * Y) * gamma[:, None] - 0.2


@settings(max_examples=60, deadline=None)
@given(codes(), st.floats(0.3, 1.5), st.sampled_from(["regular", "line_search"]))
def test_single_word_forms_equal_their_batch_rows(code_and_rng, sigma, mode):
    H, rng = code_and_rng
    G = systematic_generator(H)
    msgs = rng.integers(0, 2, size=(BATCH, G.k), dtype=np.uint8)
    X = encode_batch(G, msgs)
    Y = (1.0 - 2.0 * X) + sigma * rng.standard_normal(X.shape)

    syn_bits = H.syndrome_bits(hard_decision(Y))
    syn_weights = syndrome_weights(H, Y)
    ml_bits = ml_decode_batch(H, G, Y)
    bp_bits, bp_done, bp_iters, _ = bp_decode_batch(H, Y, sigma, max_iters=10)
    schedule = NoiseSchedule.constant(0.1, H.num_checks)
    config = DecodeConfig(mode=mode, ls_grid=(1.0, 5.0, 5))
    dd = decode_batch(flip_logits, H, schedule, Y, config)

    for i in range(BATCH):
        assert np.array_equal(encode(G, msgs[i]).bits, X[i])
        s = syndrome(H, Y[i])
        assert np.array_equal(s.bits, syn_bits[i])
        assert s.weight == syn_weights[i]
        assert np.array_equal(ml_decode(H, G, Y[i]).bits, ml_bits[i])
        bits, done, iters = bp_decode(H, Y[i], sigma, max_iters=10)
        assert np.array_equal(bits, bp_bits[i])
        assert (done, iters) == (bp_done[i], bp_iters[i])
        one = decode(flip_logits, H, schedule, Y[i], config)
        assert np.array_equal(one.bits, dd.bits[i])
        assert (one.converged, one.iters_used) == (dd.converged[i], dd.iters[i])
        assert list(one.trace) == dd.traces[i]
