"""Every batch operation decodes its rows independently.

On random full-rank codes and random words, row i of ``encode_batch``,
``syndrome_bits``, ``ml_decode_batch``, ``bp_decode_batch`` and
``decode_batch`` must equal the same call on row i alone, as a one-row
batch.  ``bench.run_ber`` relies on this when it packs several rounds into
one decoder call.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdec.bp import bp_decode_batch
from diffdec.decoding import DecodeConfig, decode_batch
from diffdec.diffusion import NoiseSchedule
from diffdec.gf2 import encode_batch, hard_decision, ml_decode_batch, systematic_generator
from oracles import codes

BATCH = 6


def flip_logits(Y, syndrome):
    """A deterministic per-entry denoiser, so each row depends on itself only."""
    return np.sin(3.0 * Y) * syndrome.sum(axis=1, keepdims=True) - 0.2


@settings(max_examples=60, deadline=None)
@given(codes(), st.floats(0.3, 1.5), st.sampled_from(["regular", "line_search"]))
def test_each_batch_row_equals_its_one_row_batch(code_and_rng, sigma, mode):
    H, rng = code_and_rng
    G = systematic_generator(H)
    msgs = rng.integers(0, 2, size=(BATCH, G.k), dtype=np.uint8)
    X = encode_batch(G, msgs)
    Y = (1.0 - 2.0 * X) + sigma * rng.standard_normal(X.shape)

    syn_bits = H.syndrome_bits(hard_decision(Y))
    ml_bits = ml_decode_batch(H, G, Y)
    bp = bp_decode_batch(H, Y, sigma, max_iters=10)
    schedule = NoiseSchedule.constant(0.1, H.num_checks)
    config = DecodeConfig(mode=mode, ls_lo=1.0, ls_hi=5.0, ls_count=5)
    dd = decode_batch(flip_logits, H, schedule, Y, config)

    for i in range(BATCH):
        row = slice(i, i + 1)
        assert np.array_equal(encode_batch(G, msgs[row]), X[row])
        assert np.array_equal(H.syndrome_bits(hard_decision(Y[row])), syn_bits[row])
        assert np.array_equal(ml_decode_batch(H, G, Y[row]), ml_bits[row])
        for alone, packed in zip(bp_decode_batch(H, Y[row], sigma, max_iters=10), bp):
            assert np.array_equal(alone, packed[row])  # bits, converged, iters, posteriors
        one = decode_batch(flip_logits, H, schedule, Y[row], config)
        assert np.array_equal(one.bits, dd.bits[row])
        assert one.converged[0] == dd.converged[i] and one.iters[0] == dd.iters[i]
        for name in ("parity_errors", "step_sizes", "weights_after"):  # its first iters[i] steps
            assert np.array_equal(getattr(one, name), getattr(dd, name)[:dd.iters[i], row])
