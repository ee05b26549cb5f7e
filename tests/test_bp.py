import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdec.bp import LLR_CLAMP, TannerGraph, bp_decode_batch, check_update
from diffdec.channel import awgn_batch, bpsk, make_rng
from diffdec.gf2 import (ParityCheckMatrix, encode_batch, hard_decision, ml_decode_batch,
                         syndrome_weights, systematic_generator)
from oracles import codes, flooding_bp, regular_ldpc

# codes whose checks have unequal degrees, some with bits in no check
UNEQUAL_ROWS = [
    [[1, 1, 1, 1, 0], [0, 0, 0, 1, 1]],
    [[1, 1, 1, 0], [0, 1, 1, 0]],  # last bit unchecked
    [[0, 1, 1, 1], [0, 0, 1, 1]],  # first bit unchecked
    [[1, 1, 1, 1, 1, 0], [0, 0, 0, 1, 0, 1], [1, 0, 0, 0, 0, 1]],
]


def edge_slots(graph: TannerGraph) -> np.ndarray:
    """The slots that carry an edge, in check-major order (slot j*m + c is check c's j-th bit)."""
    d_c, m = graph.check_shape
    check_major = np.arange(graph.num_slots).reshape(d_c, m).T.ravel()
    return check_major[~np.isin(check_major, graph.pad)]


def one_iteration_posterior(H: ParityCheckMatrix, llr: np.ndarray) -> np.ndarray:
    """llr_v + sum over checks c of v of 2 atanh(prod over the other bits v' of c
    of tanh(llr_v' / 2)), one word and one check at a time.  The empty product
    of a degree-one check is 1, whose infinite message saturates at the clamp."""
    post = llr.astype(float)
    for c in range(H.num_checks):
        bits = np.flatnonzero(H.matrix[c])
        for v in bits:
            prod = math.prod(math.tanh(llr[u] / 2) for u in bits if u != v)
            post[v] += LLR_CLAMP if prod == 1.0 else 2 * math.atanh(prod)
    return post


class TestTannerGraph:
    def test_edge_count_equals_set_bits(self, ham74):
        g = TannerGraph(ham74)
        assert g.num_slots - len(g.pad) == int(ham74.matrix.sum())

    def test_adjacency_is_exactly_the_support(self, ham74):
        g = TannerGraph(ham74)
        edges = edge_slots(g)
        row, col = edges % ham74.num_checks, g.slot_col[edges]
        for r in range(ham74.num_checks):
            assert np.array_equal(col[row == r], np.flatnonzero(ham74.matrix[r]))
        for c in range(ham74.n):
            assert np.array_equal(row[col == c], np.flatnonzero(ham74.matrix[:, c]))

    @pytest.mark.parametrize("rows", UNEQUAL_ROWS)
    def test_slots_of_unequal_checks_pad_to_the_largest_degree(self, rows):
        H = ParityCheckMatrix(rows)
        g = TannerGraph(H)
        degrees = H.matrix.sum(axis=1)
        assert g.check_shape == (degrees.max(), H.num_checks)
        assert len(g.pad) == int((degrees.max() - degrees).sum())
        edges = edge_slots(g)
        row, col = edges % H.num_checks, g.slot_col[edges]
        assert np.array_equal(H.matrix[row, col], np.ones(len(edges)))
        # each bit lists its own slots in check order, then the zero slot
        for v in range(H.n):
            listed = g.bit_slots[v]
            assert np.array_equal(listed[listed < g.num_slots], edges[col == v])
            assert (listed[H.matrix[:, v].sum():] == g.num_slots).all()

    @pytest.mark.parametrize("rows", UNEQUAL_ROWS)
    def test_failing_checks_read_off_the_slots_equal_the_syndrome(self, rows):
        H = ParityCheckMatrix(rows)
        g = TannerGraph(H)
        post = np.random.default_rng(8).normal(0, 1, (64, H.n))
        post[::2, 0] = -1.0  # the bit that pads read decides 1 in every other word
        fails = g.any_check_fails(np.ascontiguousarray(post.T[g.slot_col]))
        assert np.array_equal(fails, H.syndrome_bits(hard_decision(post)).any(axis=1))
        assert fails.any() and not fails.all()


class TestCheckUpdate:
    def test_symmetric_under_argument_permutation(self):
        H = ParityCheckMatrix([[1, 1, 1, 1, 0], [0, 0, 0, 1, 1]])
        g = TannerGraph(H)
        rng = np.random.default_rng(0)
        m = rng.normal(0, 2, (g.num_slots, 1))
        out = check_update(m, g)
        # permute the first check's four incoming messages, slots 0, 2, 4 and 6
        first = np.arange(4) * H.num_checks
        perm = first[[2, 0, 3, 1]]
        m_p = m.copy()
        m_p[first] = m[perm]
        out_p = check_update(m_p, g)
        assert np.allclose(out_p[first], out[perm], atol=1e-12)

    def test_magnitudes_bounded_by_clamp(self, ham74):
        g = TannerGraph(ham74)
        m = np.full((g.num_slots, 3), 1e9)
        out = check_update(m, g)
        assert (np.abs(out) <= LLR_CLAMP / 2).all()  # half-LLRs

    def test_writes_into_the_given_array(self, ham74):
        g = TannerGraph(ham74)
        m = np.random.default_rng(1).normal(0, 2, (g.num_slots, 5))
        buf = np.full((g.num_slots + 1, 5), 7.0)
        out = check_update(m, g, out=buf[:-1])
        assert np.shares_memory(out, buf)
        assert np.array_equal(buf[:-1], check_update(m, g))
        assert (buf[-1] == 7.0).all()

    def test_degree_two_check_passes_the_other_message_through(self, rep31):
        g = TannerGraph(rep31)
        m = np.array([[1.7], [0.9], [-0.4], [2.2]])  # slots (check, bit) (0,0),(1,0),(0,1),(1,2)
        out = check_update(m, g)
        assert out[0, 0] == pytest.approx(-0.4, abs=1e-9)
        assert out[2, 0] == pytest.approx(1.7, abs=1e-9)
        assert out[1, 0] == pytest.approx(2.2, abs=1e-9)
        assert out[3, 0] == pytest.approx(0.9, abs=1e-9)


class TestBpDecode:
    def test_noiseless_converges_in_zero_iterations(self, ham74, ham74_gen):
        cw = ham74_gen.codebook()[13:14]
        bits, converged, iters, _ = bp_decode_batch(ham74, bpsk(cw), sigma=0.5, max_iters=50)
        assert converged[0] and iters[0] == 0
        assert np.array_equal(bits, cw)

    def test_single_hard_error_high_snr_matches_ml_over_1000_trials(self, ham74, ham74_gen):
        # words whose hard decision carries exactly one bit error, sampled
        # from the actual channel so the erroneous coordinate has a
        # channel-consistent (small) magnitude
        rng = make_rng(12)
        sigma = 0.45
        ys, xs = [], []
        while sum(len(a) for a in ys) < 1000:
            msgs = rng.integers(0, 2, (20000, 4), dtype=np.uint8)
            X = encode_batch(ham74_gen, msgs)
            Y = awgn_batch(X, sigma, rng)
            one_err = ((Y < 0).astype(np.uint8) != X).sum(axis=1) == 1
            ys.append(Y[one_err])
            xs.append(X[one_err])
        Y1 = np.concatenate(ys)[:1000]
        X1 = np.concatenate(xs)[:1000]
        bp_bits, _, _, _ = bp_decode_batch(ham74, Y1, sigma, max_iters=50)
        ml_bits = ml_decode_batch(ham74, ham74_gen, Y1)
        assert (bp_bits == ml_bits).all(axis=1).mean() > 0.99
        assert (bp_bits == X1).all(axis=1).mean() > 0.99

    def test_repetition_posterior_after_one_iteration_sums_channel_llrs(self, rep31):
        rng = make_rng(13)
        y = rng.normal(0, 1, 3)
        sigma = 0.8
        # a codeword would exit before the first iteration
        assert syndrome_weights(rep31, y[None, :])[0] > 0
        _, _, iters, post = bp_decode_batch(rep31, y[None, :], sigma, max_iters=1)
        assert iters[0] == 1
        post = post[0]
        llr = 2 * y / sigma**2
        assert post[0] == pytest.approx(llr.sum(), rel=1e-9)

    def test_cycle_free_repetition_equals_ml_monte_carlo(self, rep31, rep31_gen):
        rng = make_rng(14)
        msgs = rng.integers(0, 2, (10_000, 1), dtype=np.uint8)
        X = encode_batch(rep31_gen, msgs)
        Y = awgn_batch(X, 0.9, rng)
        bp_bits, _, _, _ = bp_decode_batch(rep31, Y, 0.9, max_iters=50)
        ml_bits = ml_decode_batch(rep31, rep31_gen, Y)
        assert np.array_equal(bp_bits, ml_bits)

    @pytest.mark.parametrize("rows", [
        [[1, 1, 0, 0], [0, 1, 1, 0]],  # last bit unchecked, the bit before it has degree 1
        [[1, 1, 1, 0], [0, 1, 1, 0]],  # last bit unchecked, the bit before it has degree 2
        [[0, 1, 1, 1], [0, 0, 1, 1]],  # first bit unchecked
        [[1, 0, 1, 0, 0], [0, 0, 1, 1, 0]],  # a middle bit and the last bit unchecked
    ])
    def test_one_iteration_posterior_sums_every_check_message(self, rows):
        H = ParityCheckMatrix(rows)
        g = TannerGraph(H)
        y = np.array([[0.9, -0.3, 0.8, -0.7, 0.5][:H.n]])
        _, _, iters, post = bp_decode_batch(H, y, 0.8, max_iters=1)
        assert iters[0] == 1
        llr = 2 * y / 0.8**2
        m_cv = 2 * check_update(llr[:, g.slot_col].T / 2, g)  # in half-LLRs
        edges = edge_slots(g)
        incidence = np.zeros((g.num_slots, H.n))
        incidence[edges, g.slot_col[edges]] = 1.0
        assert post == pytest.approx(llr + m_cv.T @ incidence, rel=1e-12, abs=1e-12)

    def test_weight_one_check_adds_the_clamp_without_a_warning(self):
        # the check's empty product is 1, whose atanh is inf before the clamp
        H = ParityCheckMatrix([[1, 1, 1, 0], [0, 0, 0, 1]])
        y = np.array([[0.9, -0.3, 0.8, -0.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, iters, post = bp_decode_batch(H, y, 0.8, max_iters=1)
        assert iters[0] == 1
        assert post[0, 3] == 2.0 * y[0, 3] / 0.8**2 + LLR_CLAMP

    @staticmethod
    def assert_one_iteration_matches_per_check_loop(H, Y, sigma):
        _, _, iters, post = bp_decode_batch(H, Y, sigma, max_iters=1)
        llr = 2 * Y / sigma**2
        weights = syndrome_weights(H, Y)
        for word in range(len(Y)):
            # a word whose hard decision is a codeword exits before iterating
            if weights[word] == 0:
                assert iters[word] == 0
                assert np.array_equal(post[word], llr[word])
            else:
                assert iters[word] == 1
                expected = one_iteration_posterior(H, llr[word])
                assert post[word] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(codes())
    def test_one_iteration_posterior_equals_per_check_loop_on_random_codes(self, code_and_rng):
        H, rng = code_and_rng
        self.assert_one_iteration_matches_per_check_loop(H, rng.normal(0, 1.2, (4, H.n)), 0.8)

    @pytest.mark.parametrize("rows", UNEQUAL_ROWS)
    def test_one_iteration_posterior_equals_per_check_loop_on_unequal_checks(self, rows):
        H = ParityCheckMatrix(rows)
        rng = np.random.default_rng(7)
        self.assert_one_iteration_matches_per_check_loop(H, rng.normal(0, 1.2, (16, H.n)), 0.8)

    @pytest.mark.parametrize("word", [[np.nan, 1.0, 1.0], [np.inf, -np.inf, 1.0]])
    def test_non_finite_word_rejected(self, rep31, word):
        with pytest.raises(ValueError, match="finite"):
            bp_decode_batch(rep31, np.array([word]), 0.8, max_iters=50)

    def test_sigma_validation(self, rep31):
        with pytest.raises(ValueError):
            bp_decode_batch(rep31, np.ones((1, 3)), sigma=0.0, max_iters=50)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -0.8])
    def test_non_finite_or_negative_sigma_rejected(self, rep31, sigma):
        # a nan or infinite sigma once made every word a converged all-zero codeword
        with pytest.raises(ValueError, match="sigma must be a positive finite number"):
            bp_decode_batch(rep31, np.array([[0.9, -0.2, 0.4]]), sigma, max_iters=50)

    def test_peak_memory_holds_one_iteration_of_slot_arrays(self):
        # (3,6)-regular (128,64) code, 1024 words at sigma 0.8, most of them
        # past the first iteration: 5.4 (num_slots, B) float64 arrays while
        # an iteration's slots and posteriors lived on into the next, 4.7 since
        H = regular_ldpc(128, 3, 6, seed=1)
        Y = 1.0 + 0.8 * np.random.default_rng(0).standard_normal((1024, H.n))
        slot_array = TannerGraph(H).num_slots * len(Y) * 8
        tracemalloc.start()
        try:
            bp_decode_batch(H, Y, 0.8, max_iters=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * slot_array, f"{peak / slot_array:.2f} slot arrays"

    @pytest.mark.parametrize("max_iters", [0, -5, 2.5])
    def test_iteration_cap_below_one_rejected(self, rep31, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            bp_decode_batch(rep31, np.array([[0.9, -0.2, 0.4]]), 0.8, max_iters)


class TestPackedBatches:
    """Words are decoded independently: one call on several batches stacked
    gives every word the bits, convergence, iteration count and posterior it
    gets when its batch is decoded alone, which lets ``run_ber`` pack rounds
    into one call."""

    @staticmethod
    def assert_packing_changes_nothing(H, batches, max_iters):
        packed = bp_decode_batch(H, np.concatenate(batches), 0.8, max_iters)
        alone = [bp_decode_batch(H, Y, 0.8, max_iters) for Y in batches]
        for out_packed, outs_alone in zip(packed, zip(*alone)):
            assert np.array_equal(out_packed, np.concatenate(outs_alone))

    @pytest.mark.parametrize("max_iters", [1, 3, 50])
    @settings(max_examples=40, deadline=None)
    @given(codes(), st.lists(st.integers(1, 40), min_size=2, max_size=4))
    def test_random_codes(self, max_iters, code_and_rng, sizes):
        H, rng = code_and_rng
        batches = [rng.normal(0.3, 1.0, (size, H.n)) for size in sizes]
        self.assert_packing_changes_nothing(H, batches, max_iters)

    @pytest.mark.parametrize("max_iters", [1, 3, 50])
    @pytest.mark.parametrize("rows", UNEQUAL_ROWS)
    def test_unequal_checks(self, rows, max_iters):
        H = ParityCheckMatrix(rows)
        rng = np.random.default_rng(5)
        batches = [rng.normal(0.3, 1.0, (size, H.n)) for size in (64, 1, 100)]
        self.assert_packing_changes_nothing(H, batches, max_iters)


class TestAgainstFloodingOracle:
    """Every word against a one-word, one-edge-at-a-time flooding BP: words leave
    the batch at different iterations, so this pins the compaction of the alive
    words and the write of each word's outputs as it leaves."""

    @staticmethod
    def assert_matches_oracle(H, Y, sigma, max_iters):
        bits, converged, iters, post = bp_decode_batch(H, Y, sigma, max_iters)
        for word, y in enumerate(Y):
            o_bits, o_converged, o_iters, o_post = flooding_bp(H, y, sigma, max_iters)
            assert np.array_equal(bits[word], o_bits)
            assert converged[word] == o_converged
            assert iters[word] == o_iters
            assert np.abs(post[word] - o_post).max() <= 1e-12
        return converged, iters

    @pytest.mark.parametrize("max_iters", [1, 3, 50])
    @pytest.mark.parametrize("rows", UNEQUAL_ROWS)
    def test_unequal_checks(self, rows, max_iters):
        H = ParityCheckMatrix(rows)
        Y = np.random.default_rng(3).normal(0.3, 1.0, (200, H.n))
        self.assert_matches_oracle(H, Y, 0.8, max_iters)

    def test_regular_3_6_code(self):
        H = regular_ldpc(24, 3, 6, seed=1)
        G = systematic_generator(H)
        rng = make_rng(4)
        X = encode_batch(G, rng.integers(0, 2, (200, G.k), dtype=np.uint8))
        converged, iters = self.assert_matches_oracle(H, awgn_batch(X, 0.7, rng), 0.7, 20)
        # words leave at many different iterations, and some never converge
        assert len(np.unique(iters[converged])) >= 5
        assert 0 < (~converged).sum() < len(X)


@settings(max_examples=60, deadline=None)
@given(codes())
def test_bp_and_ml_commute_with_codeword_modulation(code_and_rng):
    """Decoding y*(1-2c) for a codeword c gives bits XOR c, and BP takes as many iterations."""
    H, rng = code_and_rng
    G = systematic_generator(H)
    book = G.codebook()
    Y = rng.normal(0, 1, (16, H.n))
    Y[Y == 0] = 0.25  # sign(0) is +1 on both sides, which modulation would break
    C = book[rng.integers(0, len(book), size=len(Y))]
    bits, converged, iters, _ = bp_decode_batch(H, Y, 0.8, 20)
    m_bits, m_converged, m_iters, _ = bp_decode_batch(H, Y * bpsk(C), 0.8, 20)
    assert np.array_equal(m_bits, bits ^ C)
    assert np.array_equal(m_converged, converged)
    assert np.array_equal(m_iters, iters)
    assert np.array_equal(ml_decode_batch(H, G, Y * bpsk(C)), ml_decode_batch(H, G, Y) ^ C)
