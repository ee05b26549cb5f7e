import numpy as np
import pytest

from diffdec.bp import LLR_CLAMP, TannerGraph, bp_decode, bp_decode_batch, check_update
from diffdec.channel import awgn_batch, bpsk, make_rng
from diffdec.gf2 import Codeword, ParityCheckMatrix, encode_batch, ml_decode_batch, syndrome


class TestTannerGraph:
    def test_edge_count_equals_set_bits(self, ham74):
        g = TannerGraph(ham74)
        assert g.num_edges == int(ham74.matrix.sum())

    def test_adjacency_is_exactly_the_support(self, ham74):
        g = TannerGraph(ham74)
        for r in range(ham74.num_checks):
            assert np.array_equal(g.edge_col[g.edge_row == r], np.flatnonzero(ham74.matrix[r]))
        for c in range(ham74.n):
            assert np.array_equal(g.edge_row[g.edge_col == c], np.flatnonzero(ham74.matrix[:, c]))


class TestCheckUpdate:
    def test_symmetric_under_argument_permutation(self):
        H = ParityCheckMatrix([[1, 1, 1, 1, 0], [0, 0, 0, 1, 1]])
        g = TannerGraph(H)
        rng = np.random.default_rng(0)
        m = rng.normal(0, 2, (1, g.num_edges))
        out = check_update(m, g)
        # permute the first check's four incoming messages
        perm = np.array([2, 0, 3, 1])
        m_p = m.copy()
        m_p[0, :4] = m[0, perm]
        out_p = check_update(m_p, g)
        assert np.allclose(out_p[0, :4], out[0, perm], atol=1e-12)

    def test_magnitudes_bounded_by_clamp(self, ham74):
        g = TannerGraph(ham74)
        m = np.full((3, g.num_edges), 1e9)
        out = check_update(m, g)
        assert (np.abs(out) <= LLR_CLAMP).all()

    def test_degree_two_check_passes_the_other_message_through(self, rep31):
        g = TannerGraph(rep31)
        m = np.array([[1.7, -0.4, 0.9, 2.2]])  # edges (0,0),(0,1),(1,0),(1,2)
        out = check_update(m, g)
        assert out[0, 0] == pytest.approx(-0.4, abs=1e-9)
        assert out[0, 1] == pytest.approx(1.7, abs=1e-9)
        assert out[0, 2] == pytest.approx(2.2, abs=1e-9)
        assert out[0, 3] == pytest.approx(0.9, abs=1e-9)


class TestBpDecode:
    def test_noiseless_converges_in_zero_iterations(self, ham74, ham74_gen):
        cw = ham74_gen.codebook()[13]
        bits, converged, iters = bp_decode(ham74, bpsk(Codeword(cw)), sigma=0.5)
        assert converged and iters == 0
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
        assert syndrome(rep31, y).weight > 0
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
        m_cv = check_update(llr[:, g.edge_col], g)
        incidence = np.zeros((g.num_edges, H.n))
        incidence[np.arange(g.num_edges), g.edge_col] = 1.0
        assert post == pytest.approx(llr + m_cv @ incidence, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("word", [[np.nan, 1.0, 1.0], [np.inf, -np.inf, 1.0]])
    def test_non_finite_word_rejected(self, rep31, word):
        with pytest.raises(ValueError, match="finite"):
            bp_decode_batch(rep31, np.array([word]), 0.8)
        with pytest.raises(ValueError, match="finite"):
            bp_decode(rep31, np.array(word), 0.8)

    def test_sigma_validation(self, rep31):
        with pytest.raises(ValueError):
            bp_decode(rep31, np.ones(3), sigma=0.0)
