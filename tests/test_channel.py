import numpy as np
import pytest

from diffdec.channel import (ChannelOutput, EbN0Point, awgn_batch, awgn_transmit, bpsk,
                             ebn0_to_sigma, make_rng, multiplicative_noise, rayleigh_fading,
                             rayleigh_transmit)
from diffdec.gf2 import Codeword, encode, hard_decision, syndrome


class TestBpsk:
    def test_all_zeros_maps_to_all_plus_one(self):
        assert np.array_equal(bpsk(Codeword(np.zeros(5, dtype=np.uint8))), np.ones(5))

    def test_definition_on_mixed_bits(self):
        assert np.array_equal(bpsk(Codeword(np.array([1, 0, 1]))), [-1.0, 1.0, -1.0])

    def test_roundtrip_with_hard_decision_over_all_hamming_codewords(self, ham74_gen):
        for cw in ham74_gen.codebook():
            assert np.array_equal(hard_decision(bpsk(Codeword(cw))), cw)


class TestEbn0:
    def test_rate_half_4db(self):
        sigma = ebn0_to_sigma(EbN0Point(4.0, 0.5))
        assert sigma == pytest.approx(10 ** -0.2, rel=1e-12)

    def test_rate_half_0db_is_unity(self):
        assert ebn0_to_sigma(EbN0Point(0.0, 0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_rate_halves_variance(self):
        lo = ebn0_to_sigma(EbN0Point(3.0, 0.25))
        hi = ebn0_to_sigma(EbN0Point(3.0, 0.5))
        assert lo**2 == pytest.approx(2 * hi**2, rel=1e-12)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            EbN0Point(4.0, 1.0)


class TestAwgn:
    def test_tiny_sigma_limit_keeps_signs(self, ham74_gen):
        cw = encode(ham74_gen, [1, 0, 0, 1])
        out = awgn_transmit(cw, 1e-12, make_rng(0))
        assert np.allclose(out.y, bpsk(cw), atol=1e-10)
        assert isinstance(out, ChannelOutput) and out.truth is cw

    def test_noise_mean_within_clt_bound(self, ham74_gen):
        cw = encode(ham74_gen, [0, 1, 1, 0])
        rng = make_rng(42)
        sigma, draws = 0.8, 100_000
        acc = np.zeros(7)
        for _ in range(draws // 1000):
            batch = np.tile(cw.bits, (1000, 1))
            acc += (awgn_batch(batch, sigma, rng) - bpsk(cw)).sum(axis=0)
        mean = acc / draws
        bound = 4 * sigma / np.sqrt(draws)
        assert (np.abs(mean) < bound).all()

    def test_noise_variance_within_5_percent(self, ham74_gen):
        cw = encode(ham74_gen, [0, 1, 1, 0])
        rng = make_rng(7)
        sigma, draws = 0.7, 100_000
        batch = np.tile(cw.bits, (draws, 1))
        noise = awgn_batch(batch, sigma, rng) - bpsk(cw)
        assert noise.var() == pytest.approx(sigma**2, rel=0.05)

    def test_sigma_must_be_positive(self, ham74_gen):
        with pytest.raises(ValueError):
            awgn_transmit(encode(ham74_gen, [0, 0, 0, 0]), 0.0, make_rng(0))


class TestRayleigh:
    def test_fade_mean_matches_closed_form_within_1_percent(self):
        rng = make_rng(3)
        alpha = 1.0
        h = rayleigh_fading(1_000_000, alpha, rng)
        assert h.mean() == pytest.approx(alpha * np.sqrt(np.pi / 2), rel=0.01)

    def test_unit_fade_hook_reduces_to_awgn(self, rep31_gen):
        cw = encode(rep31_gen, [1])
        out_a = rayleigh_transmit(cw, 0.5, make_rng(9), h=np.ones(3))
        out_b = awgn_transmit(cw, 0.5, make_rng(9))
        assert np.array_equal(out_a.y, out_b.y)

    def test_variance_roughly_twice_awgn_at_alpha_one(self, ham74_gen):
        # loose +-25% sanity check on the benchmarked SNR range
        cw = encode(ham74_gen, [1, 1, 0, 0])
        sigma = ebn0_to_sigma(EbN0Point(5.0, 4 / 7))
        rng = make_rng(17)
        draws = 200_000
        h = rayleigh_fading(draws * 7, 1.0, rng).reshape(draws, 7)
        z = sigma * rng.standard_normal((draws, 7))
        y_ray = h * bpsk(cw) + z
        y_awgn = bpsk(cw) + sigma * rng.standard_normal((draws, 7))
        ratio = y_ray.var() / y_awgn.var()
        assert 2.0 * 0.75 < ratio < 2.0 * 1.25


class TestMultiplicativeNoise:
    def test_clean_signal_gives_all_ones(self, ham74_gen):
        cw = encode(ham74_gen, [1, 0, 1, 0])
        assert np.array_equal(multiplicative_noise(cw, bpsk(cw)), np.ones(7))

    def test_binarized_form_marks_sign_disagreements(self, ham74_gen):
        cw = encode(ham74_gen, [1, 1, 1, 0])
        y = bpsk(cw) * np.array([1.0, -0.5, 2.0, -0.1, 0.3, 1.2, -2.0])
        eps = multiplicative_noise(cw, y)
        disagree = hard_decision(y) ^ cw.bits
        assert np.array_equal(hard_decision(eps), disagree)

    def test_all_zero_codeword_passes_y_through(self):
        cw = Codeword(np.zeros(2, dtype=np.uint8))
        assert np.array_equal(multiplicative_noise(cw, [0.5, -0.3]), [0.5, -0.3])


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(1000)
        b = make_rng(123).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_decoder_view_invariant_under_codeword_modulation(self, ham74, ham74_gen):
        rng = make_rng(5)
        base = encode(ham74_gen, [0, 0, 0, 0])
        y = awgn_transmit(base, 0.7, rng).y
        for cw in ham74_gen.codebook()[:8]:
            mod = y * bpsk(Codeword(cw))
            assert np.array_equal(np.abs(mod), np.abs(y))
            assert np.array_equal(syndrome(ham74, mod).bits, syndrome(ham74, y).bits)
