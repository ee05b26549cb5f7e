import numpy as np
import pytest

from diffdec.channel import EbN0Point, awgn_batch, bpsk, ebn0_to_sigma, make_rng
from diffdec.gf2 import Codeword, encode_batch, hard_decision


class TestBpsk:
    def test_all_zeros_maps_to_all_plus_one(self):
        assert np.array_equal(bpsk(Codeword(np.zeros(5, dtype=np.uint8))), np.ones(5))

    def test_definition_on_mixed_bits(self):
        assert np.array_equal(bpsk(Codeword(np.array([1, 0, 1]))), [-1.0, 1.0, -1.0])

    def test_roundtrip_with_hard_decision_over_all_hamming_codewords(self, ham74_gen):
        for cw in ham74_gen.codebook():
            assert np.array_equal(hard_decision(bpsk(Codeword(cw))), cw)

    @pytest.mark.parametrize("word", [[0.7, 2, 1, 0], [0.0, 1.0, 0.5, 1.0], [0, 2, 1, 0],
                                      [0, -1, 1, 0], np.array([0, 1, 255], dtype=np.uint8)],
                             ids=["mixed", "fraction", "two", "negative", "uint8-255"])
    def test_only_bits_are_modulated(self, word):
        # a cast to uint8 would read 0.7 as 0, 2 as a bit that maps to -3, and -1 as 255
        with pytest.raises(ValueError, match="0 or 1"):
            bpsk(np.asarray(word))
        with pytest.raises(ValueError, match="0 or 1"):
            awgn_batch(np.asarray(word)[None, :], 0.5, make_rng(0))

    def test_a_codeword_holds_only_bits(self):
        with pytest.raises(ValueError, match="codeword bits must be 0 or 1"):
            Codeword(np.full(4, 2))

    def test_a_codeword_freezes_its_own_copy(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        word = Codeword(bits)
        assert bits.flags.writeable and not word.bits.flags.writeable
        bits[0] = 0
        assert np.array_equal(word.bits, [1, 0, 1])


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

    @pytest.mark.parametrize("db", [np.inf, -np.inf, np.nan])
    def test_non_finite_ebn0_rejected(self, db):
        # -inf once divided by zero in ebn0_to_sigma; inf and nan blamed sigma
        with pytest.raises(ValueError, match="ebn0_db must be a finite"):
            EbN0Point(db, 0.5)


class TestAwgn:
    def test_tiny_sigma_limit_keeps_signs(self, ham74_gen):
        cw = encode_batch(ham74_gen, [[1, 0, 0, 1]])
        y = awgn_batch(np.tile(cw, (3, 1)), 1e-12, make_rng(0))
        assert y.shape == (3, 7)
        assert np.allclose(y, bpsk(cw), atol=1e-10)

    def test_noise_mean_within_clt_bound(self, ham74_gen):
        cw = encode_batch(ham74_gen, [[0, 1, 1, 0]])
        rng = make_rng(42)
        sigma, draws = 0.8, 100_000
        acc = np.zeros(7)
        for _ in range(draws // 1000):
            batch = np.tile(cw, (1000, 1))
            acc += (awgn_batch(batch, sigma, rng) - bpsk(cw)).sum(axis=0)
        mean = acc / draws
        bound = 4 * sigma / np.sqrt(draws)
        assert (np.abs(mean) < bound).all()

    def test_noise_variance_within_5_percent(self, ham74_gen):
        cw = encode_batch(ham74_gen, [[0, 1, 1, 0]])
        rng = make_rng(7)
        sigma, draws = 0.7, 100_000
        batch = np.tile(cw, (draws, 1))
        noise = awgn_batch(batch, sigma, rng) - bpsk(cw)
        assert noise.var() == pytest.approx(sigma**2, rel=0.05)

    def test_sigma_must_be_positive(self, ham74_gen):
        with pytest.raises(ValueError):
            awgn_batch(encode_batch(ham74_gen, [[0, 0, 0, 0]]), 0.0, make_rng(0))

    @pytest.mark.parametrize("sigma", [np.nan, -0.5, np.inf, -np.inf, 0.0])
    def test_every_channel_rejects_a_sigma_that_is_not_positive_and_finite(self, ham74_gen,
                                                                          sigma):
        cw = encode_batch(ham74_gen, [[1, 0, 1, 1]])
        with pytest.raises(ValueError, match="positive finite"):
            awgn_batch(np.tile(cw, (3, 1)), sigma, make_rng(0))


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(1000)
        b = make_rng(123).standard_normal(1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(1.5, 0), (np.float64(1.0), 0), ("1", 0),
                                             (1, 2.5), (1, None), (True, 0), (1, False)])
    def test_non_integer_seed_or_stream_rejected(self, seed, stream):
        # a seed of 1.5 once drew seed 1's stream, and so did a seed of True
        with pytest.raises(ValueError, match="seed|stream"):
            make_rng(seed, stream=stream)

    def test_negative_and_numpy_integer_seeds_accepted(self):
        assert np.array_equal(make_rng(np.int64(-1), stream=np.uint8(3)).random(4),
                              make_rng(-1, stream=3).random(4))

    def test_decoder_view_invariant_under_codeword_modulation(self, ham74, ham74_gen):
        rng = make_rng(5)
        y = awgn_batch(encode_batch(ham74_gen, [[0, 0, 0, 0]]), 0.7, rng)
        for cw in ham74_gen.codebook()[:8]:
            mod = y * bpsk(Codeword(cw))
            assert np.array_equal(np.abs(mod), np.abs(y))
            assert np.array_equal(ham74.syndrome_bits(hard_decision(mod)),
                                  ham74.syndrome_bits(hard_decision(y)))
