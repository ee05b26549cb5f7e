import numpy as np
import pytest

from diffdec.channel import bpsk, make_rng
from diffdec.decoding import DecodeConfig, decode, decode_batch, line_search
from diffdec.diffusion import NoiseSchedule, posterior_coefficients
from diffdec.gf2 import Codeword, ParityCheckMatrix, syndrome
from diffdec.nn import ArchConfig, DenoiserModel
from oracles import oracle_denoiser

SCHED74 = NoiseSchedule.constant(0.01, 3)


def counting(denoiser):
    calls = {"n": 0}

    def wrapped(Y, syndrome):
        calls["n"] += 1
        return denoiser(Y, syndrome)

    return wrapped, calls


class TestDecodeBasics:
    def test_zero_syndrome_returns_immediately_without_model_call(self, ham74, ham74_gen):
        cw = ham74_gen.codebook()[11]
        fn, calls = counting(oracle_denoiser(bpsk(Codeword(cw))))
        out = decode(fn, ham74, SCHED74, bpsk(Codeword(cw)))
        assert np.array_equal(out.bits, cw)
        assert out.converged and out.iters_used == 0 and out.trace == ()
        assert calls["n"] == 0

    def test_oracle_denoiser_fixes_every_single_flip(self, ham74, ham74_gen):
        for cw in ham74_gen.codebook():
            x_s = bpsk(Codeword(cw))
            for j in range(7):
                y = x_s.copy()
                y[j] = -y[j]
                out = decode(oracle_denoiser(x_s), ham74, SCHED74, y,
                             DecodeConfig(mode="line_search"))
                assert out.converged and out.iters_used <= 3
                assert np.array_equal(out.bits, cw)

    def test_max_iters_one_bounds_the_loop(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=0)
        rng = make_rng(1)
        y = rng.normal(0, 1, 7)
        while syndrome(ham74, y).weight == 0:
            y = rng.normal(0, 1, 7)
        out = decode(model, ham74, SCHED74, y, DecodeConfig(mode="regular", max_iters=1))
        assert out.iters_used == 1
        assert out.converged == (int(ham74.syndrome_bits(out.bits).sum()) == 0)

    def test_iters_never_exceed_checks(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=2)
        rng = make_rng(3)
        Y = rng.normal(0, 1, (200, 7))
        res = decode_batch(model, ham74, SCHED74, Y, DecodeConfig(mode="regular", max_iters=50))
        assert (res.iters <= 3).all()

    def test_max_iters_one_caps_line_search_batch(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=2)
        rng = make_rng(4)
        Y = rng.normal(0, 1, (100, 7))
        res = decode_batch(model, ham74, SCHED74, Y,
                           DecodeConfig(mode="line_search", max_iters=1))
        assert (res.iters <= 1).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, ham74, bad):
        fn = lambda Y, syndrome: np.zeros(Y.shape)
        Y = np.ones((3, 7))
        Y[1, 0] = bad
        Y[1, 1] = -np.inf if bad == np.inf else 1.0
        with pytest.raises(ValueError, match="finite"):
            decode_batch(fn, ham74, SCHED74, Y)
        with pytest.raises(ValueError, match="finite"):
            decode(fn, ham74, SCHED74, Y[1])

    @pytest.mark.parametrize("backbone", ["mlp", "masked_attention"])
    def test_model_rejects_another_matrix_of_the_same_dimensions(self, ham74, backbone):
        model = DenoiserModel.create(ham74, ArchConfig(backbone, 8, 1), seed=0)
        reversed_code = ParityCheckMatrix(ham74.matrix[:, ::-1])
        assert not np.array_equal(reversed_code.matrix, ham74.matrix)
        Y = make_rng(5).normal(0, 1, (4, 7))
        with pytest.raises(ValueError, match="parity-check matrix"):
            decode_batch(model, reversed_code, SCHED74, Y)

    def test_single_word_matches_batch(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=5)
        rng = make_rng(6)
        Y = rng.normal(0, 1, (16, 7))
        res = decode_batch(model, ham74, SCHED74, Y)
        for i in range(16):
            single = decode(model, ham74, SCHED74, Y[i])
            assert np.array_equal(single.bits, res.bits[i])
            assert single.iters_used == res.iters[i]

    def test_nonconvergence_is_reported_not_raised(self, ham74):
        # a denoiser that always claims "no flips" cannot fix anything
        fn = lambda Y, syndrome: np.full(Y.shape, -8.0)
        y = np.ones(7)
        y[3] = -1.0
        out = decode(fn, ham74, SCHED74, y, DecodeConfig(mode="regular"))
        assert not out.converged and out.iters_used == 3


class TestOneSyndromePerStep:
    @pytest.mark.parametrize("mode", ["regular", "line_search"])
    def test_one_syndrome_up_front_and_one_per_reverse_step(self, ham74, mode, monkeypatch):
        calls = {"syndrome": 0, "denoise": 0}

        def counted(name, original):
            def wrapped(*args):
                calls[name] += 1
                return original(*args)
            return wrapped

        monkeypatch.setattr(ParityCheckMatrix, "syndrome_bits",
                            counted("syndrome", ParityCheckMatrix.syndrome_bits))
        monkeypatch.setattr(DenoiserModel, "denoise", counted("denoise", DenoiserModel.denoise))
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=3)
        Y = make_rng(12).normal(0.5, 1, (200, 7))
        res = decode_batch(model, ham74, SCHED74, Y, DecodeConfig(mode=mode))
        steps = int(res.iters.max())  # a word alive at step t was alive at every earlier one
        assert steps >= 2
        assert calls == {"syndrome": 1 + steps, "denoise": steps}


class TestLineSearch:
    def test_zero_noise_ties_break_to_smallest_lambda(self, ham74):
        y = np.ones(7)
        y[4] = -1.0  # single flip, column weight 1
        lam = line_search(ham74, y, np.zeros(7), 1, SCHED74,
                          DecodeConfig(ls_grid=(1.0, 20.0, 20)).grid())
        assert lam == 1.0

    def test_single_point_grid_returns_it(self, ham74):
        y = np.ones(7)
        y[4] = -1.0
        lam = line_search(ham74, y, y - np.ones(7), 1, SCHED74,
                          DecodeConfig(ls_grid=(7.5, 7.5, 1)).grid())
        assert lam == 7.5

    def test_exact_landing_is_found_and_is_the_smallest_zeroing_lambda(self, ham74, ham74_gen):
        cw = ham74_gen.codebook()[6]
        x_s = bpsk(Codeword(cw))
        y = x_s.copy()
        y[4] = -y[4]  # column 4 has weight 1 -> gamma = 1
        gamma = syndrome(ham74, y).weight
        assert gamma == 1
        eps_hat = y - x_s
        grid = np.linspace(1, 20, 20)
        lam = line_search(ham74, y, eps_hat, gamma, SCHED74, grid)
        coeff = posterior_coefficients(gamma, SCHED74).mean_noise_coeff
        # brute-force oracle over the grid
        weights = [syndrome(ham74, y - g * coeff * eps_hat).weight for g in grid]
        assert min(weights) == 0
        expected = grid[int(np.argmin(weights))]
        assert lam == expected
        assert syndrome(ham74, y - lam * coeff * eps_hat).weight == 0

    def test_grid_is_a_sequence_of_multipliers_whatever_its_type(self, ham74, ham74_gen):
        x = bpsk(Codeword(ham74_gen.codebook()[5]))
        y = x.copy()
        y[2] = -y[2]
        gamma = syndrome(ham74, y).weight
        coeff = posterior_coefficients(gamma, SCHED74).mean_noise_coeff
        eps_hat = (y - x) / (20.0 * coeff)  # only lam = 20 lands on x
        for grid in [(2.0, 8.0, 20), [2.0, 8.0, 20]]:
            assert line_search(ham74, y, eps_hat, gamma, SCHED74, grid) == 20.0

    def test_single_point_ls_equals_regular_trace(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=7)
        rng = make_rng(8)
        Y = rng.normal(0, 1, (50, 7))
        ls = decode_batch(model, ham74, SCHED74, Y,
                          DecodeConfig(mode="line_search", ls_grid=(1.0, 1.0, 1)))
        reg = decode_batch(model, ham74, SCHED74, Y, DecodeConfig(mode="regular"))
        assert np.array_equal(ls.bits, reg.bits)
        assert np.array_equal(ls.iters, reg.iters)
        for a, b in zip(ls.traces, reg.traces):
            assert a == b
        steps = [step.step_size for trace in reg.traces for step in trace]
        assert steps == [1.0] * int(reg.iters.sum())

    def test_gamma_zero_rejected(self, ham74):
        with pytest.raises(ValueError):
            line_search(ham74, np.ones(7), np.zeros(7), 0, SCHED74,
                        DecodeConfig(ls_grid=(1.0, 20.0, 20)).grid())


class TestEquivariance:
    def test_decode_commutes_with_codeword_modulation(self, ham74, ham74_gen):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 16, 2), seed=9)
        rng = make_rng(10)
        book = ham74_gen.codebook()
        for mode in ("regular", "line_search"):
            config = DecodeConfig(mode=mode)
            Y = rng.normal(0, 1, (100, 7))
            Y[Y == 0] = 0.25
            picks = rng.integers(0, 16, size=100)
            base = decode_batch(model, ham74, SCHED74, Y, config, collect_traces=False)
            mod = decode_batch(model, ham74, SCHED74, Y * bpsk(book[picks]), config,
                               collect_traces=False)
            assert np.array_equal(mod.bits, base.bits ^ book[picks])
            assert np.array_equal(mod.iters, base.iters)

    def test_incompatible_model_rejected(self, rep31):
        from diffdec.gf2 import builtin_code
        model = DenoiserModel.create(builtin_code("hamming74"), ArchConfig("mlp", 8, 1), 0)
        with pytest.raises(ValueError):
            decode(model, rep31, NoiseSchedule.constant(0.01, 2), np.ones(3))
