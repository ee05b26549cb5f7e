import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdec.channel import bpsk, make_rng
from diffdec.decoding import MODES, DecodeConfig, _ls_pick, decode_batch
from diffdec.diffusion import NoiseSchedule, noise_coefficients, posterior_coefficients
from diffdec.gf2 import Codeword, ParityCheckMatrix, syndrome_weights, systematic_generator
from diffdec.nn import ArchConfig, DenoiserModel
from oracles import codes, oracle_denoiser

SCHED74 = NoiseSchedule.constant(0.01, 3)
STEP_ARRAYS = ("parity_errors", "step_sizes", "weights_after")


def taken(res) -> np.ndarray:
    """(steps, B) mask of the step rows each word of a BatchResult took."""
    return np.arange(len(res.step_sizes))[:, None] < res.iters


def counting(denoiser):
    calls = {"n": 0}

    def wrapped(Y, syndrome):
        calls["n"] += 1
        return denoiser(Y, syndrome)

    return wrapped, calls


def ls_step(H, y, eps_hat, gamma, grid):
    """The step multiplier the line search picks for one word, as a (1, n) batch."""
    lam, _, _ = _ls_pick(H, y[None, :], eps_hat[None, :],
                         noise_coefficients(SCHED74, np.array([gamma])), grid)
    return float(lam[0])


class TestDecodeBasics:
    def test_zero_syndrome_returns_immediately_without_model_call(self, ham74, ham74_gen):
        cw = ham74_gen.codebook()[11]
        fn, calls = counting(oracle_denoiser(bpsk(Codeword(cw))))
        res = decode_batch(fn, ham74, SCHED74, bpsk(cw[None, :]))
        out = res.outcomes()[0]
        assert np.array_equal(out.bits, cw)
        assert out.converged and out.iters_used == 0
        assert all(getattr(res, name).shape == (0, 1) for name in STEP_ARRAYS)
        assert calls["n"] == 0

    def test_oracle_denoiser_fixes_every_single_flip(self, ham74, ham74_gen):
        for cw in ham74_gen.codebook():
            x_s = bpsk(Codeword(cw))
            for j in range(7):
                y = x_s.copy()
                y[j] = -y[j]
                out = decode_batch(oracle_denoiser(x_s), ham74, SCHED74, y[None, :],
                                   DecodeConfig(mode="line_search")).outcomes()[0]
                assert out.converged and out.iters_used <= 3
                assert np.array_equal(out.bits, cw)

    def test_max_iters_one_bounds_the_loop(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=0)
        rng = make_rng(1)
        y = rng.normal(0, 1, (1, 7))
        while syndrome_weights(ham74, y)[0] == 0:
            y = rng.normal(0, 1, (1, 7))
        out = decode_batch(model, ham74, SCHED74, y,
                           DecodeConfig(mode="regular", max_iters=1)).outcomes()[0]
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

    @settings(max_examples=30, deadline=None)
    @given(codes(), st.sampled_from(MODES))
    def test_max_iters_zero_decodes_as_n_minus_k(self, code_and_rng, mode):
        H, rng = code_and_rng
        model = DenoiserModel.create(H, ArchConfig("mlp", 8, 1), seed=int(rng.integers(100)))
        schedule = NoiseSchedule.constant(0.05, H.num_checks)
        Y = rng.normal(0, 1, (16, H.n))
        zero, full = (decode_batch(model, H, schedule, Y, DecodeConfig(mode=mode, max_iters=cap))
                      for cap in (0, H.num_checks))
        for name in ("bits", "converged", "iters", *STEP_ARRAYS):
            assert np.array_equal(getattr(zero, name), getattr(full, name)), name

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, ham74, bad):
        fn = lambda Y, syndrome: np.zeros(Y.shape)
        Y = np.ones((3, 7))
        Y[1, 0] = bad
        Y[1, 1] = -np.inf if bad == np.inf else 1.0
        with pytest.raises(ValueError, match="finite"):
            decode_batch(fn, ham74, SCHED74, Y)
        with pytest.raises(ValueError, match="finite"):
            decode_batch(fn, ham74, SCHED74, Y[1:2])

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
            single = decode_batch(model, ham74, SCHED74, Y[i:i + 1]).outcomes()[0]
            assert np.array_equal(single.bits, res.bits[i])
            assert single.iters_used == res.iters[i]

    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_bool_and_unsigned_logits_read_as_their_values(self, ham74, ham74_gen, dtype):
        x_s = bpsk(Codeword(ham74_gen.codebook()[5]))
        y = x_s[None, :].copy()
        y[0, 2] *= -0.4  # one flipped sign
        oracle = oracle_denoiser(x_s)  # logit 8 where a sign was flipped, else -8
        want = decode_batch(oracle, ham74, SCHED74, y)
        got = decode_batch(lambda Y, S: (oracle(Y, S) > 0).astype(dtype), ham74, SCHED74, y)
        assert want.converged.all()
        for name in ("bits", "converged", "iters", *STEP_ARRAYS):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_nonconvergence_is_reported_not_raised(self, ham74):
        # a denoiser that always claims "no flips" cannot fix anything
        fn = lambda Y, syndrome: np.full(Y.shape, -8.0)
        y = np.ones((1, 7))
        y[0, 3] = -1.0
        out = decode_batch(fn, ham74, SCHED74, y, DecodeConfig(mode="regular")).outcomes()[0]
        assert not out.converged and out.iters_used == 3


class TestStepArrays:
    @settings(max_examples=30, deadline=None)
    @given(codes(), st.sampled_from(MODES))
    def test_traced_decode_equals_untraced_and_records_each_step(self, code_and_rng, mode):
        H, rng = code_and_rng
        model = DenoiserModel.create(H, ArchConfig("mlp", 8, 1), seed=int(rng.integers(100)))
        schedule = NoiseSchedule.constant(0.05, H.num_checks)
        Y = rng.normal(0, 1, (16, H.n))
        config = DecodeConfig(mode=mode, ls_lo=1.0, ls_hi=5.0, ls_count=5)
        res = decode_batch(model, H, schedule, Y, config)
        plain = decode_batch(model, H, schedule, Y, config, collect_traces=False)
        assert np.array_equal(res.bits, plain.bits)
        assert np.array_equal(res.converged, plain.converged)
        assert np.array_equal(res.iters, plain.iters)
        steps = taken(res)
        assert len(steps) == res.iters.max(initial=0)
        for name in STEP_ARRAYS:
            assert getattr(plain, name).shape == (0, len(Y))
            assert not getattr(res, name)[~steps].any()
        assert np.isin(res.step_sizes[steps], config.grid()).all()
        stepped = np.flatnonzero(res.iters)
        if stepped.size:  # step 1 starts at the received word, the last one ends at the bits
            assert np.array_equal(res.parity_errors[0, stepped], syndrome_weights(H, Y)[stepped])
            assert np.array_equal(res.weights_after[res.iters[stepped] - 1, stepped],
                                  H.syndrome_bits(res.bits[stepped]).sum(axis=1))


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
        grid = DecodeConfig(ls_lo=1.0, ls_hi=20.0, ls_count=20).grid()
        lam = ls_step(ham74, y, np.zeros(7), 1, grid)
        assert lam == 1.0

    def test_single_point_grid_returns_it(self, ham74):
        y = np.ones(7)
        y[4] = -1.0
        grid = DecodeConfig(ls_lo=7.5, ls_hi=7.5, ls_count=1).grid()
        lam = ls_step(ham74, y, y - np.ones(7), 1, grid)
        assert lam == 7.5

    def test_exact_landing_is_found_and_is_the_smallest_zeroing_lambda(self, ham74, ham74_gen):
        cw = ham74_gen.codebook()[6]
        x_s = bpsk(Codeword(cw))
        y = x_s.copy()
        y[4] = -y[4]  # column 4 has weight 1 -> gamma = 1
        gamma = int(syndrome_weights(ham74, y[None, :])[0])
        assert gamma == 1
        eps_hat = y - x_s
        grid = np.linspace(1, 20, 20)
        lam = ls_step(ham74, y, eps_hat, gamma, grid)
        coeff = posterior_coefficients(gamma, SCHED74).mean_noise_coeff
        # brute-force oracle over the grid
        weights = syndrome_weights(ham74, y - grid[:, None] * coeff * eps_hat)
        assert weights.min() == 0
        expected = grid[int(np.argmin(weights))]
        assert lam == expected
        assert syndrome_weights(ham74, (y - lam * coeff * eps_hat)[None, :])[0] == 0

    def test_single_point_ls_equals_regular_trace(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=7)
        rng = make_rng(8)
        Y = rng.normal(0, 1, (50, 7))
        ls = decode_batch(model, ham74, SCHED74, Y,
                          DecodeConfig(mode="line_search", ls_lo=1.0, ls_hi=1.0, ls_count=1))
        reg = decode_batch(model, ham74, SCHED74, Y, DecodeConfig(mode="regular"))
        assert np.array_equal(ls.bits, reg.bits)
        assert np.array_equal(ls.iters, reg.iters)
        for name in STEP_ARRAYS:
            assert np.array_equal(getattr(ls, name), getattr(reg, name))
        assert np.array_equal(reg.step_sizes, taken(reg).astype(float))  # 1.0 on every step

    @pytest.mark.parametrize("ls_grid", [(np.nan, 20.0, 20), (1.0, np.nan, 20), (1.0, np.inf, 20),
                                         (-np.inf, 20.0, 20), (1.0, 20.0, 2.5), (1.0, 20.0, 20.0),
                                         (0.0, 20.0, 20), (2.0, 1.0, 20), (1.0, 20.0, 0),
                                         (1.0, 20.0, True)])
    def test_bad_grid_rejected(self, ls_grid):
        lo, hi, count = ls_grid
        with pytest.raises(ValueError, match="lo <= hi"):
            DecodeConfig(ls_lo=lo, ls_hi=hi, ls_count=count)

    def test_grid_count_may_be_a_numpy_integer(self):
        grid = DecodeConfig(ls_lo=1.0, ls_hi=20.0, ls_count=np.int64(20)).grid()
        assert np.array_equal(grid, np.linspace(1.0, 20.0, 20))

    @pytest.mark.parametrize("max_iters", [-1, 2.5])
    def test_bad_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            DecodeConfig(max_iters=max_iters)


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

    @settings(max_examples=40, deadline=None)
    @given(codes())
    def test_decode_commutes_with_codeword_modulation_on_random_codes(self, code_and_rng):
        H, rng = code_and_rng
        model = DenoiserModel.create(H, ArchConfig("mlp", 8, 1), seed=int(rng.integers(100)))
        schedule = NoiseSchedule.constant(0.05, H.num_checks)
        book = systematic_generator(H).codebook()
        Y = rng.normal(0, 1, (16, H.n))
        Y[Y == 0] = 0.25  # sign(0) is +1 on both sides, which modulation would break
        C = book[rng.integers(0, len(book), size=len(Y))]
        for mode in ("regular", "line_search"):
            config = DecodeConfig(mode=mode)
            base = decode_batch(model, H, schedule, Y, config, collect_traces=False)
            mod = decode_batch(model, H, schedule, Y * bpsk(C), config, collect_traces=False)
            assert np.array_equal(mod.bits, base.bits ^ C)
            assert np.array_equal(mod.iters, base.iters)

    def test_incompatible_model_rejected(self, rep31):
        from diffdec.gf2 import builtin_code
        model = DenoiserModel.create(builtin_code("hamming74"), ArchConfig("mlp", 8, 1), 0)
        with pytest.raises(ValueError):
            decode_batch(model, rep31, NoiseSchedule.constant(0.01, 2), np.ones((1, 3)))
