import numpy as np
import pytest
from scipy import stats

from diffdec.channel import make_rng
from diffdec.decoding import _ls_pick
from diffdec.diffusion import (NoiseSchedule, forward_sample, mul_to_add_noise,
                               noise_coefficients, posterior_coefficients)
from diffdec.gf2 import ParityCheckMatrix
from oracles import gaussian_bayes_posterior

CONST = NoiseSchedule.constant(0.01, 64)
SCHEDULES = {
    "constant": CONST,
    "linear": NoiseSchedule.linear(0.005, 0.05, 64),
    "geometric": NoiseSchedule.geometric(0.002, 0.08, 64),
}


class TestSchedule:
    def test_cumulative_sums(self):
        s = NoiseSchedule.constant(0.01, 5)
        assert s.beta(3) == pytest.approx(0.01)
        assert s.beta_bar(5) == pytest.approx(0.05)
        assert (np.diff(s.beta_bars) > 0).all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseSchedule([0.01, 0.0])

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            CONST.beta(0)
        with pytest.raises(ValueError):
            CONST.beta(65)

    @pytest.mark.parametrize("call", [
        lambda s: s.beta(2.7),  # was truncated to beta_2
        lambda s: s.beta_bar(np.float64(2.0)),
        lambda s: noise_coefficients(s, [1.9, 2.0]),  # was c(1), c(2)
        lambda s: forward_sample(np.zeros(3), 3.5, s, eps=np.zeros(3)),  # was step 3
        lambda s: posterior_coefficients(1.5, s),  # was step 1
        lambda s: s.beta(True),  # was beta_1
        lambda s: noise_coefficients(s, np.array([True, False])),
    ])
    def test_non_integer_steps_rejected(self, call):
        with pytest.raises(ValueError, match="steps must be integers"):
            call(NoiseSchedule.linear(0.01, 0.05, 5))

    def test_integer_steps_of_any_width_accepted(self):
        s = NoiseSchedule.linear(0.01, 0.05, 5)
        assert s.beta(np.int32(2)) == s.beta(2) == s.betas[1]
        assert np.array_equal(noise_coefficients(s, np.array([1, 2], dtype=np.uint8)),
                              noise_coefficients(s, [1, 2]))


class TestForwardSample:
    def test_zero_noise_hook_is_identity(self):
        x0 = np.array([1.0, -1.0, 1.0])
        x_t, eps = forward_sample(x0, 3, CONST, eps=np.zeros(3))
        assert np.array_equal(x_t, x0)
        assert not eps.any()

    def test_constant_schedule_scale_at_t4(self):
        x0 = np.zeros(4)
        x_t, _ = forward_sample(x0, 4, CONST, eps=np.ones(4))
        assert np.allclose(x_t, 0.2)  # sqrt(4 * 0.01)
        x_t, _ = forward_sample(x0, [1, 4], CONST, eps=np.ones((2, 4)))  # a step per row
        assert np.allclose(x_t, [[0.1], [0.2]])

    def test_empirical_variance_within_5_percent(self):
        rng = make_rng(2)
        x0 = np.ones(1)
        t = 9
        draws = np.concatenate(
            [forward_sample(np.ones(100_000), t, CONST, rng=rng)[0] - 1.0])
        assert draws.var() == pytest.approx(CONST.beta_bar(t), rel=0.05)

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            forward_sample(np.zeros(2), 0, CONST, eps=np.zeros(2))

    def test_forward_marginal_is_gaussian_ks(self):
        rng = make_rng(8)
        for t in (1, 4, 16, 33, 64):
            x_t, _ = forward_sample(np.zeros(100_000), t, CONST, rng=rng)
            normalized = x_t / np.sqrt(CONST.beta_bar(t))
            assert stats.kstest(normalized, "norm").pvalue > 1e-3


class TestPosteriorCoefficients:
    def test_constant_schedule_t4_exact_values(self):
        c = posterior_coefficients(4, CONST)
        assert c.mean_xt_coeff == pytest.approx(0.8, abs=1e-15)
        assert c.mean_x0_coeff == pytest.approx(0.2, abs=1e-15)
        assert c.mean_noise_coeff == pytest.approx(0.04, abs=1e-15)
        assert c.var == pytest.approx(0.008, abs=1e-15)

    def test_first_step_is_symmetric(self):
        c = posterior_coefficients(1, CONST)
        assert c.mean_xt_coeff == pytest.approx(0.5, abs=1e-15)
        assert c.mean_x0_coeff == pytest.approx(0.5, abs=1e-15)
        assert c.var == pytest.approx(0.005, abs=1e-15)

    def test_convexity_and_variance_bounds_all_schedules(self):
        for sched in SCHEDULES.values():
            for t in range(1, sched.T + 1):
                c = posterior_coefficients(t, sched)
                assert c.mean_xt_coeff + c.mean_x0_coeff == pytest.approx(1.0, abs=1e-14)
                assert c.var < sched.beta(t)
                assert c.var < sched.beta_bar(t)

    def test_numeric_bayes_quadrature_matches_to_1e10(self):
        # the forward marginal variance at step t is the prior variance of
        # the Gaussian product; checked against the closed-form coefficients
        x_t, x0 = 1.3, -0.4
        for sched in SCHEDULES.values():
            for t in (1, 2, 7, 31, 64):
                b, bb = sched.beta(t), sched.beta_bar(t)
                mean, var = gaussian_bayes_posterior(x_t, x0, b, bb)
                c = posterior_coefficients(t, sched)
                assert abs(mean - (c.mean_xt_coeff * x_t + c.mean_x0_coeff * x0)) < 1e-10
                assert abs(var - c.var) < 1e-10

    def test_noise_form_equals_convex_form(self):
        rng = np.random.default_rng(0)
        for sched in SCHEDULES.values():
            for t in (1, 12, 64):
                c = posterior_coefficients(t, sched)
                x0 = rng.normal(size=5)
                eps = rng.normal(size=5)
                x_t = x0 + np.sqrt(sched.beta_bar(t)) * eps
                convex = c.mean_xt_coeff * x_t + c.mean_x0_coeff * x0
                noise_form = x_t - c.mean_noise_coeff * eps
                assert np.allclose(convex, noise_form, atol=1e-12)

    def test_mean_noise_coeff_is_the_vectorized_formula(self):
        for sched in SCHEDULES.values():
            steps = np.arange(1, sched.T + 1)
            batch = noise_coefficients(sched, steps)
            for t in steps:
                assert posterior_coefficients(t, sched).mean_noise_coeff == batch[t - 1]


class TestMulToAdd:
    def test_worked_two_coordinate_example(self):
        out = mul_to_add_noise(np.array([0.9, -1.2]), np.array([1.0, -1.0]))
        assert np.allclose(out, [-0.1, -2.2], atol=1e-15)

    def test_correct_prediction_on_clean_bpsk_gives_zero(self):
        y = np.array([1.0, -1.0, 1.0, 1.0])
        assert not mul_to_add_noise(y, np.ones(4)).any()

    def test_outputs_lie_in_y_minus_unit_signs(self):
        rng = np.random.default_rng(4)
        y = rng.normal(0, 1, 50)
        pred = rng.normal(0, 1, 50)
        out = mul_to_add_noise(y, pred)
        assert np.all(np.isin(np.round(y - out, 12), [-1.0, 1.0]))

    def test_zero_received_value_counts_as_positive(self):
        # sign(0) := +1 per factor: a predicted flip of a zero value
        # estimates the codeword symbol -1, so the additive noise is +1
        assert np.array_equal(mul_to_add_noise(np.array([0.0]), np.array([-1.0])), [1.0])

    def test_negated_logits_give_the_three_sign_form_at_signed_zeros(self):
        # the decoder passes the negated logits: a positive logit predicts a flip
        values = np.array([-1.5, -1.0, -0.0, 0.0, 1.0, 2.0])
        y, logits = (a.ravel() for a in np.meshgrid(values, values))
        old = y - (np.where(np.where(logits > 0, -1.0, 1.0) < 0, -1.0, 1.0)
                   * np.where(y < 0, -1.0, 1.0))
        new = mul_to_add_noise(y, -logits)
        assert np.array_equal(new.view(np.int64), old.view(np.int64))  # bit for bit


def reverse_step(x, eps_hat, t, schedule, lam=1.0):
    """The decoder's reverse step at a single step size: x - lam*c(t)*eps_hat."""
    x = np.asarray(x, dtype=np.float64)
    any_code = ParityCheckMatrix(np.ones((1, len(x)), dtype=np.uint8))
    _, stepped, _ = _ls_pick(any_code, x[None, :], np.asarray(eps_hat, dtype=np.float64)[None, :],
                             noise_coefficients(schedule, np.array([t])), np.array([lam]))
    return stepped[0]


class TestReverseStep:
    def test_zero_noise_is_fixed_point(self):
        x = np.array([0.3, -2.0])
        assert np.array_equal(reverse_step(x, np.zeros(2), 5, CONST), x)

    def test_unit_noise_decreases_by_coefficient(self):
        x = np.ones(3)
        out = reverse_step(x, np.ones(3), 4, CONST, lam=1.0)
        assert np.allclose(out, 1.0 - 0.04, atol=1e-15)

    def test_affine_in_lambda(self):
        x = np.array([1.0, -0.5])
        eps = np.array([0.2, 0.7])
        one = reverse_step(x, eps, 7, CONST, lam=2.0)
        two = reverse_step(reverse_step(x, eps, 7, CONST, lam=1.0), eps, 7, CONST, lam=1.0)
        assert np.allclose(one, two, atol=1e-15)

    def test_clean_codeword_with_confident_denoiser_stays_fixed(self):
        x = np.array([1.0, 1.0, -1.0])  # BPSK of a codeword
        eps_hat = mul_to_add_noise(x, np.ones(3))
        assert not eps_hat.any()
        assert np.array_equal(reverse_step(x, eps_hat, 2, CONST), x)
