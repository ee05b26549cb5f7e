"""Unscaled forward/reverse diffusion adapted to channel corruption.

The forward chain adds noise without the usual shrinkage: step t draws
x_t ~ N(x_{t-1}, beta_t I), so the marginal given x_0 is
N(x_0, beta_bar_t I) with beta_bar_t = sum_{i<=t} beta_i.  The posterior of
x_{t-1} given (x_t, x_0) is Gaussian with

    mean = bb/(bb+b) * x_t + b/(bb+b) * x_0 = x_t - sqrt(bb)*b/(bb+b) * eps
    var  = bb*b/(bb+b)

(writing b = beta_t, bb = beta_bar_t).  ``noise_coefficients`` is the one
formula for the mean's noise coefficient c(t) = sqrt(bb)*b/(bb+b), and
``mul_to_add_noise`` the one rule turning a predicted sign flip into the
additive noise estimate eps_hat.  The reverse step that combines them,
x <- x - lam * c(t) * eps_hat, is taken by the decoder
(:mod:`diffdec.decoding`), whose line search scores several lam at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NoiseSchedule:
    """Positive per-step variances beta_t and their cumulative sums.

    Steps are 1-based: ``beta(1)`` is the first step.  The decoder binds
    T = n-k by default; the schedule itself is independent of any code so
    tests can use arbitrary lengths.
    """

    def __init__(self, betas) -> None:
        betas = np.ascontiguousarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("betas must be a non-empty 1-D sequence")
        if not (betas > 0).all():
            raise ValueError("all betas must be positive")
        if not np.isfinite(betas).all():
            raise ValueError("betas must be finite")
        betas.setflags(write=False)
        self.betas = betas
        self.beta_bars = np.cumsum(betas)
        self.beta_bars.setflags(write=False)
        self.T = len(betas)

    @classmethod
    def constant(cls, beta: float, T: int) -> "NoiseSchedule":
        return cls(np.full(T, float(beta)))

    @classmethod
    def linear(cls, first: float, last: float, T: int) -> "NoiseSchedule":
        return cls(np.linspace(first, last, T))

    @classmethod
    def geometric(cls, first: float, last: float, T: int) -> "NoiseSchedule":
        return cls(np.geomspace(first, last, T))

    def _index(self, t) -> np.ndarray:
        """0-based indices of the 1-based steps ``t`` (any shape); rejects
        steps that are not integers (a float would be truncated, a bool
        read as 0 or 1) and steps outside 1..T."""
        t = np.asarray(t)
        if not np.issubdtype(t.dtype, np.integer):  # numpy's bool is no integer type
            raise ValueError(f"steps must be integers, got dtype {t.dtype}")
        if ((t < 1) | (t > self.T)).any():
            raise ValueError(f"steps outside 1..{self.T}")
        return t - 1

    def beta(self, t: int) -> float:
        return float(self.betas[self._index(t)])

    def beta_bar(self, t: int) -> float:
        return float(self.beta_bars[self._index(t)])

    def __repr__(self) -> str:
        return f"NoiseSchedule(T={self.T}, betas[0]={self.betas[0]:g})"


@dataclass(frozen=True)
class PosteriorCoefficients:
    """Coefficients of the Gaussian posterior q(x_{t-1} | x_t, x_0)."""

    mean_xt_coeff: float
    mean_x0_coeff: float
    mean_noise_coeff: float
    var: float


def posterior_coefficients(t: int, schedule: NoiseSchedule) -> PosteriorCoefficients:
    b = schedule.beta(t)
    bb = schedule.beta_bar(t)
    denom = bb + b
    return PosteriorCoefficients(
        mean_xt_coeff=bb / denom,
        mean_x0_coeff=b / denom,
        mean_noise_coeff=float(noise_coefficients(schedule, t)),
        var=bb * b / denom,
    )


def noise_coefficients(schedule: NoiseSchedule, t: np.ndarray) -> np.ndarray:
    """The posterior mean's noise coefficient c(t) for 1-based steps t (any shape)."""
    idx = schedule._index(t)
    b = schedule.betas[idx]
    bb = schedule.beta_bars[idx]
    return np.sqrt(bb) * b / (bb + b)


def forward_sample(x0: np.ndarray, t, schedule: NoiseSchedule,
                   rng: np.random.Generator | None = None,
                   eps: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Jump directly to step t: x_t = x0 + sqrt(beta_bar_t) * eps.

    ``t`` is one step, or one step per row of ``eps`` (shape
    ``eps.shape[:-1]``).  ``eps`` may be given; otherwise it is drawn
    standard normal from ``rng`` in the shape of ``x0``.  Returns (x_t, eps)
    since eps is the training target precursor.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    scale = np.sqrt(schedule.beta_bars[schedule._index(t)])[..., None]
    if eps is None:
        if rng is None:
            raise ValueError("either rng or eps must be provided")
        eps = rng.standard_normal(x0.shape)
    else:
        eps = np.asarray(eps, dtype=np.float64)
    return x0 + scale * eps, eps


def mul_to_add_noise(y: np.ndarray, eps_tilde_pred: np.ndarray) -> np.ndarray:
    """Convert a multiplicative-noise prediction to additive noise.

    eps_hat = y - sign(eps_tilde) * sign(y); the sign product is the
    modulated codeword estimate.  sign(0) := +1 is taken per factor,
    matching the hard-decision rule.
    """
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(eps_tilde_pred, dtype=np.float64)
    if y.shape != pred.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {pred.shape}")
    return y - np.where((pred < 0) != (y < 0), -1.0, 1.0)
