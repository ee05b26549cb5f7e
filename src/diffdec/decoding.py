"""Iterative reverse-diffusion decoding.

The loop (n-k passes at most, or a nonzero ``max_iters`` if smaller) keeps the
syndrome bits of every word next to the word: taken once up front, then
from the line search that picks each step.  A word with a zero syndrome
exits.  Otherwise its parity-error count gamma and the bits feed the
conditioned denoiser, which predicts the sign flips; they become the
additive noise estimate eps_hat (``diffusion.mul_to_add_noise``) of the
reverse step x <- x - lam * c(gamma) * eps_hat, with c the posterior noise
coefficient (``diffusion.noise_coefficients``).  The step multiplier lam is
the grid value whose candidate has the smallest syndrome weight, smallest
lam on ties: ``ls_count`` points from ``ls_lo`` to ``ls_hi`` in line-search
mode, {1} in regular mode.  DecodeConfig's fields are also CLI flags.
Non-finite input is rejected; non-convergence is a normal outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import check_count, is_integer
from .diffusion import NoiseSchedule, mul_to_add_noise, noise_coefficients
from .gf2 import ParityCheckMatrix, hard_decision, word_batch
from .nn import DenoiserModel

MODES = ("regular", "line_search")


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "line_search"
    max_iters: int = 0  # 0 means n-k; never exceeds it
    ls_lo: float = 1.0
    ls_hi: float = 20.0
    ls_count: int = 20

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        lo, hi, count = self.ls_lo, self.ls_hi, self.ls_count
        if not (np.isfinite([lo, hi]).all() and 0 < lo <= hi
                and is_integer(count) and count >= 1):
            raise ValueError(f"need finite 0 < lo <= hi and an integer count >= 1, got {lo, hi, count}")
        check_count(0, max_iters=self.max_iters)

    def grid(self) -> np.ndarray:
        """Step multipliers to search: [1.0] in regular mode, else the ls grid."""
        if self.mode == "regular":
            return np.ones(1)
        return np.linspace(self.ls_lo, self.ls_hi, self.ls_count)


@dataclass(frozen=True)
class DecodeOutcome:
    bits: np.ndarray
    converged: bool
    iters_used: int


@dataclass
class BatchResult:
    """A decoded (B, n) batch.  Row t of each step array holds reverse step
    t+1 of every word: ``parity_errors`` (gamma before the step),
    ``step_sizes`` (the chosen lam) and ``weights_after`` (the syndrome
    weight after it).  A word's rows past ``iters`` hold 0, which no grid
    value equals; an untraced decode keeps zero rows."""

    bits: np.ndarray  # (B, n)
    converged: np.ndarray  # (B,) bool
    iters: np.ndarray  # (B,) int
    parity_errors: np.ndarray  # (steps, B) int
    step_sizes: np.ndarray  # (steps, B) float
    weights_after: np.ndarray  # (steps, B) int

    def outcomes(self) -> list[DecodeOutcome]:
        return [DecodeOutcome(self.bits[i], bool(self.converged[i]), int(self.iters[i]))
                for i in range(len(self.bits))]


def as_denoiser(model, H: ParityCheckMatrix):
    """Accept a DenoiserModel or any callable (Y, syndrome bits) -> logits."""
    if isinstance(model, DenoiserModel):
        if not np.array_equal(model.code.matrix, H.matrix):
            raise ValueError(f"model is bound to another parity-check matrix "
                             f"({model.code!r}) than the code given ({H!r})")
        return model.denoise
    if callable(model):
        return model
    raise TypeError(f"expected DenoiserModel or callable, got {type(model)!r}")


def _ls_pick(H: ParityCheckMatrix, Y: np.ndarray, eps_hat: np.ndarray,
             coeff: np.ndarray, grid: np.ndarray):
    """The reverse step Y - lam*coeff*eps_hat for every lam on the grid.

    Returns the chosen lam, the stepped words and their syndrome bits; the
    smallest syndrome weight wins and the smallest lam breaks ties.
    """
    cand = Y[:, None, :] - (grid[None, :, None] * coeff[:, None, None]) * eps_hat[:, None, :]
    bits = H.syndrome_bits(hard_decision(cand))  # (B, C, n-k)
    pick = np.argmin(bits.sum(axis=-1), axis=1)  # first minimum = smallest lambda
    rows = np.arange(len(Y))
    return grid[pick], cand[rows, pick], bits[rows, pick]


def decode_batch(model, H: ParityCheckMatrix, schedule: NoiseSchedule, Y: np.ndarray,
                 config: DecodeConfig = DecodeConfig(),
                 collect_traces: bool = True) -> BatchResult:
    """Decode a (B, n) batch of received words; with ``collect_traces``
    False the result keeps zero step rows."""
    num_checks = H.n - H.k
    if schedule.T < num_checks:
        raise ValueError(f"schedule has T={schedule.T} < n-k={num_checks}")
    denoiser = as_denoiser(model, H)
    Y = word_batch(Y, H.n).copy()  # stepped in place below
    B = len(Y)
    limit = min(config.max_iters or num_checks, num_checks)
    grid = config.grid()

    S = H.syndrome_bits(hard_decision(Y))  # kept equal to the syndrome of Y
    iters = np.zeros(B, dtype=np.int64)
    rows = limit if collect_traces else 0
    gammas, lams, after = (np.zeros((rows, B), dtype) for dtype in (np.int64, float, np.int64))
    alive = np.arange(B)
    for step in range(limit):
        alive = alive[S[alive].any(axis=1)]
        if alive.size == 0:
            break
        Y_alive, S_alive = Y[alive], S[alive]
        gamma = S_alive.sum(axis=1).astype(np.int64)
        logits = denoiser(Y_alive, S_alive)  # logit > 0 means the sign was flipped
        # negated in float64: a bool or unsigned array would not negate
        eps_hat = mul_to_add_noise(Y_alive, np.negative(logits, dtype=np.float64))
        coeff = noise_coefficients(schedule, gamma)
        lam, Y[alive], S[alive] = _ls_pick(H, Y_alive, eps_hat, coeff, grid)
        iters[alive] += 1
        if collect_traces:
            gammas[step, alive], lams[step, alive] = gamma, lam
            after[step, alive] = S[alive].sum(axis=1)
    steps = iters.max(initial=0)  # every step row past it is all zeros
    return BatchResult(hard_decision(Y), ~S.any(axis=1), iters,
                       gammas[:steps], lams[:steps], after[:steps])
