"""Iterative reverse-diffusion decoding.

The loop (at most n-k passes, or ``max_iters`` if smaller) keeps the
syndrome bits of every word next to the word: taken once up front, then
from the line search that picks each step.  A word with a zero syndrome
exits.  Otherwise its parity-error count gamma and the bits feed the
conditioned denoiser, which predicts the sign flips; they become the
additive noise estimate eps_hat (``diffusion.mul_to_add_noise``) of the
reverse step x <- x - lam * c(gamma) * eps_hat, with c the posterior noise
coefficient (``diffusion.noise_coefficients``).  The step multiplier lam is
the grid value whose candidate has the smallest syndrome weight, smallest
lam on ties.  Line-search mode uses the grid ``ls_grid``; regular mode is
the one-point grid {1}.  Non-finite input is rejected; non-convergence is a
normal outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import NoiseSchedule, mul_to_add_noise, noise_coefficients
from .gf2 import ParityCheckMatrix, hard_decision, single_word, word_batch
from .nn import DenoiserModel

MODES = ("regular", "line_search")


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "line_search"
    max_iters: int | None = None  # defaults to n-k; never exceeds it
    ls_grid: tuple[float, float, int] = (1.0, 20.0, 20)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        lo, hi, count = self.ls_grid
        if lo <= 0 or hi < lo or count < 1:
            raise ValueError(f"need 0 < lo <= hi and count >= 1, got {self.ls_grid}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def grid(self) -> np.ndarray:
        """Step multipliers to search: [1.0] in regular mode, else ls_grid."""
        if self.mode == "regular":
            return np.ones(1)
        lo, hi, count = self.ls_grid
        return np.linspace(lo, hi, int(count))


@dataclass(frozen=True)
class TraceStep:
    parity_errors: int
    step_size: float
    weight_after: int


@dataclass(frozen=True)
class DecodeOutcome:
    bits: np.ndarray
    converged: bool
    iters_used: int
    trace: tuple[TraceStep, ...]


@dataclass
class BatchResult:
    bits: np.ndarray  # (B, n)
    converged: np.ndarray  # (B,) bool
    iters: np.ndarray  # (B,) int
    traces: list[list[TraceStep]] = field(default_factory=list)

    def outcomes(self) -> list[DecodeOutcome]:
        traces = self.traces or [[] for _ in range(len(self.bits))]
        return [DecodeOutcome(self.bits[i], bool(self.converged[i]),
                              int(self.iters[i]), tuple(traces[i]))
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


def line_search(H: ParityCheckMatrix, y: np.ndarray, eps_hat: np.ndarray, gamma: int,
                schedule: NoiseSchedule, grid) -> float:
    """Step multiplier minimizing the post-step syndrome weight on the grid.

    ``grid`` is a sequence of step multipliers, such as ``DecodeConfig.grid()``.
    """
    if gamma < 1:
        raise ValueError("line search needs a non-zero parity-error count")
    lam, _, _ = _ls_pick(H, single_word(y, H.n), single_word(eps_hat, H.n),
                         noise_coefficients(schedule, np.array([gamma])),
                         np.asarray(grid, dtype=np.float64))
    return float(lam[0])


def decode_batch(model, H: ParityCheckMatrix, schedule: NoiseSchedule, Y: np.ndarray,
                 config: DecodeConfig = DecodeConfig(),
                 collect_traces: bool = True) -> BatchResult:
    """Decode a (B, n) batch of received words."""
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
    traces: list[list[TraceStep]] = [[] for _ in range(B)] if collect_traces else []
    alive = np.arange(B)
    for _ in range(limit):
        alive = alive[S[alive].any(axis=1)]
        if alive.size == 0:
            break
        Y_alive, S_alive = Y[alive], S[alive]
        gamma = S_alive.sum(axis=1).astype(np.int64)
        logits = denoiser(Y_alive, S_alive)  # logit > 0 means the sign was flipped
        eps_hat = mul_to_add_noise(Y_alive, np.where(logits > 0, -1.0, 1.0))
        coeff = noise_coefficients(schedule, gamma)
        lam, Y[alive], S[alive] = _ls_pick(H, Y_alive, eps_hat, coeff, grid)
        iters[alive] += 1
        if collect_traces:
            w_after = S[alive].sum(axis=1)
            for j, word in enumerate(alive):
                traces[word].append(
                    TraceStep(int(gamma[j]), float(lam[j]), int(w_after[j])))
    return BatchResult(hard_decision(Y), ~S.any(axis=1), iters, traces)


def decode(model, H: ParityCheckMatrix, schedule: NoiseSchedule, y: np.ndarray,
           config: DecodeConfig = DecodeConfig()) -> DecodeOutcome:
    """Decode a single received word."""
    return decode_batch(model, H, schedule, single_word(y, H.n), config).outcomes()[0]
