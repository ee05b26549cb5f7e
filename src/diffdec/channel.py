"""Modulation and noisy-channel simulation.

BPSK mapping and batched AWGN parameterized by normalized SNR (EbN0).

Randomness policy: every stochastic function takes an explicit numpy
``Generator``.  The package-wide generator is Philox (a 64-bit counter-based
PRNG); Gaussians come from numpy's ziggurat ``standard_normal``.  Given the
same seed and stream the sample stream is bit-exact across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .gf2 import Codeword, as_bits


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by ``seed`` in the low 64 bits of the key.

    ``stream`` occupies the high 64 bits of the key and separates logically
    distinct sample streams (e.g. one per EbN0 point) under one seed.  Both
    must be integers, of either sign: a fractional seed would be truncated
    to another seed's stream.
    """
    check_integer(seed=seed, stream=stream)
    key = ((int(stream) & (2**64 - 1)) << 64) | (int(seed) & (2**64 - 1))
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EbN0Point:
    """Normalized SNR in dB together with the code rate k/n."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not np.isfinite(self.ebn0_db):
            raise ValueError(f"ebn0_db must be a finite number of dB, got {self.ebn0_db}")
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0,1), got {self.rate}")


def bpsk(x) -> np.ndarray:
    """Modulate bits to +-1: bit 0 -> +1, bit 1 -> -1; any other entry is refused."""
    bits = x.bits if isinstance(x, Codeword) else as_bits(x)
    return 1.0 - 2.0 * bits.astype(np.float64)


def ebn0_to_sigma(point: EbN0Point) -> float:
    """Noise standard deviation for a normalized SNR: (2 R 10^(dB/10))^-1/2."""
    return float((2.0 * point.rate * 10.0 ** (point.ebn0_db / 10.0)) ** -0.5)


def _scrub_zeros(y: np.ndarray) -> np.ndarray:
    # Exact zeros are nudged to +tiny so the sign(0) policy stays out of the
    # hot path (measure zero under any continuous noise).
    y[y == 0.0] = np.finfo(np.float64).tiny
    return y


def check_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not a positive finite number."""
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):  # nan fails both tests
            raise ValueError(f"{name} must be a positive finite number, got {value}")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool, which reads as 0 or 1, is not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_integer(**values) -> None:
    """Raise ValueError naming the first value that is not an integer."""
    for name, value in values.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(least: int = 1, /, **values) -> None:
    """Raise ValueError naming the first value that is not an integer >= ``least``."""
    for name, value in values.items():
        if not (is_integer(value) and value >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value}")


def awgn_batch(X: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """AWGN over a (B, n) batch of codeword bits; returns (B, n) soft values."""
    check_positive(sigma=sigma)
    y = bpsk(X) + sigma * rng.standard_normal(X.shape)
    return _scrub_zeros(y)
