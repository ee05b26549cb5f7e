"""Modulation and noisy-channel simulation.

BPSK mapping, AWGN parameterized by normalized SNR (EbN0), and a Rayleigh
fading channel.

Randomness policy: every stochastic function takes an explicit numpy
``Generator``.  The package-wide generator is Philox (a 64-bit counter-based
PRNG); Gaussians come from numpy's ziggurat ``standard_normal`` and Rayleigh
fades from the exact inverse CDF.  Given the same seed and stream the sample
stream is bit-exact across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import Codeword


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by ``seed`` in the low 64 bits of the key.

    ``stream`` occupies the high 64 bits of the key and separates logically
    distinct sample streams (e.g. one per EbN0 point) under one seed.
    """
    key = ((int(stream) & (2**64 - 1)) << 64) | (int(seed) & (2**64 - 1))
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EbN0Point:
    """Normalized SNR in dB together with the code rate k/n."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0,1), got {self.rate}")


@dataclass(frozen=True)
class ChannelOutput:
    """Received soft values plus the noise level and the transmitted truth."""

    y: np.ndarray
    sigma: float
    truth: Codeword


def bpsk(x) -> np.ndarray:
    """Modulate bits to +-1: bit 0 -> +1, bit 1 -> -1."""
    bits = x.bits if isinstance(x, Codeword) else np.asarray(x, dtype=np.uint8)
    return 1.0 - 2.0 * bits.astype(np.float64)


def ebn0_to_sigma(point: EbN0Point) -> float:
    """Noise standard deviation for a normalized SNR: (2 R 10^(dB/10))^-1/2."""
    return float((2.0 * point.rate * 10.0 ** (point.ebn0_db / 10.0)) ** -0.5)


def _scrub_zeros(y: np.ndarray) -> np.ndarray:
    # Exact zeros are nudged to +tiny so the sign(0) policy stays out of the
    # hot path (measure zero under any continuous noise).
    y[y == 0.0] = np.finfo(np.float64).tiny
    return y


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):  # nan fails both tests
            raise ValueError(f"{name} must be a positive finite number, got {value}")


def awgn_transmit(x: Codeword, sigma: float, rng: np.random.Generator) -> ChannelOutput:
    """y = BPSK(x) + sigma * eps with eps iid standard normal."""
    _check_positive(sigma=sigma)
    y = bpsk(x) + sigma * rng.standard_normal(len(x.bits))
    return ChannelOutput(_scrub_zeros(y), sigma, x)


def awgn_batch(X: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """AWGN over a (B, n) batch of codeword bits; returns (B, n) soft values."""
    _check_positive(sigma=sigma)
    y = bpsk(X) + sigma * rng.standard_normal(X.shape)
    return _scrub_zeros(y)


def rayleigh_fading(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """iid Rayleigh(alpha) fades via the exact inverse CDF h = a sqrt(-2 ln u)."""
    u = 1.0 - rng.random(n)  # in (0, 1], keeps the log finite
    return alpha * np.sqrt(-2.0 * np.log(u))


def rayleigh_transmit(x: Codeword, sigma: float, rng: np.random.Generator,
                      alpha: float = 1.0, h: np.ndarray | None = None) -> ChannelOutput:
    """y = h * BPSK(x) + z with h iid Rayleigh(alpha) and z ~ N(0, sigma^2 I).

    ``h`` may be supplied directly (test hook); ``h = ones`` reduces the
    channel to plain AWGN.
    """
    _check_positive(sigma=sigma, alpha=alpha)
    n = len(x.bits)
    if h is None:
        h = rayleigh_fading(n, alpha, rng)
    y = h * bpsk(x) + sigma * rng.standard_normal(n)
    return ChannelOutput(_scrub_zeros(y), sigma, x)


def multiplicative_noise(x: Codeword, y) -> np.ndarray:
    """Express y = BPSK(x) * eps_mul; since BPSK is +-1 this is y * BPSK(x)."""
    y = np.asarray(y, dtype=np.float64)
    s = bpsk(x)
    if y.shape != s.shape:
        raise ValueError(f"length mismatch: y {y.shape} vs codeword {s.shape}")
    return y * s
