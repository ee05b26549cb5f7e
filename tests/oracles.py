"""Independent oracles and shared fixtures for the test suite.

Everything here deliberately avoids the library's own closed-form paths:
the posterior oracle integrates Gaussian products numerically, the BER
anchor uses the Gaussian tail function, and gradients come from central
finite differences.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from scipy.special import ndtr

from diffdec.gf2 import ParityCheckMatrix
from diffdec.nn import bce_with_logits_mean


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return float(1.0 - ndtr(x))


def gaussian_bayes_posterior(x_t: float, x0: float, beta: float, beta_bar: float,
                             points: int = 200_001) -> tuple[float, float]:
    """Mean/variance of the normalized product
    N(x_t; u, beta) * N(u; x0, beta_bar) over u, by numeric quadrature.

    Serves as the independent check of the reverse-posterior coefficients;
    the product's effective prior variance is the forward marginal variance
    at the same step.
    """
    spread = 12.0 * np.sqrt(max(beta, beta_bar))
    lo = min(x_t, x0) - spread
    hi = max(x_t, x0) + spread
    u = np.linspace(lo, hi, points)
    logf = -((x_t - u) ** 2) / (2.0 * beta) - ((u - x0) ** 2) / (2.0 * beta_bar)
    f = np.exp(logf - logf.max())
    norm = np.trapezoid(f, u)
    mean = np.trapezoid(u * f, u) / norm
    var = np.trapezoid((u - mean) ** 2 * f, u) / norm
    return float(mean), float(var)


def oracle_denoiser(transmitted_signs: np.ndarray):
    """Exact-noise test hook: flip logits from the true transmitted signs.

    Returns a callable (Y, syndrome bits) -> logits with logit > 0 exactly
    where the sign of y disagrees with the transmitted BPSK value.
    """
    x_s = np.asarray(transmitted_signs, dtype=np.float64)

    def denoiser(Y: np.ndarray, syndrome: np.ndarray) -> np.ndarray:
        return np.where(Y * x_s < 0, 8.0, -8.0)

    return denoiser


def finite_diff_param_grad(model, feats, e, targets, name: str, index: tuple,
                           h: float = 1e-4) -> float:
    """Central finite difference of the BCE loss w.r.t. one parameter entry."""
    p = model.params[name]
    orig = p.data[index]
    p.data[index] = orig + h
    hi = float(bce_with_logits_mean(model.forward(feats, e), targets).data)
    p.data[index] = orig - h
    lo = float(bce_with_logits_mean(model.forward(feats, e), targets).data)
    p.data[index] = orig
    return (hi - lo) / (2.0 * h)


def pseudo_ldpc_49_24() -> ParityCheckMatrix:
    """Deterministic column-weight-3 (49,24) matrix, full rank over GF(2)."""
    rng = np.random.default_rng(0)
    m, n = 25, 49
    mat = np.zeros((m, n), dtype=np.uint8)
    for c in range(n):
        mat[rng.choice(m, size=3, replace=False), c] = 1
    return ParityCheckMatrix(mat, name="ldpc49")


# Hand-written alist for the built-in Hamming(7,4) H (1-based, with zero
# padding in the column lists to exercise padding tolerance).
HAMMING74_ALIST = """\
7 3
3 4
2 2 2 3 1 1 1
4 4 4
1 2 0
1 3 0
2 3 0
1 2 3
1 0 0
2 0 0
3 0 0
1 2 4 5
1 3 4 6
2 3 4 7
"""


@st.composite
def codes(draw):
    """Hypothesis strategy: ([A | I] with a random A and a random column order,
    which is always full rank, and the numpy generator that built it)."""
    n = draw(st.integers(3, 10))
    m = draw(st.integers(1, n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(m, n - m), dtype=np.uint8)
    H = np.concatenate([A, np.eye(m, dtype=np.uint8)], axis=1)
    return ParityCheckMatrix(H[:, rng.permutation(n)]), rng
