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

from diffdec.bp import LLR_CLAMP
from diffdec.gf2 import ParityCheckMatrix, RankDeficiencyError
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


def regular_ldpc(n: int, col_w: int, row_w: int, seed: int) -> ParityCheckMatrix:
    """A random (col_w, row_w)-regular parity-check matrix of full rank: check
    sockets are shuffled and dealt col_w per column, and drawn again until no
    column meets a check twice and the rows are independent."""
    rng = np.random.default_rng(seed)
    m = n * col_w // row_w
    while True:
        rows = rng.permutation(np.repeat(np.arange(m), row_w)).reshape(n, col_w)
        mat = np.zeros((m, n), dtype=np.uint8)
        mat[rows.T, np.arange(n)] = 1
        if mat.sum() < n * col_w:
            continue
        try:
            return ParityCheckMatrix(mat)
        except RankDeficiencyError:
            continue


def flooding_bp(H: ParityCheckMatrix, y: np.ndarray, sigma: float, max_iters: int):
    """Sum-product BP on one word, one edge at a time, in the flooding schedule:
    (bits, converged, iters, posterior).

    Channel LLRs and every message saturate at +-LLR_CLAMP, as in the
    library, and the word stops as soon as its hard decisions satisfy every
    check.  This oracle works in full LLRs and clips tanh products at
    +-(1 - 1e-15) before 2 atanh, where the library works in half-LLRs and
    clips nothing before atanh: a product of tanh values never reaches the
    clip, and the empty product 1 of a degree-one check saturates at the
    clamp either way (2 atanh(1 - 1e-15) ~ 35.2 here, atanh(1) = inf there).
    A check message multiplies tanh(msg/2) of the bits before its edge left
    to right and of those after it right to left, and a bit adds its check
    messages in check order, so the posteriors agree with the batch
    decoder's to rounding.
    """
    eps = 1e-15
    checks = [np.flatnonzero(row) for row in H.matrix]
    llr = np.clip(2.0 * np.asarray(y, dtype=np.float64) / sigma**2, -LLR_CLAMP, LLR_CLAMP)

    def satisfied(post):
        hard = (post < 0).astype(np.uint8)
        return hard, all(hard[bits].sum() % 2 == 0 for bits in checks)

    hard, ok = satisfied(llr)
    if ok:
        return hard, True, 0, llr
    to_check = {(c, v): llr[v] for c, bits in enumerate(checks) for v in bits}
    for it in range(1, max_iters + 1):
        to_bit = {}
        for c, bits in enumerate(checks):
            t = [np.tanh(min(max(to_check[c, v], -LLR_CLAMP), LLR_CLAMP) / 2.0) for v in bits]
            for j, v in enumerate(bits):
                before = 1.0
                for x in t[:j]:
                    before = before * x
                after = 1.0
                for x in reversed(t[j + 1:]):
                    after = x * after
                prod = min(max(before * after, -1.0 + eps), 1.0 - eps)
                to_bit[c, v] = min(max(2.0 * np.arctanh(prod), -LLR_CLAMP), LLR_CLAMP)
        post = llr.copy()
        for v in range(H.n):
            post[v] += sum(to_bit[c, v] for c in range(H.num_checks) if (c, v) in to_bit)
        for c, v in to_check:
            to_check[c, v] = post[v] - to_bit[c, v]
        hard, ok = satisfied(post)
        if ok:
            return hard, True, it, post
    return hard, False, max_iters, post
