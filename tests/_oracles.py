"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the normal CDF
comes from a truncated erf power series, binomial tails from direct
log-space summation, and 1-D integrals from plain trapezoid sums.
"""

from __future__ import annotations

import math

import numpy as np


def erf_power_series(x: float, terms: int = 80) -> float:
    """erf via its Maclaurin series; ~1e-15 accurate for |x| <= 3."""
    total = 0.0
    for n in range(terms):
        total += (-1.0) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_series(x: float) -> float:
    return 0.5 * (1.0 + erf_power_series(x / math.sqrt(2.0)))


def binomial_tail_ge(n: int, k: int, p: float) -> float:
    """P(Binomial(n, p) >= k) by direct log-space summation."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    total = 0.0
    for j in range(k, n + 1):
        lg = (
            math.lgamma(n + 1)
            - math.lgamma(j + 1)
            - math.lgamma(n - j + 1)
            + j * math.log(p)
            + (n - j) * math.log1p(-p)
        )
        total += math.exp(lg)
    return total


def clopper_pearson_by_binomial_bisection(s: int, n: int, alpha: float) -> float:
    """One-sided lower bound: largest p with P(Bin(n,p) >= s) <= alpha."""
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if binomial_tail_ge(n, s, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def laplace_tv_trapezoid(b: float, r: float, lam: float, n: int = 2_000_001) -> float:
    """1-D trapezoid integral of (lam pi_0 - pi_r)_+ for Laplace(b)."""
    z = np.linspace(-40.0 * b, 40.0 * b, n)
    pi0 = np.exp(-np.abs(z) / b) / (2.0 * b)
    pid = np.exp(-np.abs(z - r) / b) / (2.0 * b)
    return float(np.trapezoid(np.maximum(lam * pi0 - pid, 0.0), z))


def mixed_norm_by_rejection(
    dim: int, k: float, sigma: float, n: int, g: np.random.Generator
) -> np.ndarray:
    """n mixed_norm rows drawn by rejection, the sampler the engine used to ship.

    A row is an l2 radius sigma sqrt(2 Gamma((d-k)/2)) times a direction
    with density prop. to ||u||_inf^-k on the unit sphere. Directions are
    proposed uniformly and kept with probability (sqrt(d) ||u||_inf)^-k,
    which is at most 1 because ||u||_inf >= 1/sqrt(d) there. Frozen as an
    independent reference for the conditional sampler.
    """
    radius = sigma * np.sqrt(2.0 * g.gamma((dim - k) / 2.0, 1.0, size=n))
    kept: list[np.ndarray] = []
    got = 0
    while got < n:
        m = max(1024, n - got)
        u = g.standard_normal((m, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        keep = g.uniform(size=m) < (math.sqrt(dim) * np.abs(u).max(axis=1)) ** (-k)
        kept.append(u[keep])
        got += int(keep.sum())
    return radius[:, None] * np.concatenate(kept)[:n]
