"""Special functions and variate generation.

Everything downstream (confidence bounds, closed-form certificates,
radius statistics) is built on the four primitives in this module:
the standard normal CDF and its inverse, the log-gamma function, and
the regularized incomplete beta function with its inverse in ``x``.
They are thin wrappers over ``scipy.special`` (and ``math.lgamma``)
that check their domain and raise ``DomainError`` outside it.

All functions are pure. ``gamma_sample`` draws through a
:class:`~smoothcert.rng.RandomStream`, so the same stream always yields
the same variates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaincinv, ndtr, ndtri

from .errors import DomainError
from .rng import RandomStream


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well below 1e-12.

    Saturates to exactly 0.0 / 1.0 deep in the tails instead of raising.
    """
    if math.isnan(x):
        raise DomainError("std_normal_cdf requires a finite argument")
    return float(ndtr(x))


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on the open interval (0, 1).

    Raises
    ------
    DomainError
        If *p* is not strictly inside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires 0 < p < 1, got {p}")
    return float(ndtri(p))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Satisfies I_0 = 0, I_1 = 1 and the reflection identity
    I_x(a, b) + I_{1-x}(b, a) = 1.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_incomplete_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_incomplete_beta requires 0 <= x <= 1, got x={x}")
    return float(betainc(a, b, x))


def reg_incomplete_beta_inverse(a: float, b: float, p: float) -> float:
    """Solve I_x(a, b) = p for x."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"inverse beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"inverse beta requires 0 <= p <= 1, got p={p}")
    return float(betaincinv(a, b, p))


def gamma_sample(
    shape: float,
    scale: float,
    rng: RandomStream,
    n: int | None = None,
) -> float | np.ndarray:
    """Draw Gamma(shape, scale) variates from a random stream.

    With ``n=None`` returns a single float, otherwise an array of
    length ``n``. Backed by numpy's squeeze/rejection gamma generator
    (Marsaglia-Tsang with the shape+1 boost for shape < 1), which is
    valid for all shape > 0.
    """
    if not (shape > 0.0 and scale > 0.0):
        raise DomainError(f"gamma_sample requires shape, scale > 0, got {shape}, {scale}")
    g = rng.generator()
    if n is None:
        return float(g.gamma(shape, scale))
    if n < 1:
        raise DomainError(f"gamma_sample requires n >= 1, got {n}")
    return g.gamma(shape, scale, size=n)
