"""Smoothing distribution families: densities, exact samplers, statistics.

Six families are supported, each a zero-centered law on R^d whose
kernel depends on one or two norms of z:

======================  =============================================
variant                 unnormalized density
======================  =============================================
``gaussian``            exp(-||z||_2^2 / (2 sigma^2))
``laplacian``           exp(-||z||_1 / b)
``l2_power_tail``       ||z||_2^-k  exp(-||z||_2^2 / (2 sigma^2))
``l1_power_tail``       ||z||_1^-k  exp(-||z||_1 / b)
``linf_pure``           ||z||_inf^-k exp(-||z||_inf^2 / (2 sigma^2))
``mixed_norm``          ||z||_inf^-k exp(-||z||_2^2 / (2 sigma^2))
======================  =============================================

Every sampler is exact. Radii come from a gamma transform and
directions from the matching cone measure, which lets ``discrepancy``
draw, on the l1/l2 axis rays, only the two scalars per row that fix a
worst-shift ratio. ``mixed_norm`` is drawn given M = ||z||_inf instead
(``_mixed_norm_unit``). Densities are kept unnormalized; all consumers
use ratios in which the constants cancel.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, SingularityError, UnsupportedError
from .rng import RandomStream

VARIANTS = (
    "gaussian",
    "laplacian",
    "l2_power_tail",
    "l1_power_tail",
    "linf_pure",
    "mixed_norm",
)
_POWER_VARIANTS = frozenset({"l2_power_tail", "l1_power_tail", "linf_pure", "mixed_norm"})
_SIGMA_VARIANTS = frozenset({"gaussian", "l2_power_tail", "linf_pure", "mixed_norm"})

# Scales whose square is a normal float, so sigma**2 neither overflows
# nor vanishes in the density ratios.
_SCALE_RANGE = (1e-150, 1e150)

# Shard size of streaming draws: R(d) = max(1, min(_SHARD_ROWS,
# _CHUNK_SCALARS // d)) rows, at most 4e6 scalars (32 MB) per shard.
# Fixed in code, so a given (family, n, rng) draws the same rows
# whoever reads them and however many threads count them.
_CHUNK_SCALARS = 4_000_000
_SHARD_ROWS = 1 << 14


@dataclass(frozen=True)
class SmoothingFamily:
    """A smoothing distribution pi_0 with its dimension and parameters.

    ``k`` is real-valued. Power-tail variants require 0 <= k < d so the
    radius law r^(d-1-k) exp(...) stays normalizable; the stricter
    hyperparameter rule k < d-1 is enforced where it matters
    (``matched_sigma`` and run configs), not at construction, because
    the d=2 worst-case verification deliberately probes k = d-1.
    """

    variant: str
    dim: int
    k: float = 0.0
    sigma: float | None = None
    b: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown family variant {self.variant!r}")
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")
        name, other = ("sigma", "b") if self.variant in _SIGMA_VARIANTS else ("b", "sigma")
        scale = getattr(self, name)
        if scale is None or not _SCALE_RANGE[0] <= scale <= _SCALE_RANGE[1]:
            raise DomainError(f"{self.variant} requires {name} in [{_SCALE_RANGE[0]:g}, "
                              f"{_SCALE_RANGE[1]:g}], got {scale}")
        if getattr(self, other) is not None:
            raise DomainError(f"{self.variant} takes {name}, not {other}")
        if self.variant in _POWER_VARIANTS:
            if not 0.0 <= self.k < self.dim:
                raise DomainError(
                    f"power-tail families require 0 <= k < d, got k={self.k} at d={self.dim}"
                )
        elif self.k != 0.0:
            raise DomainError(f"{self.variant} does not take a tail exponent k")

    @classmethod
    def gaussian(cls, dim: int, sigma: float) -> "SmoothingFamily":
        return cls("gaussian", dim, sigma=sigma)

    @classmethod
    def laplacian(cls, dim: int, b: float) -> "SmoothingFamily":
        return cls("laplacian", dim, b=b)

    @classmethod
    def l2_power_tail(cls, dim: int, k: float, sigma: float) -> "SmoothingFamily":
        return cls("l2_power_tail", dim, k=k, sigma=sigma)

    @classmethod
    def l1_power_tail(cls, dim: int, k: float, b: float) -> "SmoothingFamily":
        return cls("l1_power_tail", dim, k=k, b=b)

    @classmethod
    def linf_pure(cls, dim: int, k: float, sigma: float) -> "SmoothingFamily":
        return cls("linf_pure", dim, k=k, sigma=sigma)

    @classmethod
    def mixed_norm(cls, dim: int, k: float, sigma: float) -> "SmoothingFamily":
        return cls("mixed_norm", dim, k=k, sigma=sigma)

    @property
    def scale(self) -> float:
        """The family's scale parameter (sigma or b)."""
        return self.sigma if self.sigma is not None else self.b  # type: ignore[return-value]

    @property
    def has_power_term(self) -> bool:
        return self.variant in _POWER_VARIANTS and self.k > 0.0

    def describe(self) -> dict:
        out = {"variant": self.variant, "dim": self.dim}
        if self.variant in _POWER_VARIANTS:
            out["k"] = self.k
        if self.sigma is not None:
            out["sigma"] = self.sigma
        else:
            out["b"] = self.b
        return out


@dataclass(frozen=True)
class SampleBatch:
    """An n-by-d matrix of draws from one family."""

    points: np.ndarray
    family: SmoothingFamily
    acceptance_rate = 1.0  # share of proposals kept: no sampler rejects

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise DomainError("SampleBatch requires an n x d matrix with n >= 1")


@dataclass(frozen=True)
class RadiusStats:
    """Mode, mean, and variance of the family's radius law."""

    mode: float
    mean: float
    variance: float


# ---------------------------------------------------------------------------
# densities


def _norms(variant: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(power-term norm, exponential-term norm) for a batch of rows.

    The second entry is None when both terms use the same norm.
    """
    if variant in ("gaussian", "l2_power_tail"):
        return np.linalg.norm(z, axis=-1), None
    if variant in ("laplacian", "l1_power_tail"):
        return np.abs(z).sum(axis=-1), None
    if variant == "linf_pure":
        return np.abs(z).max(axis=-1), None
    # mixed_norm: power term on ||.||_inf, exponent on ||.||_2
    return np.abs(z).max(axis=-1), np.linalg.norm(z, axis=-1)


def _log_kernel_batch(family: SmoothingFamily, z: np.ndarray) -> np.ndarray:
    """Log of the unnormalized density for each row of z.

    Rows at the exact origin evaluate to +inf when k > 0 (and the scalar
    entry point turns that into a SingularityError).
    """
    power_norm, exp_norm = _norms(family.variant, z)
    if exp_norm is None:
        exp_norm = power_norm
    if family.variant in ("laplacian", "l1_power_tail"):
        out = -exp_norm / family.b
    else:
        out = -0.5 * exp_norm**2 / (family.sigma**2)
    if family.has_power_term:
        with np.errstate(divide="ignore"):
            out = out - family.k * np.log(power_norm)
    return out


def log_unnormalized_density(family: SmoothingFamily, z: np.ndarray) -> float:
    """Log density kernel at one point (normalization constant omitted)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (family.dim,):
        raise DomainError(f"expected a vector of length {family.dim}, got shape {z.shape}")
    if family.has_power_term and not np.any(z):
        raise SingularityError("density diverges at the origin for k > 0")
    return float(_log_kernel_batch(family, z[None, :])[0])


def log_density_ratio_shift(
    family: SmoothingFamily, z: np.ndarray, delta: np.ndarray
) -> float:
    """log pi_delta(z) - log pi_0(z) for the shifted law pi_delta.

    pi_delta is the distribution of z + delta with z ~ pi_0, so the
    ratio is kernel(z - delta) / kernel(z) and normalization cancels
    exactly.
    """
    z = np.asarray(z, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if z.shape != (family.dim,) or delta.shape != (family.dim,):
        raise DomainError(f"z and delta must be vectors of length {family.dim}")
    if family.has_power_term:
        if not np.any(z):
            raise SingularityError("density diverges at z = 0 for k > 0")
        if not np.any(z - delta):
            raise SingularityError("density diverges at z = delta for k > 0")
    return float(_log_ratio_batch(family, z[None, :], delta)[0])


def _log_ratio_batch(
    family: SmoothingFamily, z: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """Vectorized log pi_delta / pi_0 over rows of z.

    The Gaussian exponent is computed from the dot product rather than
    a difference of squared norms, which stays accurate far from the
    origin.
    """
    delta = np.asarray(delta, dtype=float)
    if family.variant in ("gaussian", "mixed_norm", "l2_power_tail"):  # gaussian is k = 0
        out = (2.0 * z @ delta - float(delta @ delta)) / (2.0 * family.sigma**2)
        if family.k > 0.0:
            power_shift, _ = _norms(family.variant, z - delta)
            power_base, _ = _norms(family.variant, z)
            with np.errstate(divide="ignore"):
                out = out - family.k * (np.log(power_shift) - np.log(power_base))
        return out
    return _log_kernel_batch(family, z - delta) - _log_kernel_batch(family, z)


# ---------------------------------------------------------------------------
# sampling


_LOG_M_MAX = math.log(40.0)  # P(M > 40) < d * 1e-349 at unit scale


@functools.lru_cache(maxsize=64)
def _log_linf_law(d: int, k: float):
    """PINV inverse CDF of log M, M = ||z||_inf of unit-scale mixed_norm.

    M has density prop. to u^-k phi(u) erf(u / sqrt 2)^(d-1), with a pole
    at 0 once k > d-1 that PINV (Derflinger, Hoermann and Leydold 2010)
    cannot take; t = log M has the bounded, strictly concave log-density
    below for every 0 <= k < d. The object holds no random state: callers
    pass their own uniforms to ``ppf``. ``scipy.stats``, with the
    ``scipy.optimize`` and ``scipy.integrate`` it loads, costs about
    0.5-0.6 s and 45 MB to import, so it loads here, on first use.
    """
    from scipy.optimize import minimize_scalar
    from scipy.stats.sampling import NumericalInversePolynomial, UNURANError

    def log_density(t: float) -> float:
        m = math.exp(t)  # erf(m / sqrt 2) / m tends to sqrt(2 / pi) as m -> 0
        ratio = math.erf(m / math.sqrt(2.0)) / m if m > 1e-8 else math.sqrt(2.0 / math.pi)
        return (d - k) * t - 0.5 * m * m + (d - 1) * math.log(ratio)

    mode = minimize_scalar(lambda t: -log_density(t), bounds=(-20, _LOG_M_MAX), method="bounded").x
    peak = log_density(mode)
    try:  # u-resolution 1e-10: |u - F(ppf(u))| stays below most generators' spacing
        return NumericalInversePolynomial(
            types.SimpleNamespace(logpdf=lambda t: log_density(t) - peak),
            center=mode, domain=(-math.inf, _LOG_M_MAX), u_resolution=1e-10)
    except UNURANError as exc:
        raise DomainError(f"mixed_norm l-inf law has no numerical inverse at "
                          f"d={d}, k={k}: {exc}") from exc


def _nonzero_radius(radius: np.ndarray, variant: str, d: int, k: float) -> np.ndarray:
    """``radius`` (each row's radius variate, or M = ||z||_inf), checked in O(n).

    Near k = d the radius law is so concentrated at 0 that draws round
    to exactly 0: the power term diverges there, every density ratio is
    undefined, and a bound would silently read 0.
    """
    if not radius.all():
        raise DomainError(f"{variant} at d={d}, k={k} draws rows at the origin; "
                          f"k is too close to d")
    return radius


def _mixed_norm_unit(d: int, k: float, n: int, g: np.random.Generator) -> np.ndarray:
    """n unit-scale mixed_norm rows, drawn given M = ||z||_inf.

    Given M, a uniformly placed coordinate is +-M and the other d-1 are
    i.i.d. N(0, 1) truncated to [-M, M]. Variates, in order: u, n
    midpoints of 2^52 equal cells of (0, 1), and M = exp(ppf(u)); j, n
    integers in [0, d); sign, n integers in {0, 1}; v, n x (d-1)
    uniforms, each mapped to ndtri(Phi(-M) + v (1 - 2 Phi(-M))) and
    clipped to [-M, M] against rounding. Columns 0 and j of the row
    (sign M, truncated normals) are then swapped, which keeps the
    exchangeable truncated normals i.i.d.
    """
    u = (g.integers(0, 1 << 52, size=n) + 0.5) * 2.0**-52
    m = _nonzero_radius(np.exp(_log_linf_law(d, k).ppf(u)), "mixed_norm", d, k)
    j = g.integers(0, d, size=n)
    sign = 2.0 * g.integers(0, 2, size=n) - 1.0
    lo = ndtr(-m)[:, None]
    rest = g.random((n, d - 1)) * (1.0 - 2.0 * lo)
    rest += lo
    z = np.empty((n, d))
    z[:, 0] = sign * m
    np.clip(ndtri(rest, out=rest), -m[:, None], m[:, None], out=z[:, 1:])
    rows = np.arange(n)
    z[rows, 0], z[rows, j] = z[rows, j], z[rows, 0]
    return z


def _draw(family: SmoothingFamily, n: int, g: np.random.Generator) -> np.ndarray:
    """Draw n rows from the live generator."""
    d, k = family.dim, family.k
    v = family.variant
    if v == "gaussian":
        return family.sigma * g.standard_normal((n, d))
    if v == "laplacian":
        return g.laplace(0.0, family.b, size=(n, d))
    if v == "l2_power_tail":
        radius = family.sigma * np.sqrt(2.0 * _nonzero_radius(
            g.gamma((d - k) / 2.0, 1.0, size=n), v, d, k))
        points = g.standard_normal((n, d))
        points *= (radius / np.sqrt(np.einsum("ij,ij->i", points, points)))[:, None]
        return points
    if v == "l1_power_tail":
        radius = _nonzero_radius(g.gamma(d - k, family.b, size=n), v, d, k)
        expo = g.standard_exponential((n, d))
        weights = expo / expo.sum(axis=1, keepdims=True)
        signs = 2.0 * g.integers(0, 2, size=(n, d)) - 1.0
        return radius[:, None] * weights * signs
    if v == "linf_pure":
        radius = family.sigma * np.sqrt(2.0 * _nonzero_radius(
            g.gamma((d - k) / 2.0, 1.0, size=n), v, d, k))
        s = g.uniform(-1.0, 1.0, size=(n, d))
        s /= np.abs(s).max(axis=1, keepdims=True)
        return radius[:, None] * s
    return family.sigma * _mixed_norm_unit(d, k, n, g)


def sample(family: SmoothingFamily, n: int, rng: RandomStream) -> SampleBatch:
    """Exact i.i.d. draws from the normalized family.

    Pure: the same (family, n, rng) triple reproduces the batch
    bit-for-bit. No sampler rejects, so every call consumes the stream
    in a fixed pattern and returns in bounded time.
    """
    if n < 1:
        raise DomainError(f"sample requires n >= 1, got {n}")
    return SampleBatch(points=_draw(family, n, rng.generator()), family=family)


def _shard_rows(dim: int) -> int:
    return max(1, min(_SHARD_ROWS, _CHUNK_SCALARS // dim))


def shard_count(family: SmoothingFamily, n: int) -> int:
    """Number of shards of a ``sample_chunks`` draw of n rows."""
    return -(-n // _shard_rows(family.dim))


def sample_chunks(
    family: SmoothingFamily, n: int, rng: RandomStream, shards: slice = slice(None)
) -> Iterator[np.ndarray]:
    """Stream n draws in fixed shards, one block per shard.

    Shard i holds rows i R .. min(n, (i + 1) R) - 1 of the n, with
    R = max(1, min(2^14, 4e6 // d)), and is drawn alone from
    ``rng.shard(i)``. So every row depends only on (family, n, rng), and
    ``shards`` (a slice of the shard indices, default all of them, in
    order) draws some shards without the ones before them, which lets a
    pool map the shards over threads. Consumers reduce block by block
    (norms, labels) without materializing n x d.
    """
    if n < 1:
        raise DomainError(f"sample_chunks requires n >= 1, got {n}")
    rows = _shard_rows(family.dim)
    for i in range(shard_count(family, n))[shards]:
        yield _draw(family, min(rows, n - i * rows), rng.shard(i).generator())


# ---------------------------------------------------------------------------
# statistics


def _gaussian_radial_moments(sigma: float, m: float) -> RadiusStats:
    """Moments of the radius law r^m exp(-r^2 / (2 sigma^2)) on r > 0."""
    mode = sigma * math.sqrt(m) if m > 0.0 else 0.0
    mean = sigma * math.sqrt(2.0) * math.exp(math.lgamma((m + 2.0) / 2.0) - math.lgamma((m + 1.0) / 2.0))
    variance = sigma**2 * (m + 1.0) - mean**2
    return RadiusStats(mode=mode, mean=mean, variance=max(0.0, variance))


def radius_stats(family: SmoothingFamily) -> RadiusStats:
    """Closed-form statistics of the family's own radius law.

    The radius is ||z||_2 for gaussian/l2_power_tail, ||z||_1 for
    laplacian/l1_power_tail, and ||z||_inf for linf_pure. mixed_norm
    has no single-norm radius law and is unsupported.
    """
    m = family.dim - 1.0 - family.k
    if family.variant in ("gaussian", "l2_power_tail", "linf_pure"):
        return _gaussian_radial_moments(family.sigma, m)
    if family.variant in ("laplacian", "l1_power_tail"):
        shape = family.dim - family.k
        mode = family.b * m if m > 0.0 else 0.0
        return RadiusStats(
            mode=mode, mean=family.b * shape, variance=family.b**2 * shape
        )
    raise UnsupportedError("mixed_norm has no closed-form full-norm radius statistics")


def matched_sigma(d: int, k: float, sigma0: float) -> float:
    """Scale rule keeping the radius mean aligned with a Gaussian sigma0.

    Returns sqrt((d-1) / (d-1-k)) * sigma0; requires k < d - 1.
    """
    if d < 2:
        raise DomainError(f"matched_sigma requires d >= 2, got {d}")
    if not sigma0 > 0.0:
        raise DomainError(f"matched_sigma requires sigma0 > 0, got {sigma0}")
    if not 0.0 <= k < d - 1.0:
        raise DomainError(f"matched_sigma requires 0 <= k < d-1, got k={k} at d={d}")
    return math.sqrt((d - 1.0) / (d - 1.0 - k)) * sigma0
