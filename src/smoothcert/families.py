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

Power terms are re-expressed in radius/direction form for sampling, so
every sampler is exact: radii come from a gamma transform and
directions from the matching cone measure (by rejection for
``mixed_norm``). The same form lets ``discrepancy`` draw, on the l1/l2
axis rays, only the two scalars per row that fix a worst-shift ratio,
without these n x d rows. Densities are kept unnormalized; all
consumers use ratios in which the constants cancel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DomainError, SamplerAbortError, SingularityError, UnsupportedError
from .rng import RandomStream
from .special import log_gamma

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

# Rejection-sampler guard: abort once at least this many proposals have
# been made and the running acceptance rate is below the floor.
ACCEPTANCE_MIN_PROPOSALS = 100_000
ACCEPTANCE_RATE_FLOOR = 1e-6

# Chunk budget (scalars per block) for streaming draws; fixed so that
# chunked and repeated runs consume the generator identically.
_CHUNK_SCALARS = 4_000_000


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
        if self.variant in _SIGMA_VARIANTS:
            if self.sigma is None or not self.sigma > 0.0:
                raise DomainError(f"{self.variant} requires sigma > 0, got {self.sigma}")
            if self.b is not None:
                raise DomainError(f"{self.variant} takes sigma, not b")
        else:
            if self.b is None or not self.b > 0.0:
                raise DomainError(f"{self.variant} requires b > 0, got {self.b}")
            if self.sigma is not None:
                raise DomainError(f"{self.variant} takes b, not sigma")
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
    """An n-by-d matrix of draws plus the stream that produced them."""

    points: np.ndarray
    family: SmoothingFamily
    seed: int
    stream_id: int
    acceptance_rate: float | None = None

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise DomainError("SampleBatch requires an n x d matrix with n >= 1")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_csv(self, path: str | Path) -> None:
        """Write one row per sample; header is the dimension indices."""
        path = Path(path)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"z{i}" for i in range(self.points.shape[1])])
            for row in self.points:
                writer.writerow([repr(float(v)) for v in row])


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
    if family.variant == "gaussian":
        return (2.0 * z @ delta - float(delta @ delta)) / (2.0 * family.sigma**2)
    if family.variant == "mixed_norm" or family.variant == "l2_power_tail":
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


def _unit_sphere(g: np.random.Generator, n: int, d: int) -> np.ndarray:
    u = g.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u


def _mixed_norm_directions(
    family: SmoothingFamily, g: np.random.Generator, n: int
) -> tuple[np.ndarray, float]:
    """Directions with density prop. to ||u||_inf^-k on the l2 sphere.

    Proposal: uniform sphere; acceptance (sqrt(d) ||u||_inf)^-k, valid
    because ||u||_inf >= 1/sqrt(d) on the unit sphere. Returns the
    directions and the realized acceptance rate.
    """
    d, k = family.dim, family.k
    if k == 0.0:
        return _unit_sphere(g, n, d), 1.0
    accepted: list[np.ndarray] = []
    got, proposed = 0, 0
    sqrt_d = math.sqrt(d)
    while got < n:
        m = max(1024, n - got)
        u = _unit_sphere(g, m, d)
        prob = (sqrt_d * np.abs(u).max(axis=1)) ** (-k)
        keep = g.uniform(size=m) < prob
        taken = u[keep]
        accepted.append(taken)
        got += taken.shape[0]
        proposed += m
        if proposed >= ACCEPTANCE_MIN_PROPOSALS and got / proposed < ACCEPTANCE_RATE_FLOOR:
            raise SamplerAbortError(
                f"mixed_norm direction sampler starved: acceptance rate "
                f"{got / proposed:.2e} after {proposed} proposals at k={k}, d={d}; "
                f"acceptance decays like (2 ln d)^(-k/2), so this (k, d) is out of "
                f"desk scale"
            )
    out = np.concatenate(accepted, axis=0)[:n]
    return out, got / proposed


def _draw(
    family: SmoothingFamily, n: int, g: np.random.Generator
) -> tuple[np.ndarray, float | None]:
    """Draw n rows from the live generator. Returns (points, acceptance)."""
    d = family.dim
    v = family.variant
    if v == "gaussian":
        return family.sigma * g.standard_normal((n, d)), None
    if v == "laplacian":
        return g.laplace(0.0, family.b, size=(n, d)), None
    if v == "l2_power_tail":
        radius = family.sigma * np.sqrt(2.0 * g.gamma((d - family.k) / 2.0, 1.0, size=n))
        points = _unit_sphere(g, n, d)
        points *= radius[:, None]
        return points, None
    if v == "l1_power_tail":
        radius = g.gamma(d - family.k, family.b, size=n)
        expo = g.standard_exponential((n, d))
        weights = expo / expo.sum(axis=1, keepdims=True)
        signs = 2.0 * g.integers(0, 2, size=(n, d)) - 1.0
        return radius[:, None] * weights * signs, None
    if v == "linf_pure":
        radius = family.sigma * np.sqrt(2.0 * g.gamma((d - family.k) / 2.0, 1.0, size=n))
        s = g.uniform(-1.0, 1.0, size=(n, d))
        s /= np.abs(s).max(axis=1, keepdims=True)
        return radius[:, None] * s, None
    # mixed_norm: l2 radius, inf-weighted direction by rejection
    radius = family.sigma * np.sqrt(2.0 * g.gamma((d - family.k) / 2.0, 1.0, size=n))
    directions, acceptance = _mixed_norm_directions(family, g, n)
    return radius[:, None] * directions, acceptance


def sample(family: SmoothingFamily, n: int, rng: RandomStream) -> SampleBatch:
    """Exact i.i.d. draws from the normalized family.

    Pure: the same (family, n, rng) triple reproduces the batch
    bit-for-bit. ``mixed_norm`` batches carry the realized rejection
    acceptance rate; a starved sampler raises
    :class:`~smoothcert.errors.SamplerAbortError` instead of stalling.
    """
    if n < 1:
        raise DomainError(f"sample requires n >= 1, got {n}")
    points, acceptance = _draw(family, n, rng.generator())
    return SampleBatch(
        points=points,
        family=family,
        seed=rng.seed,
        stream_id=rng.stream_id,
        acceptance_rate=acceptance,
    )


def sample_chunks(
    family: SmoothingFamily, n: int, rng: RandomStream
) -> Iterator[np.ndarray]:
    """Stream n draws in fixed-size blocks from one generator.

    Lets consumers reduce over large batches (norms, labels) without
    materializing n x d. The block size is a fixed code constant, so a
    given (family, n, rng) always consumes the stream identically.
    """
    if n < 1:
        raise DomainError(f"sample_chunks requires n >= 1, got {n}")
    g = rng.generator()
    rows = max(1, _CHUNK_SCALARS // family.dim)
    remaining = n
    while remaining > 0:
        m = min(rows, remaining)
        points, _ = _draw(family, m, g)
        yield points
        remaining -= m


# ---------------------------------------------------------------------------
# statistics


def _gaussian_radial_moments(sigma: float, m: float) -> RadiusStats:
    """Moments of the radius law r^m exp(-r^2 / (2 sigma^2)) on r > 0."""
    mode = sigma * math.sqrt(m) if m > 0.0 else 0.0
    mean = sigma * math.sqrt(2.0) * math.exp(log_gamma((m + 2.0) / 2.0) - log_gamma((m + 1.0) / 2.0))
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
