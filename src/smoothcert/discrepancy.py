"""The discrepancy engine.

Computes the bounded-function discrepancy

    D(lambda) = integral (lambda * pi_0(z) - pi_delta(z))_+ dz
              = E_{z ~ pi_0} (lambda - pi_delta(z) / pi_0(z))_+

three ways: the one Monte Carlo estimator, with a rigorous one-sided
error, which issues every certificate (``discrepancy_mc`` at one
lambda); closed-form oracles for Gaussian and Laplacian smoothing; and
a quadrature oracle at d <= 3. The estimator draws only the scalars
that fix the ratio on the worst-shift ray: from their exact joint law
in O(n) on the l1/l2 axis rays, by reducing full rows on the linf
vertex ray. On top of it sits the dual lower bound

    max over lambda >= 0 of { lambda * p0 - (D_hat(lambda) + lambda * eps) }

with eps the half-width of one DKW band that covers every lambda at
once, maximized exactly, and the worst-case shift delta* resolved
analytically per (threat, family) pair.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, UnsupportedError
from .families import (
    SmoothingFamily,
    _log_kernel_batch,
    _nonzero_radius,
    sample_chunks,
)
from .rng import RandomStream

THREAT_NORMS = ("l1", "l2", "linf")


@dataclass(frozen=True)
class ThreatModel:
    """A perturbation set: {delta : ||delta||_norm <= radius}."""

    norm: str
    radius: float

    def __post_init__(self) -> None:
        if self.norm not in THREAT_NORMS:
            raise DomainError(f"threat norm must be one of {THREAT_NORMS}, got {self.norm!r}")
        if not self.radius >= 0.0:
            raise DomainError(f"threat radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class WorstDelta:
    """The discrepancy-maximizing shift and which theorem produced it."""

    vector: np.ndarray
    rationale: str  # L1Boundary | L2Boundary | LinfVertex | LinfViaL2Equivalence

    @property
    def step(self) -> float:
        """r such that the shift is r times its ray's direction.

        The direction is e1 for the axis rationales and the all-ones
        vector for ``LinfVertex``, so r is the first coordinate.
        """
        return float(self.vector[0])


@dataclass(frozen=True)
class ShiftStatistics:
    """Draws of ``family`` reduced to the scalars that fix their ratio on its ray.

    The worst shift of every threat the family supports lies on one ray,
    ``ray``, so one set of statistics serves them all. Along
    delta = r * direction, log pi_delta / pi_0 depends on a row z only
    through ``columns``, one entry per row:

    * ``L2Boundary`` (gaussian, l2_power_tail; e1 axis): (z1, ||z_{2:}||_2^2);
    * ``L1Boundary`` (laplacian, l1_power_tail; e1 axis): (z1, ||z_{2:}||_1);
    * ``LinfVertex`` (mixed_norm, linf_pure; all-ones): (sum z, max z, min z).
    """

    family: SmoothingFamily
    columns: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.columns[0].size

    @property
    def ray(self) -> str:
        return _RAY[self.family.variant]


@dataclass(frozen=True)
class DiscrepancyEstimate:
    """Monte Carlo D estimate with a one-sided Hoeffding half-width.

    The true D lies below ``mean + epsilon`` with probability at least
    1 - alpha. ``std_error`` is the plain MC standard error of the
    mean, reported for diagnostics and tolerance accounting.
    """

    mean: float
    epsilon: float
    lam: float
    std_error: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.mean <= self.lam + 1e-12:
            raise DomainError(
                f"discrepancy mean {self.mean} escapes [0, lambda={self.lam}]"
            )

    @property
    def upper(self) -> float:
        return self.mean + self.epsilon


@dataclass(frozen=True)
class TracePoint:
    lam: float
    d_mean: float
    epsilon: float
    bound: float


@dataclass(frozen=True)
class DualBoundResult:
    """Outcome of the exact maximization of the dual bound.

    ``trace`` holds the one point evaluated, the optimum.
    """

    bound: float
    lambda_star: float
    d_mean: float
    epsilon: float
    std_error: float
    trace: tuple[TracePoint, ...] = field(repr=False)


# ---------------------------------------------------------------------------
# worst-case shift


# The ray of the worst shift per (threat norm, family variant): the
# maximum of D over the threat set sits on it (see ``worst_delta``).
_WORST_SHIFT = {
    ("l1", "laplacian"): "L1Boundary", ("l1", "l1_power_tail"): "L1Boundary",
    ("l2", "gaussian"): "L2Boundary", ("l2", "l2_power_tail"): "L2Boundary",
    ("linf", "gaussian"): "LinfViaL2Equivalence", ("linf", "l2_power_tail"): "LinfViaL2Equivalence",
    ("linf", "mixed_norm"): "LinfVertex", ("linf", "linf_pure"): "LinfVertex",
}
# The ray of each family's ``ShiftStatistics``: an linf threat under l2
# smoothing shifts along the same e1 axis as an l2 threat.
_RAY = {v: ray for (_, v), ray in _WORST_SHIFT.items() if ray != "LinfViaL2Equivalence"}


def worst_delta(threat: ThreatModel, family: SmoothingFamily) -> WorstDelta:
    """Resolve the shift maximizing D over the threat set.

    For l1/l2 threats with the matching family the maximum sits on the
    boundary at an axis point; for linf threats with mixed_norm or
    linf_pure smoothing it sits at the cube vertex [r, ..., r]. An linf
    threat under l2-type smoothing reduces to an l2 threat of radius
    sqrt(d) * r. Anything else has no supported reduction.
    """
    d, r = family.dim, threat.radius
    rationale = _WORST_SHIFT.get((threat.norm, family.variant))
    if rationale is None:
        raise UnsupportedError(
            f"no worst-shift theorem for threat norm {threat.norm!r} with family "
            f"{family.variant!r}; supported (norm, variant) pairs: {sorted(_WORST_SHIFT)}")
    if rationale == "LinfVertex":
        return WorstDelta(vector=np.full(d, r), rationale=rationale)
    axis = np.zeros(d)
    axis[0] = math.sqrt(d) * r if rationale == "LinfViaL2Equivalence" else r
    return WorstDelta(vector=axis, rationale=rationale)


# ---------------------------------------------------------------------------
# worst-shift statistics


def shift_statistics(family: SmoothingFamily, block: np.ndarray) -> ShiftStatistics:
    """Reduce an n x d block of draws of ``family`` to its ``ShiftStatistics``.

    One O(n d) pass; afterwards ``log_ratio`` costs O(n) at any radius.
    The columns are copies, so the block can be freed.
    """
    ray = _RAY[family.variant]
    if ray == "LinfVertex":
        columns = (block.sum(axis=1), block.max(axis=1), block.min(axis=1))
    else:
        rest = block[:, 1:]
        if ray == "L1Boundary":
            tail = np.abs(rest).sum(axis=1)
        else:
            tail = np.einsum("ij,ij->i", rest, rest)
        columns = (block[:, 0].copy(), tail)
    return ShiftStatistics(family=family, columns=columns)


def _direct_statistics(family: SmoothingFamily, n: int, g: np.random.Generator) -> ShiftStatistics:
    """n rows of ``ShiftStatistics`` of an l1/l2 family, drawn from their exact law.

    A row is z = rho * w with rho the family's radius law and w an
    independent direction, so (z1, tail) need only rho and the first
    coordinate of w against the rest. Each variate is one size-n call,
    in this order:

    * l2 ray: R^2 = 2 sigma^2 Gamma((d-k)/2), g1 ~ N(0, 1),
      S = 2 Gamma((d-1)/2) (that is ||g_{2:}||^2 of a normal g, so
      u = g / ||g|| gives u1^2 = g1^2 / (g1^2 + S)); then
      z1 = g1 sqrt(R^2 / (g1^2 + S)) and tail = R^2 S / (g1^2 + S);
    * l1 ray: rho = b Gamma(d-k), E1 ~ Exp(1), G = Gamma(d-1),
      sign = +-1 (E1 / (E1 + G) is the first Dirichlet(1, ..., 1)
      weight); then z1 = sign rho E1 / (E1 + G) and
      tail = rho G / (E1 + G).

    At d = 1 the shape-0 gamma is exactly 0 and draws nothing, so the
    tail is 0. Costs O(n) whatever d is.
    """
    d, k = family.dim, family.k
    if _RAY[family.variant] == "L1Boundary":
        rho = _nonzero_radius(g.gamma(d - k, family.b, size=n), family.variant, d, k)
        e1 = g.standard_exponential(n)
        rest = g.gamma(d - 1.0, 1.0, size=n)
        sign = 2.0 * g.integers(0, 2, size=n) - 1.0
        total = e1 + rest
        columns = (sign * rho * e1 / total, rho * rest / total)
    else:
        r2 = 2.0 * family.sigma**2 * _nonzero_radius(
            g.gamma((d - k) / 2.0, 1.0, size=n), family.variant, d, k)
        g1 = g.standard_normal(n)
        rest = 2.0 * g.gamma((d - 1.0) / 2.0, 1.0, size=n)
        total = g1 * g1 + rest
        columns = (g1 * np.sqrt(r2 / total), r2 * rest / total)
    return ShiftStatistics(family=family, columns=columns)


def _ray_norm(stats: ShiftStatistics, r: float) -> np.ndarray:
    """The power-term norm of z - r * direction (squared on the l2 rays).

    Each is a sum or a maximum of nonnegative terms, so nothing cancels
    near the shift point.
    """
    if stats.ray == "LinfVertex":
        _, hi, lo = stats.columns
        return np.maximum(hi - r, r - lo)
    t, tail = stats.columns
    if stats.ray == "L1Boundary":
        return np.abs(t - r) + tail
    return (t - r) ** 2 + tail


def log_ratio(stats: ShiftStatistics, r: float) -> np.ndarray:
    """log pi_delta / pi_0 per row at delta = r * direction, in O(1) per row.

    The shift-free terms go through the same expressions at r = 0, so
    r = 0 gives exactly 0. Exponents:

    * l2 axis: (2 r z1 - r^2) / (2 sigma^2), the dot-product form;
    * l1 axis: (|z1| - |z1 - r|) / b;
    * vertex, mixed_norm: (2 r sum z - d r^2) / (2 sigma^2);
    * vertex, linf_pure: (m0 - mr)(m0 + mr) / (2 sigma^2), with
      mr = ||z - r 1||_inf.

    A power term adds -k (log ||z - delta|| - log ||z||) in the
    family's power norm.
    """
    family = stats.family
    if stats.ray == "LinfVertex":
        if family.variant == "mixed_norm":
            s = stats.columns[0]
            out = (2.0 * (s * r) - family.dim * (r * r)) / (2.0 * family.sigma**2)
        else:
            shifted, base = _ray_norm(stats, r), _ray_norm(stats, 0.0)
            out = (base - shifted) * (base + shifted) / (2.0 * family.sigma**2)
        power = family.k
    elif stats.ray == "L1Boundary":
        t = stats.columns[0]
        out = (np.abs(t - 0.0) - np.abs(t - r)) / family.b
        power = family.k
    else:
        t = stats.columns[0]
        out = (2.0 * (t * r) - r * r) / (2.0 * family.sigma**2)
        power = 0.5 * family.k  # the l2 ray norm is squared
    if family.has_power_term:
        with np.errstate(divide="ignore"):
            out = out - power * (np.log(_ray_norm(stats, r)) - np.log(_ray_norm(stats, 0.0)))
    return out


# ---------------------------------------------------------------------------
# Hoeffding interval


def hoeffding_epsilon(n: int, lam: float, alpha: float) -> float:
    """One-sided Hoeffding half-width for a mean of [0, lambda] terms.

    Inverts the concentration bound exp(-2 n eps^2 / lambda^2) = alpha,
    giving eps = lambda * sqrt(ln(1/alpha) / (2 n)).
    """
    if n < 1:
        raise DomainError(f"hoeffding_epsilon requires n >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"hoeffding_epsilon requires 0 < alpha < 1, got {alpha}")
    if not lam >= 0.0:
        raise DomainError(f"hoeffding_epsilon requires lambda >= 0, got {lam}")
    return lam * math.sqrt(math.log(1.0 / alpha) / (2.0 * n))


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def noise_statistics(family: SmoothingFamily, n: int, rng: RandomStream) -> ShiftStatistics:
    """``ShiftStatistics`` of n pi_0 draws of ``family`` from stream ``rng.child(0)``.

    The statistics belong to the family: one draw serves every threat
    norm it supports. For the l1/l2 families (the e1 axis rays) they
    are drawn directly from their exact joint law
    (``_direct_statistics``), in O(n) with no n x d rows. For mixed_norm
    and linf_pure (``LinfVertex``) full rows come in ``sample_chunks``
    blocks, each reduced as it is drawn, so no n x d array outlives its
    block. Either way the result depends only on (family, n, rng).
    """
    if n < 1:
        raise DomainError(f"noise_statistics requires n >= 1, got {n}")
    if _RAY[family.variant] != "LinfVertex":
        return _direct_statistics(family, n, rng.child(0).generator())
    reduced = [shift_statistics(family, block) for block in sample_chunks(family, n, rng.child(0))]
    columns = tuple(np.concatenate(c) for c in zip(*(s.columns for s in reduced)))
    return ShiftStatistics(family=family, columns=columns)


def _estimate(ratios: np.ndarray, lam: float, alpha: float) -> DiscrepancyEstimate:
    """Mean and standard error of (lambda - ratio)_+ over the ratios."""
    n = ratios.size
    vals = np.subtract(lam, ratios)
    np.maximum(vals, 0.0, out=vals)
    mean = float(vals.sum()) / n
    np.multiply(vals, vals, out=vals)
    var = max(0.0, float(vals.sum()) / n - mean * mean)
    return DiscrepancyEstimate(
        mean=min(mean, lam),
        epsilon=hoeffding_epsilon(n, lam, alpha),
        lam=lam,
        std_error=math.sqrt(var / n),
    )


def discrepancy_mc(
    family: SmoothingFamily,
    delta: np.ndarray,
    lam: float,
    n: int,
    alpha: float,
    rng: RandomStream,
) -> DiscrepancyEstimate:
    """Monte Carlo estimate of D(lambda) at a shift on the family's worst-shift ray.

    ``delta`` must be r * e1 (l1/l2 families) or r * (1, ..., 1)
    (mixed_norm, linf_pure). As for a certificate, the ratios are the
    ``log_ratio`` at r of the ``noise_statistics`` of n draws from
    ``rng``; the summands (lambda - ratio)_+ lie in [0, lambda], so the
    one-sided Hoeffding half-width covers the true D at level 1 - alpha.
    """
    if n < 1:
        raise DomainError(f"discrepancy_mc requires n >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"discrepancy_mc requires 0 < alpha < 1, got {alpha}")
    if not lam >= 0.0:
        raise DomainError(f"discrepancy_mc requires lambda >= 0, got {lam}")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (family.dim,):
        raise DomainError(f"delta must have length {family.dim}, got shape {delta.shape}")
    ray = _RAY[family.variant]
    direction = np.ones(family.dim) if ray == "LinfVertex" else np.eye(1, family.dim)[0]
    if not np.array_equal(delta, delta[0] * direction):
        raise DomainError(f"delta must be r times the {ray} direction of {family.variant!r}")
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratio(noise_statistics(family, n, rng), float(delta[0])))
    return _estimate(ratios, lam, alpha)


# ---------------------------------------------------------------------------
# closed-form oracles


def discrepancy_gaussian_closed_form(sigma: float, shift_norm: float, lam: float) -> float:
    """Exact D for isotropic Gaussian smoothing at shift norm ||delta||_2.

    D = lambda * Phi(s/2sigma + sigma ln(lambda)/s) - Phi(-s/2sigma + sigma ln(lambda)/s)
    with s = ||delta||_2; the s -> 0 limit is (lambda - 1)_+.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not shift_norm >= 0.0:
        raise DomainError(f"shift norm must be >= 0, got {shift_norm}")
    if not lam >= 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        return 0.0
    if shift_norm == 0.0:
        return max(lam - 1.0, 0.0)
    mid = sigma * math.log(lam) / shift_norm
    half = shift_norm / (2.0 * sigma)
    if math.isnan(mid) or math.isnan(half):  # inf * 0 or inf / inf
        raise DomainError(f"D is undefined at sigma={sigma}, shift norm={shift_norm}, lambda={lam}")
    return lam * float(ndtr(half + mid)) - float(ndtr(mid - half))


def discrepancy_laplace_closed_form(b: float, r: float, lam: float) -> float:
    """Exact D for Laplacian smoothing at the worst shift [r, 0, ..., 0].

    Only the shifted coordinate contributes, so this is the 1-D
    piecewise integral split at a = -(b ln(lambda) + r)/2:

    * b ln(lambda) >= r: the positive part covers everything, D = lambda - 1;
    * b ln(lambda) <= -r: the positive part is empty, D = 0;
    * otherwise D = lambda (1 - e^{a/b}/2) - e^{-(a+r)/b}/2.
    """
    if not b > 0.0:
        raise DomainError(f"b must be > 0, got {b}")
    if not r >= 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    if not lam >= 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        return 0.0
    t = b * math.log(lam)
    if t >= r:
        return lam - 1.0
    if t <= -r:
        return 0.0
    a = -0.5 * (t + r)
    return lam * (1.0 - 0.5 * math.exp(a / b)) - 0.5 * math.exp(-(a + r) / b)


# ---------------------------------------------------------------------------
# quadrature oracle (d <= 3)


@dataclass(frozen=True)
class QuadratureGrid:
    """Resolution of the d = 2 polar grid of the direct-integration oracle.

    The defaults keep the d = 2 oracle within ~2e-6 of closed forms, 50x
    inside the 1e-4 contract.
    """

    n_radial: int = 768
    n_angular: int = 1280

    def __post_init__(self) -> None:
        if min(self.n_radial, self.n_angular) < 8:
            raise DomainError("quadrature grid is too coarse to be meaningful")


# Cartesian midpoint nodes per axis at d = 3 (d = 1 takes 20,000)
_N_AXIS = 224


def _extent(family: SmoothingFamily) -> float:
    """Half-width L of the covered region (radius of the polar disc at d = 2).

    Truncation error is bounded by lambda * pi_0(||z|| > L), which this
    pushes below 1e-9: Gaussian tails die by 8 sigma; Laplacian radial
    tails need ~30 scale units.
    """
    if family.variant in ("laplacian", "l1_power_tail"):
        return 30.0 * family.b
    if family.variant == "linf_pure" and family.dim == 2:
        # polar radius must reach the cube corners at ||z||_inf ~ 8 sigma
        return 8.0 * family.sigma * math.sqrt(2.0)
    return 8.0 * family.sigma


def _quadrature_polar_2d(
    family: SmoothingFamily,
    deltas: Sequence[np.ndarray],
    lams: Sequence[float],
    grid: QuadratureGrid,
) -> np.ndarray:
    """D at every (shift, lambda) pair on one polar grid.

    Returns values[i, j] for deltas[i] and lams[j]. The base kernel is
    computed once and each shifted kernel once per shift, and every
    pair goes through the same arithmetic as a table of one.
    """
    radius = _extent(family)
    # Quadratically graded radial mesh r = R u^2: the Jacobian turns the
    # r^(1-k) origin singularity of the area integrand into the smooth
    # factor u^(3-2k), so the midpoint rule keeps its full order.
    u = (np.arange(grid.n_radial) + 0.5) / grid.n_radial
    r = radius * u * u
    r_weight = r * (2.0 * radius * u / grid.n_radial)  # r * dr/du * du
    theta = (np.arange(grid.n_angular) + 0.5) * (2.0 * math.pi / grid.n_angular)
    z1 = np.outer(r, np.cos(theta))
    z2 = np.outer(r, np.sin(theta))
    pts = np.stack([z1, z2], axis=-1).reshape(-1, 2)
    weight = np.repeat(r_weight, grid.n_angular)
    with np.errstate(over="ignore", divide="ignore"):
        base = np.exp(_log_kernel_batch(family, pts))
    denom = float((base * weight).sum())
    values = np.empty((len(deltas), len(lams)))
    for i, delta in enumerate(deltas):
        with np.errstate(over="ignore", divide="ignore"):
            shifted = np.exp(_log_kernel_batch(family, pts - delta))
        for j, lam in enumerate(lams):
            with np.errstate(over="ignore", divide="ignore"):
                pos = lam * base - shifted
            np.maximum(pos, 0.0, out=pos)
            values[i, j] = float((pos * weight).sum()) / denom
    return values


def _quadrature_cartesian(family: SmoothingFamily, delta: np.ndarray, lam: float) -> float:
    d = family.dim
    half = _extent(family)
    n = _N_AXIS if d == 3 else 20_000
    axis = -half + (np.arange(n) + 0.5) * (2.0 * half / n)
    numer = 0.0
    denom = 0.0
    if d == 1:
        pts = axis[:, None]
        with np.errstate(over="ignore", divide="ignore"):
            base = np.exp(_log_kernel_batch(family, pts))
            pos = lam * base - np.exp(_log_kernel_batch(family, pts - delta))
        np.maximum(pos, 0.0, out=pos)
        return float(pos.sum()) / float(base.sum())
    # d == 3: accumulate over slabs of the first axis to bound memory
    y, x = np.meshgrid(axis, axis, indexing="ij")
    plane = np.stack([y.ravel(), x.ravel()], axis=-1)
    for z0 in axis:
        pts = np.concatenate([np.full((plane.shape[0], 1), z0), plane], axis=1)
        with np.errstate(over="ignore", divide="ignore"):
            base = np.exp(_log_kernel_batch(family, pts))
            pos = lam * base - np.exp(_log_kernel_batch(family, pts - delta))
        np.maximum(pos, 0.0, out=pos)
        numer += float(pos.sum())
        denom += float(base.sum())
    return numer / denom


def discrepancy_quadrature(
    family: SmoothingFamily,
    delta: np.ndarray,
    lam: float,
    grid: QuadratureGrid | None = None,
) -> float:
    """Direct integration of the positive part at d <= 3.

    The density is normalized numerically on the same grid, so the
    result is a pure ratio of midpoint sums. At d = 2 the integral is
    taken in polar coordinates on ``grid``, which turns the r^-k origin
    singularity into an integrable r^(1-k) factor; elsewhere a Cartesian
    midpoint rule is used (cell centers never hit the origin exactly).
    """
    _check_quadrature_args(family, lam)
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (family.dim,):
        raise DomainError(f"delta must have length {family.dim}, got shape {delta.shape}")
    if grid is None:
        grid = QuadratureGrid()
    if lam == 0.0:
        return 0.0
    if family.dim == 2:
        return float(_quadrature_polar_2d(family, [delta], [lam], grid)[0, 0])
    return _quadrature_cartesian(family, delta, lam)


def _check_quadrature_args(family: SmoothingFamily, lam: float) -> None:
    if family.dim > 3:
        raise UnsupportedError(f"quadrature oracle supports d <= 3, got d={family.dim}")
    if family.has_power_term and family.k >= family.dim:
        raise DomainError(f"radial grid requires k < d, got k={family.k} at d={family.dim}")
    if not lam >= 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")


# ---------------------------------------------------------------------------
# dual bound


def dual_lower_bound(
    p0_lower: float,
    threat: ThreatModel,
    alpha_mc: float,
    stats: ShiftStatistics,
) -> DualBoundResult:
    """Maximize lambda * p0 - (D_hat(lambda) + lambda * eps) over all lambda >= 0.

    ``stats`` are the ``noise_statistics`` of n draws of ``stats.family``,
    read at the worst shift of ``threat`` on the family's ray; the
    bound is a function of them and draws nothing. A threat with no
    worst-shift theorem for the family raises ``UnsupportedError``.
    With R = pi_delta / pi_0, D(lambda) = E (lambda - R)_+ is the
    integral of the CDF of R from 0 to lambda. The one-sided DKW
    inequality (Massart 1990) bounds that CDF above by the empirical
    CDF plus eps = sqrt(ln(1/alpha_mc) / 2n) at every point at once
    with probability >= 1 - alpha_mc, valid for alpha_mc <= 1/2.
    Integrating, D(lambda) <= D_hat(lambda) +
    lambda * eps for every lambda simultaneously, so the returned value
    is a valid lower bound on the worst-case smoothed value at any
    lambda, however it was chosen from the data (conditional on
    p0_lower being valid). The band does not depend on p0_lower, so
    at one threat one draw serves any number of p0_lower values (the
    inputs of a run) on one event of probability >= 1 - alpha_mc.

    The empirical objective lambda * (p0 - eps) - D_hat(lambda) is
    concave and piecewise linear with slope p0 - eps - F_hat(lambda),
    so its smallest maximizer is the j-th smallest ratio,
    j = ceil(n (p0 - eps)); if p0 <= eps the bound is 0 at lambda = 0.
    Cost: O(n) ratios and one O(n) selection.
    """
    if not 0.0 < p0_lower <= 1.0:
        raise DomainError(f"p0_lower must be in (0, 1], got {p0_lower}")
    if not 0.0 < alpha_mc <= 0.5:
        raise DomainError(f"alpha_mc must be in (0, 1/2] for the DKW band, got {alpha_mc}")
    wd = worst_delta(threat, stats.family)
    n = stats.n
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratio(stats, wd.step))
    slope = p0_lower - hoeffding_epsilon(n, 1.0, alpha_mc)
    lam = 0.0
    if slope > 0.0:
        j = math.ceil(n * slope)
        lam = float(np.partition(ratios, j - 1)[j - 1])
    est = _estimate(ratios, lam, alpha_mc)
    bound = lam * p0_lower - est.upper
    return DualBoundResult(
        bound=bound,
        lambda_star=lam,
        d_mean=est.mean,
        epsilon=est.epsilon,
        std_error=est.std_error,
        trace=(TracePoint(lam=lam, d_mean=est.mean, epsilon=est.epsilon, bound=bound),),
    )
