"""Batch experiments that check the engine against the theory it encodes.

Four report generators live here: the accuracy/robustness Pareto sweep
over smoothing-parameter grids, the analytic radius mean/variance
curves, thin-shell concentration measurements, and the quadrature
verification that the worst shift really sits where the boundary and
vertex theorems put it. Each report is deterministic under a fixed
seed and carries its configuration when exported.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .classifiers import Classifier, evaluate
from .discrepancy import (
    DualBoundResult,
    QuadratureGrid,
    ThreatModel,
    _check_quadrature_args,
    _quadrature_polar_2d,
    discrepancy_gaussian_closed_form,
    discrepancy_mc,
    discrepancy_quadrature,
    dual_lower_bound,
    log_ratio,
    noise_statistics,
    shift_statistics,
    worst_delta,
)
from .errors import DomainError
from .families import SmoothingFamily, radius_stats, sample_chunks
from .rng import RandomStream

# ---------------------------------------------------------------------------
# Pareto sweep


@dataclass(frozen=True)
class FamilyGrid:
    """One family variant with the (k, scale) grid to sweep."""

    variant: str
    k_values: tuple[float, ...]
    scale_values: tuple[float, ...]


@dataclass(frozen=True)
class ParetoPoint:
    """One (variant, k, scale) point of a sweep, with Monte Carlo SEs.

    The points of one (variant, k) group share their draws, so their
    estimates are positively correlated; each SE is that of its own
    point, as if drawn alone.
    """

    variant: str
    k: float
    scale: float
    accuracy: float
    accuracy_se: float
    robustness: float
    robustness_se: float
    on_frontier: bool = False


def _make_family(variant: str, dim: int, k: float, scale: float) -> SmoothingFamily:
    scale_key = "b" if variant in ("laplacian", "l1_power_tail") else "sigma"
    return SmoothingFamily(variant, dim, k=k, **{scale_key: scale})


def sweep_groups(
    grids: list[FamilyGrid], dim: int
) -> list[tuple[SmoothingFamily, float, tuple[float, ...]]]:
    """The (unit-scale family, k, scales) groups of a sweep, one draw each.

    Builds the family of every (k, scale) point, so a bad grid raises
    here. gaussian and laplacian take no k, so each makes one group.
    """
    groups = []
    for grid in grids:
        for k in (grid.k_values if grid.variant not in ("gaussian", "laplacian") else (0.0,)):
            unit, *_ = [_make_family(grid.variant, dim, k, s) for s in (1.0, *grid.scale_values)]
            groups.append((unit, k, grid.scale_values))
    return groups


def _sweep_point(
    truth: Classifier,
    x0: np.ndarray,
    threat: ThreatModel,
    family: SmoothingFamily,
    scales: tuple[float, ...],
    n: int,
    rng: RandomStream,
) -> list[tuple[float, float, float, float]]:
    """(accuracy, acc_se, robustness, rob_se) per scale from one unit-scale batch.

    ``family`` has scale 1. Every family is a scale family: s times a
    unit draw is a draw at scale s, and pi_s(s z + s delta) / pi_s(s z)
    is the unit ratio at (z, delta). So one block of unit draws, reduced
    once to its shift statistics, serves each scale s, with the truth
    evaluated at x0 + s z and the ratio at shift step / s. Robustness is
    the discrepancy at lambda = 1 (the total-variation slice of the
    trade-off) evaluated at the worst shift.
    """
    wd = worst_delta(threat, family)
    sums = np.zeros((len(scales), 3))  # hits, sum and sum of squares of robustness terms
    with np.errstate(over="ignore", divide="ignore"):
        for block in sample_chunks(family, n, rng):
            stats = shift_statistics(family, block)
            for row, s in zip(sums, scales):
                vals = 1.0 - np.exp(log_ratio(stats, wd.step / s))
                np.maximum(vals, 0.0, out=vals)
                row += (evaluate(truth, x0 + s * block).sum(), vals.sum(), (vals * vals).sum())
    out = []
    for acc, rob, rob_sq in sums / n:
        rob_var = max(0.0, rob_sq - rob * rob)
        out.append((float(acc), math.sqrt(acc * (1.0 - acc) / n), float(rob), math.sqrt(rob_var / n)))
    return out


def _guarded_dominates(q: ParetoPoint, p: ParetoPoint) -> bool:
    """Weak dominance with a 2-combined-SE noise guard band.

    The hypot combination assumes independent points. Two points of one
    (variant, k) group share draws and are positively correlated, so
    their difference varies less and the guard is conservative there;
    across groups it is exact.
    """
    g_acc = 2.0 * math.hypot(q.accuracy_se, p.accuracy_se)
    g_rob = 2.0 * math.hypot(q.robustness_se, p.robustness_se)
    at_least_as_good = (
        q.accuracy >= p.accuracy - g_acc and q.robustness <= p.robustness + g_rob
    )
    clearly_better = (
        q.accuracy >= p.accuracy + g_acc or q.robustness <= p.robustness - g_rob
    )
    return at_least_as_good and clearly_better


def pareto_sweep(
    truth: Classifier,
    x0: np.ndarray,
    threat: ThreatModel,
    grids: list[FamilyGrid],
    dim: int,
    n: int,
    rng: RandomStream,
    workers: int = 1,
) -> list[ParetoPoint]:
    """Accuracy/robustness sweep over smoothing-parameter grids.

    Accuracy is the Monte Carlo estimate of the smoothed truth value at
    x0; robustness is the lambda = 1 discrepancy at the worst shift.
    Frontier flags mark points not (guardedly) dominated by another
    point of the same family. Each (variant, k) group draws n unit-scale
    rows once, on its own child stream, and serves all its scales from
    them (``_sweep_point``): its points are positively correlated, each
    with the SE it would have alone. Groups run on disjoint streams, so
    the result is independent of worker scheduling.
    """
    x0 = np.asarray(x0, dtype=float)
    # every family and worst shift is built here, so a bad grid or threat
    # fails before any draw or thread
    groups = sweep_groups(grids, dim)
    for family, _, _ in groups:
        worst_delta(threat, family)

    def one(index: int) -> list[ParetoPoint]:
        family, k, scales = groups[index]
        estimates = _sweep_point(truth, x0, threat, family, scales, n, rng.child(index))
        return [ParetoPoint(family.variant, k, s, *e) for s, e in zip(scales, estimates)]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            raw = [p for points in pool.map(one, range(len(groups))) for p in points]
    else:
        raw = [p for index in range(len(groups)) for p in one(index)]
    out: list[ParetoPoint] = []
    for p in raw:
        dominated = any(
            q is not p and q.variant == p.variant and _guarded_dominates(q, p)
            for q in raw
        )
        out.append(replace(p, on_frontier=not dominated))
    return out


def frontier_points(points: list[ParetoPoint], variant: str) -> list[ParetoPoint]:
    pts = [p for p in points if p.variant == variant and p.on_frontier]
    return sorted(pts, key=lambda p: p.robustness)


def frontier_weakly_dominates(
    points: list[ParetoPoint], variant_a: str, variant_b: str
) -> tuple[bool, float]:
    """Does variant_a's frontier at least match variant_b's over the
    shared robustness range, up to the 2-SE guard band?

    Compares best-accuracy-at-robustness-budget step functions at every
    budget where either frontier changes. Returns the verdict and the
    worst margin (min over budgets of acc_a - acc_b + guard; >= 0 iff
    dominated). The guard treats the two points as independent, which
    holds across (variant, k) groups; two variants never share a group.
    """
    fa, fb = frontier_points(points, variant_a), frontier_points(points, variant_b)
    if not fa or not fb:
        raise DomainError(f"no frontier points for {variant_a!r} or {variant_b!r}")
    lo = max(fa[0].robustness, fb[0].robustness)
    hi = min(fa[-1].robustness, fb[-1].robustness)
    if hi < lo:
        return True, math.inf  # disjoint ranges: nothing to compare
    budgets = sorted(
        {p.robustness for p in fa + fb if lo <= p.robustness <= hi} | {lo, hi}
    )
    worst = math.inf
    for x in budgets:
        best_a = max((p for p in fa if p.robustness <= x), key=lambda p: p.accuracy, default=None)
        best_b = max((p for p in fb if p.robustness <= x), key=lambda p: p.accuracy, default=None)
        if best_b is None:
            continue
        if best_a is None:
            return False, -math.inf
        guard = 2.0 * math.hypot(best_a.accuracy_se, best_b.accuracy_se)
        worst = min(worst, best_a.accuracy - best_b.accuracy + guard)
    return worst >= 0.0, worst


@dataclass(frozen=True)
class FamilyBest:
    """A family's best dual bound over its grid, with the point it came from."""

    result: DualBoundResult
    point: ParetoPoint

    @property
    def bound(self) -> float:
        return self.result.bound

    @property
    def std_error(self) -> float:
        """Monte Carlo standard error of the bound at the chosen lambda.

        Combines the accuracy term (lambda* times the accuracy SE) with
        the SE of the estimated discrepancy at lambda*; the Hoeffding
        epsilon is deterministic and adds none.
        """
        return math.hypot(
            self.result.lambda_star * self.point.accuracy_se, self.result.std_error
        )


def bound_margin(a: FamilyBest, b: FamilyBest) -> tuple[float, float]:
    """(a.bound - b.bound, guard) with the 2-combined-SE guard band.

    a weakly dominates b when margin + guard >= 0 (the notion of
    ``frontier_weakly_dominates``) and beats it beyond the noise when
    margin - guard > 0.
    """
    return a.bound - b.bound, 2.0 * math.hypot(a.std_error, b.std_error)


def best_bound_by_family(
    truth: Classifier,
    x0: np.ndarray,
    threat: ThreatModel,
    grids: list[FamilyGrid],
    dim: int,
    n: int,
    rng: RandomStream,
    alpha: float = 1e-3,
) -> dict[str, FamilyBest]:
    """Best achievable dual bound per family over its parameter grid.

    A diagnostic companion to the lambda = 1 Pareto view: for each
    configuration the smoothed accuracy (plain MC, no confidence
    haircut) feeds the dual maximization, and the family's score is the
    best bound across its grid. At d = 5, linf r = 0.1 on the 3 x 3 grid
    (k in {0, 1, 2}, sigma in {0.1, 0.17, 0.3}) against the r = 0.65
    l2-ball truth, mixed_norm matches l2_power_tail within the 2-SE
    guard of ``bound_margin`` and both beat linf_pure beyond it, at
    n = 30k. The lambda = 1 slice orders the families differently: at
    equal (k, sigma) mixed_norm and l2_power_tail share one l2 radius
    law, hence one accuracy, and mixed_norm has the larger vertex total
    variation.
    """
    x0 = np.asarray(x0, dtype=float)
    best: dict[str, FamilyBest] = {}
    tag = 0
    for unit, k, scales in sweep_groups(grids, dim):
        for scale in scales:
            family = _make_family(unit.variant, dim, k, scale)
            [estimate] = _sweep_point(truth, x0, threat, unit, (scale,), n, rng.child(tag))
            tag += 1
            point = ParetoPoint(unit.variant, k, scale, *estimate)
            if point.accuracy <= 0.0:
                continue
            stats = noise_statistics(family, n, rng.child(tag))
            result = dual_lower_bound(min(point.accuracy, 1.0), threat, alpha, stats)
            tag += 1
            if point.variant not in best or result.bound > best[point.variant].bound:
                best[point.variant] = FamilyBest(result, point)
    return best


# ---------------------------------------------------------------------------
# radius mean/variance curves


@dataclass(frozen=True)
class CurvePoint:
    curve: str  # "sigma" or "k"
    parameter: float
    mean: float
    variance: float


def mean_variance_curve(
    dim: int = 100,
    sigma_values: tuple[float, ...] | None = None,
    k_values: tuple[float, ...] | None = None,
) -> list[CurvePoint]:
    """Analytic radius mean/variance for the two l2 tuning strategies.

    The sigma curve varies the scale at k = 0; the k curve varies the
    tail exponent at sigma = 1. Moments come from the closed forms, so
    the curves carry no Monte Carlo noise.
    """
    if sigma_values is None:
        sigma_values = tuple(np.geomspace(0.1, 1.0, 25))
    if k_values is None:
        k_values = tuple(np.linspace(0.0, min(80.0, dim - 2.0), 33))
    rows: list[CurvePoint] = []
    for sigma in sigma_values:
        stats = radius_stats(SmoothingFamily.l2_power_tail(dim, 0.0, float(sigma)))
        rows.append(CurvePoint("sigma", float(sigma), stats.mean, stats.variance))
    for k in k_values:
        stats = radius_stats(SmoothingFamily.l2_power_tail(dim, float(k), 1.0))
        rows.append(CurvePoint("k", float(k), stats.mean, stats.variance))
    return rows


def matched_mean_variance_ratios(dim: int = 100, reduction: float = 0.5) -> tuple[float, float, float]:
    """Variance ratios of the two strategies at a matched mean reduction.

    Returns (k_star, variance ratio along the k curve, variance ratio
    along the sigma curve). The sigma curve is a scale family, so its
    ratio is exactly reduction^2; k_star is the root of the continuous
    mean formula, found by Brent's method.
    """
    if not 0.0 < reduction < 1.0:
        raise DomainError(f"reduction must be in (0, 1), got {reduction}")
    base = radius_stats(SmoothingFamily.l2_power_tail(dim, 0.0, 1.0))
    target = reduction * base.mean

    def mean_at(k: float) -> float:
        return radius_stats(SmoothingFamily.l2_power_tail(dim, k, 1.0)).mean

    hi = dim - 1.0 - 1e-9
    if mean_at(hi) > target:
        raise DomainError(f"mean reduction {reduction} unreachable at d={dim}")
    k_star = brentq(lambda k: mean_at(k) - target, 0.0, hi)
    var_k = radius_stats(SmoothingFamily.l2_power_tail(dim, k_star, 1.0)).variance
    return k_star, var_k / base.variance, reduction * reduction


# ---------------------------------------------------------------------------
# thin-shell concentration


@dataclass(frozen=True)
class ThinShellRow:
    dim: int
    gauss_fraction: float
    gauss_fraction_relative: float
    laplace_fraction: float
    laplace_fraction_relative: float


def thin_shell_report(
    dims: tuple[int, ...],
    n: int,
    rng: RandomStream,
    chebyshev_delta: float = 0.05,
    relative_band: float = 0.1,
) -> list[ThinShellRow]:
    """Empirical norm concentration for unit Gaussian and Laplacian noise.

    Per dimension: the fraction of ||z||_2 inside sqrt(d) +- 4
    (concentration proposition with the constant absorbed) and of
    ||z||_1 / d inside 1 +- 1/sqrt(d * delta) (Chebyshev bound). The
    additional +-10% relative-band columns expose the absence of
    concentration at low d, where the absolute intervals are so wide
    they trivially contain everything.
    """
    if n < 1:
        raise DomainError(f"thin_shell_report requires n >= 1, got {n}")
    rows: list[ThinShellRow] = []
    for tag, d in enumerate(dims):
        gauss = SmoothingFamily.gaussian(d, 1.0)
        laplace = SmoothingFamily.laplacian(d, 1.0)
        target = math.sqrt(d)
        g_hits = g_rel_hits = 0
        for block in sample_chunks(gauss, n, rng.child(2 * tag)):
            norms = np.linalg.norm(block, axis=1)
            g_hits += int(((norms >= target - 4.0) & (norms <= target + 4.0)).sum())
            g_rel_hits += int(
                (
                    (norms >= target * (1.0 - relative_band))
                    & (norms <= target * (1.0 + relative_band))
                ).sum()
            )
        width = 1.0 / math.sqrt(d * chebyshev_delta)
        l_hits = l_rel_hits = 0
        for block in sample_chunks(laplace, n, rng.child(2 * tag + 1)):
            means = np.abs(block).sum(axis=1) / d
            l_hits += int(((means >= 1.0 - width) & (means <= 1.0 + width)).sum())
            l_rel_hits += int(
                ((means >= 1.0 - relative_band) & (means <= 1.0 + relative_band)).sum()
            )
        rows.append(
            ThinShellRow(
                dim=d,
                gauss_fraction=g_hits / n,
                gauss_fraction_relative=g_rel_hits / n,
                laplace_fraction=l_hits / n,
                laplace_fraction_relative=l_rel_hits / n,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# worst-shift verification on the d=2 quadrature oracle


@dataclass(frozen=True)
class WorstDeltaCheck:
    lam: float
    star_value: float
    max_value: float
    argmax: tuple[float, float]
    interior_max: float
    boundary_spread: float
    tolerance: float
    passed: bool

    @property
    def interior_margin(self) -> float:
        return self.star_value - self.interior_max


def _delta_grid(threat: ThreatModel, boundary_points: int, interior_grid: int) -> tuple[list[np.ndarray], list[bool]]:
    """Probe shifts covering the threat set; flags mark boundary points."""
    r = threat.radius
    deltas: list[np.ndarray] = []
    on_boundary: list[bool] = []
    if threat.norm == "l2":
        angles = np.linspace(0.0, 2.0 * math.pi, boundary_points, endpoint=False)
        for phi in angles:
            deltas.append(r * np.array([math.cos(phi), math.sin(phi)]))
            on_boundary.append(True)
        for frac in np.linspace(0.25, 0.75, interior_grid):
            for phi in angles[:: max(1, boundary_points // 8)]:
                deltas.append(frac * r * np.array([math.cos(phi), math.sin(phi)]))
                on_boundary.append(False)
    elif threat.norm == "l1":
        ts = np.linspace(0.0, 1.0, max(2, boundary_points // 4))
        for t in ts:
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                deltas.append(np.array([sx * t * r, sy * (1.0 - t) * r]))
                on_boundary.append(True)
        for frac in np.linspace(0.25, 0.75, interior_grid):
            for t in ts[:: max(1, len(ts) // 3)]:
                deltas.append(frac * np.array([t * r, (1.0 - t) * r]))
                on_boundary.append(False)
    else:  # linf: full cube grid, corners are the boundary extreme points
        side = np.linspace(-r, r, interior_grid)
        for dx in side:
            for dy in side:
                deltas.append(np.array([dx, dy]))
                on_boundary.append(abs(abs(dx) - r) < 1e-12 and abs(abs(dy) - r) < 1e-12)
    return deltas, on_boundary


def worst_delta_grid_check(
    family: SmoothingFamily,
    threat: ThreatModel,
    lambdas: tuple[float, ...],
    quad_grid: QuadratureGrid | None = None,
    boundary_points: int = 16,
    interior_grid: int = 3,
    tolerance: float = 1e-4,
) -> list[WorstDeltaCheck]:
    """Verify by quadrature that D is maximized at the theorem's shift.

    Evaluates the d = 2 quadrature oracle over a grid of shifts
    covering the threat set (one kernel evaluation per shift, shared by
    every lambda) and asserts, per lambda, that the maximum
    is attained at delta* within the stated tolerance. Also reports the
    strict-interior maximum and, for rotationally symmetric cases, the
    spread across boundary directions.
    """
    if family.dim != 2:
        raise DomainError("worst_delta_grid_check runs on the d=2 quadrature oracle")
    star = worst_delta(threat, family).vector
    if threat.norm == "linf":
        probe_grid = interior_grid if interior_grid % 2 == 1 else interior_grid + 1
        probe_grid = max(probe_grid, 9)
    else:
        probe_grid = interior_grid
    deltas, on_boundary = _delta_grid(threat, boundary_points, probe_grid)
    for lam in lambdas:
        _check_quadrature_args(family, lam)
    table = _quadrature_polar_2d(
        family, [star, *deltas], lambdas, quad_grid if quad_grid is not None else QuadratureGrid()
    )
    checks: list[WorstDeltaCheck] = []
    for j, lam in enumerate(lambdas):
        star_value = float(table[0, j])
        values = [float(v) for v in table[1:, j]]
        best = int(np.argmax(values))
        interior = [v for v, b in zip(values, on_boundary) if not b]
        spread = max(
            (abs(v - star_value) for v, b in zip(values, on_boundary) if b),
            default=0.0,
        )
        if threat.norm != "l2":
            spread = 0.0  # directions are not equivalent off the l2 case
        checks.append(
            WorstDeltaCheck(
                lam=lam,
                star_value=star_value,
                max_value=float(values[best]),
                argmax=(float(deltas[best][0]), float(deltas[best][1])),
                interior_max=max(interior) if interior else -math.inf,
                boundary_spread=spread,
                tolerance=tolerance,
                passed=float(values[best]) <= star_value + tolerance,
            )
        )
    return checks


# ---------------------------------------------------------------------------
# closed-form vs Monte Carlo vs quadrature reconciliation


@dataclass(frozen=True)
class ReconciliationRow:
    sigma: float
    r: float
    lam: float
    closed: float
    mc_mean: float
    mc_epsilon: float
    mc_std_error: float
    quadrature: float
    mc_ok: bool
    quad_ok: bool
    pair_ok: bool


def gaussian_oracle_reconciliation(
    triples: list[tuple[float, float, float]],
    n: int,
    alpha: float,
    rng: RandomStream,
    quad_grid: QuadratureGrid | None = None,
    quad_tolerance: float = 1e-4,
) -> list[ReconciliationRow]:
    """Three-way agreement table for Gaussian D at d = 2.

    For each (sigma, r, lambda): the closed form, the Monte Carlo
    estimate (tolerance epsilon + 3 standard errors), and the
    quadrature oracle (tolerance ``quad_tolerance``); ``pair_ok``
    checks MC against quadrature under the combined tolerance.
    """
    rows: list[ReconciliationRow] = []
    for tag, (sigma, r, lam) in enumerate(triples):
        family = SmoothingFamily.gaussian(2, sigma)
        delta = np.array([r, 0.0])
        closed = discrepancy_gaussian_closed_form(sigma, r, lam)
        est = discrepancy_mc(family, delta, lam, n, alpha, rng.child(tag))
        quad = discrepancy_quadrature(family, delta, lam, quad_grid)
        mc_tol = est.epsilon + 3.0 * est.std_error
        rows.append(
            ReconciliationRow(
                sigma=sigma,
                r=r,
                lam=lam,
                closed=closed,
                mc_mean=est.mean,
                mc_epsilon=est.epsilon,
                mc_std_error=est.std_error,
                quadrature=quad,
                mc_ok=abs(est.mean - closed) <= mc_tol,
                quad_ok=abs(quad - closed) <= quad_tolerance,
                pair_ok=abs(est.mean - quad) <= mc_tol + quad_tolerance,
            )
        )
    return rows
