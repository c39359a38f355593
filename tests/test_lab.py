import math
from types import SimpleNamespace

import numpy as np
import pytest

from smoothcert import (
    BallIndicator,
    QuadratureGrid,
    RandomStream,
    SmoothingFamily,
    ThreatModel,
)
from smoothcert.lab import (
    FamilyBest,
    FamilyGrid,
    ParetoPoint,
    best_bound_by_family,
    bound_margin,
    frontier_weakly_dominates,
    gaussian_oracle_reconciliation,
    matched_mean_variance_ratios,
    mean_variance_curve,
    pareto_sweep,
    thin_shell_report,
    worst_delta_grid_check,
)

FAST_QUAD = QuadratureGrid(n_radial=256, n_angular=512)


class TestThinShell:
    def test_high_dimension_concentrates(self):
        rows = thin_shell_report((1000,), 100_000, RandomStream(1))
        row = rows[0]
        assert row.gauss_fraction >= 0.99
        assert row.laplace_fraction >= 0.95
        assert row.gauss_fraction_relative >= 0.99
        assert row.laplace_fraction_relative >= 0.99

    def test_low_dimension_does_not(self):
        rows = thin_shell_report((1,), 100_000, RandomStream(2))
        row = rows[0]
        assert row.gauss_fraction_relative < 0.5
        assert row.laplace_fraction_relative < 0.5
        # Chebyshev interval still honors its nominal level even at d=1
        assert row.laplace_fraction >= 0.95

    def test_monotone_relative_concentration(self):
        rows = thin_shell_report((1, 10, 100, 1000), 50_000, RandomStream(3))
        rel = [r.gauss_fraction_relative for r in rows]
        assert all(b >= a for a, b in zip(rel, rel[1:]))


class TestMeanVarianceCurve:
    def test_sigma_scale_family(self):
        rows = {
            c.parameter: c
            for c in mean_variance_curve(100, sigma_values=(0.5, 1.0), k_values=(0.0,))
            if c.curve == "sigma"
        }
        half, full = rows[0.5], rows[1.0]
        assert abs(half.mean - 0.5 * full.mean) <= 1e-12
        assert abs(half.variance - 0.25 * full.variance) <= 1e-12

    def test_k_curve_monotone_mean(self):
        rows = [c for c in mean_variance_curve(100) if c.curve == "k"]
        means = [c.mean for c in rows]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_frozen_base_mean(self):
        rows = [c for c in mean_variance_curve(100) if c.curve == "k" and c.parameter == 0.0]
        assert abs(rows[0].mean - 9.975031639550789) <= 1e-9

    def test_matched_ratio_favors_k(self):
        k_star, ratio_k, ratio_sigma = matched_mean_variance_ratios(100, 0.5)
        assert ratio_sigma == 0.25
        assert ratio_k > ratio_sigma
        assert 0.0 < k_star < 99.0
        # the located k really does halve the mean
        from smoothcert import radius_stats

        base = radius_stats(SmoothingFamily.l2_power_tail(100, 0.0, 1.0)).mean
        atk = radius_stats(SmoothingFamily.l2_power_tail(100, k_star, 1.0)).mean
        assert abs(atk - 0.5 * base) <= 1e-6


class TestWorstDeltaGridCheck:
    def test_l2_boundary(self):
        checks = worst_delta_grid_check(
            SmoothingFamily.l2_power_tail(2, 0.5, 1.0),
            ThreatModel("l2", 0.8),
            (1.0,),
            quad_grid=FAST_QUAD,
        )
        ch = checks[0]
        assert ch.passed
        assert ch.boundary_spread <= 1e-4  # spherical symmetry
        assert ch.interior_margin > 0.0

    def test_linf_vertex(self):
        checks = worst_delta_grid_check(
            SmoothingFamily.mixed_norm(2, 1.0, 1.0),
            ThreatModel("linf", 0.6),
            (1.0,),
            quad_grid=FAST_QUAD,
        )
        ch = checks[0]
        assert ch.passed
        assert abs(abs(ch.argmax[0]) - 0.6) <= 1e-12
        assert abs(abs(ch.argmax[1]) - 0.6) <= 1e-12
        assert ch.interior_margin > 0.0

    def test_l1_axis(self):
        checks = worst_delta_grid_check(
            SmoothingFamily.laplacian(2, 1.0),
            ThreatModel("l1", 0.8),
            (0.5, 2.0),
            quad_grid=FAST_QUAD,
        )
        for ch in checks:
            assert ch.passed
            assert ch.interior_margin > 0.0
            # argmax is an axis point (one coordinate ~0)
            assert min(abs(ch.argmax[0]), abs(ch.argmax[1])) <= 1e-12

    def test_table_matches_per_pair_quadrature(self):
        # the shared-kernel table must reproduce the per-pair oracle bit for bit
        from smoothcert.discrepancy import _quadrature_polar_2d, discrepancy_quadrature, worst_delta
        from smoothcert.lab import _delta_grid

        fam, threat = SmoothingFamily.l1_power_tail(2, 0.5, 1.0), ThreatModel("l1", 0.8)
        grid = QuadratureGrid(n_radial=64, n_angular=96)
        lams = (0.0, 0.5, 2.0)
        shifts = [worst_delta(threat, fam).vector, *_delta_grid(threat, 16, 3)[0]]
        table = _quadrature_polar_2d(fam, shifts, lams, grid)
        per_pair = [[discrepancy_quadrature(fam, dv, lam, grid) for lam in lams] for dv in shifts]
        assert table.tolist() == per_pair
        for j, ch in enumerate(worst_delta_grid_check(fam, threat, lams, quad_grid=grid)):
            assert ch.star_value == per_pair[0][j]
            assert ch.max_value == max(row[j] for row in per_pair[1:])

    def test_rejects_what_the_oracle_rejects(self):
        from smoothcert.errors import DomainError

        with pytest.raises(DomainError):
            worst_delta_grid_check(
                SmoothingFamily.l2_power_tail(2, 2.0, 1.0), ThreatModel("l2", 0.5), (1.0,)
            )
        with pytest.raises(DomainError):
            worst_delta_grid_check(
                SmoothingFamily.gaussian(2, 1.0), ThreatModel("l2", 0.5), (-1.0,)
            )

    def test_requires_d2(self):
        from smoothcert.errors import DomainError

        with pytest.raises(DomainError):
            worst_delta_grid_check(
                SmoothingFamily.gaussian(3, 1.0), ThreatModel("l2", 0.5), (1.0,)
            )


class TestReconciliation:
    def test_all_ok(self):
        rows = gaussian_oracle_reconciliation(
            [(1.0, 2.0, 1.0), (1.0, 0.5, 1.0), (0.5, 0.5, 2.0)],
            200_000,
            1e-3,
            RandomStream(4),
        )
        for row in rows:
            assert row.mc_ok and row.quad_ok and row.pair_ok
        tv = next(r for r in rows if r.r == 2.0)
        assert abs(tv.closed - 0.6826894921370859) <= 1e-12


class TestParetoSweep:
    def test_limiting_behaviors(self):
        d = 3
        truth = BallIndicator("l2", np.zeros(d), 0.65)
        threat = ThreatModel("linf", 0.65)
        grids = [FamilyGrid("l2_power_tail", (0.0,), (0.01, 100.0))]
        points = pareto_sweep(truth, np.zeros(d), threat, grids, d, 20_000, RandomStream(5))
        tiny = next(p for p in points if p.scale == 0.01)
        huge = next(p for p in points if p.scale == 100.0)
        # sigma -> 0: accuracy -> 1 and the shifted law separates (TV -> 1)
        assert tiny.accuracy >= 0.999 and tiny.robustness >= 0.999
        # sigma -> inf: accuracy -> 0 and the shift barely registers
        assert huge.accuracy <= 0.001 and huge.robustness <= 0.05

    def test_frontier_flags_consistent(self):
        d = 3
        truth = BallIndicator("l2", np.zeros(d), 0.65)
        threat = ThreatModel("linf", 0.3)
        grids = [
            FamilyGrid("mixed_norm", (0.0, 1.0), (0.3, 0.6, 1.2)),
            FamilyGrid("l2_power_tail", (0.0, 1.0), (0.3, 0.6, 1.2)),
        ]
        points = pareto_sweep(truth, np.zeros(d), threat, grids, d, 20_000, RandomStream(6))
        from smoothcert.lab import _guarded_dominates

        for p in points:
            if p.on_frontier:
                assert not any(
                    q is not p and q.variant == p.variant and _guarded_dominates(q, p)
                    for q in points
                )
        assert any(p.on_frontier for p in points)

    def test_robustness_in_unit_interval(self):
        d = 3
        truth = BallIndicator("l2", np.zeros(d), 0.65)
        points = pareto_sweep(
            truth, np.zeros(d), ThreatModel("linf", 0.4),
            [FamilyGrid("linf_pure", (0.5,), (0.5, 1.0))], d, 10_000, RandomStream(7),
        )
        for p in points:
            assert 0.0 <= p.accuracy <= 1.0
            assert 0.0 <= p.robustness <= 1.0


class TestFrontierComparison:
    @staticmethod
    def _pt(variant, rob, acc, se=1e-4):
        return ParetoPoint(variant, 0.0, 1.0, acc, se, rob, se, on_frontier=True)

    def test_dominance_detected(self):
        pts = [
            self._pt("a", 0.2, 0.5), self._pt("a", 0.5, 0.9),
            self._pt("b", 0.2, 0.3), self._pt("b", 0.5, 0.7),
        ]
        ok, margin = frontier_weakly_dominates(pts, "a", "b")
        assert ok and margin > 0.0

    def test_failure_detected(self):
        pts = [
            self._pt("a", 0.2, 0.3), self._pt("a", 0.5, 0.6),
            self._pt("b", 0.2, 0.5), self._pt("b", 0.5, 0.9),
        ]
        ok, margin = frontier_weakly_dominates(pts, "a", "b")
        assert not ok and margin < 0.0

    def test_ties_pass_with_guard(self):
        pts = [
            self._pt("a", 0.3, 0.500, se=0.01), self._pt("b", 0.3, 0.505, se=0.01),
        ]
        ok, _ = frontier_weakly_dominates(pts, "a", "b")
        assert ok


class TestBestBoundDiagnostic:
    def test_mixed_norm_orders_first(self):
        # certification bounds at linf r = 0.1, compared under the 2-SE
        # guard of bound_margin as in acceptance criterion 8: mixed_norm
        # weakly dominates, and linf_pure is beaten beyond the guard
        d = 5
        truth = BallIndicator("l2", np.zeros(d), 0.65)
        threat = ThreatModel("linf", 0.1)
        grids = [
            FamilyGrid("mixed_norm", (0.0, 1.0, 2.0), (0.1, 0.17, 0.3)),
            FamilyGrid("l2_power_tail", (0.0, 1.0, 2.0), (0.1, 0.17, 0.3)),
            FamilyGrid("linf_pure", (0.0, 1.0, 2.0), (0.1, 0.17, 0.3)),
        ]
        best = best_bound_by_family(
            truth, np.zeros(d), threat, grids, d, 30_000, RandomStream(8)
        )
        mixed, l2pt, linf = best["mixed_norm"], best["l2_power_tail"], best["linf_pure"]
        for other in (l2pt, linf):
            margin, guard = bound_margin(mixed, other)
            assert margin + guard >= 0.0
        for winner in (mixed, l2pt):
            margin, guard = bound_margin(winner, linf)
            assert margin - guard > 0.0

    def test_bound_std_error_combines_both_terms(self):
        res = SimpleNamespace(bound=0.7, lambda_star=4.0, std_error=0.003)
        point = ParetoPoint("a", 0.0, 1.0, 0.9, 0.001, 0.1, 0.01)
        best = FamilyBest(res, point)
        assert best.std_error == pytest.approx(0.005)
        margin, guard = bound_margin(best, FamilyBest(res, point))
        assert margin == 0.0
        assert guard == pytest.approx(2.0 * math.sqrt(2.0) * 0.005)
