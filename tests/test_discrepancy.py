import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcert import (
    DomainError,
    LambdaGrid,
    QuadratureGrid,
    RandomStream,
    SmoothingFamily,
    ThreatModel,
    UnsupportedError,
    discrepancy_gaussian_closed_form,
    discrepancy_laplace_closed_form,
    discrepancy_mc,
    discrepancy_quadrature,
    dual_lower_bound,
    hoeffding_epsilon,
    worst_delta,
)
from smoothcert.discrepancy import DiscrepancyEstimate
from _oracles import laplace_tv_trapezoid

TV_SIGMA1_R2 = 0.6826894921370859  # Phi(1) - Phi(-1), erf oracle


class TestWorstDelta:
    def test_l2_axis(self):
        wd = worst_delta(ThreatModel("l2", 0.5), SmoothingFamily.gaussian(3, 1.0))
        assert np.array_equal(wd.vector, np.array([0.5, 0.0, 0.0]))
        assert wd.rationale == "L2Boundary"

    def test_l1_axis(self):
        wd = worst_delta(ThreatModel("l1", 0.7), SmoothingFamily.l1_power_tail(4, 1.0, 1.0))
        assert np.array_equal(wd.vector, np.array([0.7, 0.0, 0.0, 0.0]))
        assert wd.rationale == "L1Boundary"

    def test_linf_vertex(self):
        wd = worst_delta(ThreatModel("linf", 0.1), SmoothingFamily.mixed_norm(4, 1.0, 1.0))
        assert np.array_equal(wd.vector, np.full(4, 0.1))
        assert wd.rationale == "LinfVertex"
        wd = worst_delta(ThreatModel("linf", 0.1), SmoothingFamily.linf_pure(4, 1.0, 1.0))
        assert wd.rationale == "LinfVertex"

    def test_linf_l2_equivalence(self):
        wd = worst_delta(ThreatModel("linf", 0.1), SmoothingFamily.gaussian(4, 1.0))
        assert wd.rationale == "LinfViaL2Equivalence"
        assert abs(np.linalg.norm(wd.vector) - 0.2) <= 1e-15

    def test_unsupported_pairs(self):
        with pytest.raises(UnsupportedError):
            worst_delta(ThreatModel("l1", 0.5), SmoothingFamily.mixed_norm(3, 1.0, 1.0))
        with pytest.raises(UnsupportedError):
            worst_delta(ThreatModel("l2", 0.5), SmoothingFamily.laplacian(3, 1.0))
        with pytest.raises(UnsupportedError):
            worst_delta(ThreatModel("l1", 0.5), SmoothingFamily.gaussian(3, 1.0))


class TestHoeffding:
    def test_frozen_value(self):
        assert abs(hoeffding_epsilon(100_000, 1.0, 1e-3) - 0.005876970001191999) <= 1e-12

    def test_zero_lambda(self):
        assert hoeffding_epsilon(1000, 0.0, 0.01) == 0.0

    @given(
        st.floats(min_value=1e-3, max_value=100.0),
        st.integers(min_value=1, max_value=10**8),
        st.floats(min_value=1e-9, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_linear_in_lambda(self, lam, n, alpha):
        one = hoeffding_epsilon(n, lam, alpha)
        two = hoeffding_epsilon(n, 2.0 * lam, alpha)
        assert abs(two - 2.0 * one) <= 1e-12 * max(1.0, two)

    def test_domain(self):
        with pytest.raises(DomainError):
            hoeffding_epsilon(0, 1.0, 0.5)
        with pytest.raises(DomainError):
            hoeffding_epsilon(10, 1.0, 1.0)


class TestDiscrepancyMC:
    def test_lambda_zero_exact(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        est = discrepancy_mc(fam, np.array([1.0, 0, 0]), 0.0, 10_000, 0.01, RandomStream(1))
        assert est.mean == 0.0 and est.epsilon == 0.0

    def test_zero_shift_exact(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        est = discrepancy_mc(fam, np.zeros(3), 2.0, 10_000, 0.01, RandomStream(2))
        assert est.mean == 1.0  # (2 - 1)_+ with ratio identically 1
        assert est.std_error == 0.0

    def test_gaussian_tv_oracle(self):
        fam = SmoothingFamily.gaussian(5, 1.0)
        est = discrepancy_mc(
            fam, np.array([2.0, 0, 0, 0, 0]), 1.0, 1_000_000, 1e-3, RandomStream(3)
        )
        assert abs(est.mean - TV_SIGMA1_R2) <= est.epsilon + 3.0 * est.std_error

    def test_mean_bounded_by_lambda(self):
        fam = SmoothingFamily.laplacian(4, 0.5)
        for lam in (0.25, 1.0, 7.0):
            est = discrepancy_mc(fam, np.array([2.0, 0, 0, 0]), lam, 50_000, 0.01, RandomStream(4))
            assert 0.0 <= est.mean <= lam

    def test_worker_partition_determinism(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        delta = np.array([0.5, 0, 0])
        a = discrepancy_mc(fam, delta, 1.0, 30_000, 0.01, RandomStream(5), workers=2)
        b = discrepancy_mc(fam, delta, 1.0, 30_000, 0.01, RandomStream(5), workers=2)
        assert a.mean == b.mean
        c = discrepancy_mc(fam, delta, 1.0, 30_000, 0.01, RandomStream(5), workers=1)
        assert abs(a.mean - c.mean) <= 0.02  # different partitions, same law

    def test_estimate_invariant_enforced(self):
        with pytest.raises(DomainError):
            DiscrepancyEstimate(mean=1.5, epsilon=0.0, n=10, lam=1.0, alpha=0.5, std_error=0.0)


class TestGaussianClosedForm:
    def test_tv_value(self):
        assert abs(discrepancy_gaussian_closed_form(1.0, 2.0, 1.0) - TV_SIGMA1_R2) <= 1e-12

    def test_zero_shift_limit(self):
        assert discrepancy_gaussian_closed_form(1.0, 0.0, 1.0) == 0.0
        assert discrepancy_gaussian_closed_form(1.0, 0.0, 3.0) == 2.0

    def test_large_lambda_bounds(self):
        d = discrepancy_gaussian_closed_form(1.0, 1.0, 100.0)
        assert 99.0 <= d <= 100.0

    def test_small_shift_continuity(self):
        assert discrepancy_gaussian_closed_form(1.0, 1e-12, 1.0) <= 1e-11

    def test_scale_invariance(self):
        # D depends on (shift/sigma, lambda) only
        a = discrepancy_gaussian_closed_form(1.0, 0.8, 1.7)
        b = discrepancy_gaussian_closed_form(2.0, 1.6, 1.7)
        assert abs(a - b) <= 1e-12


class TestLaplaceClosedForm:
    def test_branch_iii_zero(self):
        # lambda <= exp(-r/b): positive part vanishes
        assert discrepancy_laplace_closed_form(1.0, 1.0, math.exp(-1.0)) == 0.0
        assert discrepancy_laplace_closed_form(1.0, 1.0, 0.2) == 0.0

    def test_identical_distributions(self):
        assert discrepancy_laplace_closed_form(1.0, 0.0, 1.0) == 0.0

    def test_trapezoid_oracle(self):
        for b, r, lam in [(1.0, 0.5, 1.0), (1.0, 1.0, 2.0), (0.5, 0.4, 1.0), (1.0, 2.0, 0.6)]:
            oracle = laplace_tv_trapezoid(b, r, lam)
            assert abs(discrepancy_laplace_closed_form(b, r, lam) - oracle) <= 1e-6

    def test_branch_continuity(self):
        for b, r in [(1.0, 0.5), (0.7, 1.2)]:
            for edge in (math.exp(r / b), math.exp(-r / b)):
                below = discrepancy_laplace_closed_form(b, r, edge * (1 - 1e-9))
                above = discrepancy_laplace_closed_form(b, r, edge * (1 + 1e-9))
                assert abs(below - above) <= 1e-7

    def test_bounded_by_lambda(self):
        for lam in (0.3, 1.0, 5.0, 50.0):
            d = discrepancy_laplace_closed_form(1.0, 0.8, lam)
            assert 0.0 <= d <= lam


class TestQuadrature:
    def test_gaussian_2d_vs_closed_form(self):
        fam = SmoothingFamily.gaussian(2, 1.0)
        q = discrepancy_quadrature(fam, np.array([1.0, 0.0]), 1.0)
        assert abs(q - discrepancy_gaussian_closed_form(1.0, 1.0, 1.0)) <= 1e-4

    def test_lambda_zero(self):
        fam = SmoothingFamily.gaussian(2, 1.0)
        assert discrepancy_quadrature(fam, np.array([1.0, 0.0]), 0.0) == 0.0

    def test_power_tail_vs_mc(self):
        fam = SmoothingFamily.l2_power_tail(2, 0.5, 1.0)
        delta = np.array([0.5, 0.0])
        q = discrepancy_quadrature(fam, delta, 1.0)
        est = discrepancy_mc(fam, delta, 1.0, 10_000_000, 1e-3, RandomStream(6))
        assert abs(q - est.mean) <= est.epsilon + 3.0 * est.std_error + 1e-4

    def test_laplace_1d_vs_closed_form(self):
        fam = SmoothingFamily.laplacian(1, 1.0)
        q = discrepancy_quadrature(fam, np.array([0.5]), 1.0)
        assert abs(q - discrepancy_laplace_closed_form(1.0, 0.5, 1.0)) <= 1e-5

    def test_gaussian_3d_vs_closed_form(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        q = discrepancy_quadrature(fam, np.array([1.0, 0.0, 0.0]), 1.0)
        assert abs(q - discrepancy_gaussian_closed_form(1.0, 1.0, 1.0)) <= 1e-4

    def test_rotation_invariance(self):
        fam = SmoothingFamily.gaussian(2, 1.0)
        base = discrepancy_quadrature(fam, np.array([0.8, 0.0]), 1.0)
        for phi in (0.3, 1.1, 2.0):
            delta = 0.8 * np.array([math.cos(phi), math.sin(phi)])
            assert abs(discrepancy_quadrature(fam, delta, 1.0) - base) <= 1e-4

    def test_monotone_along_rays(self):
        # Appendix-style monotonicity: D nondecreasing in the shift size
        fam = SmoothingFamily.gaussian(2, 1.0)
        values = [
            discrepancy_quadrature(fam, np.array([t, 0.0]), 1.0)
            for t in np.arange(0.0, 2.25, 0.25)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedError):
            discrepancy_quadrature(SmoothingFamily.gaussian(4, 1.0), np.zeros(4), 1.0)

    def test_coarse_grid_rejected(self):
        with pytest.raises(DomainError):
            QuadratureGrid(n_radial=2)


class TestDualLowerBound:
    def test_zero_radius_recovers_p0(self):
        fam = SmoothingFamily.gaussian(4, 1.0)
        grid = LambdaGrid(1e-2, 1e4, 200)
        res = dual_lower_bound(0.8, fam, ThreatModel("l2", 0.0), grid, 20_000, 1e-3, RandomStream(7))
        # bound = max over grid of lam*p0 - (lam-1)_+ - eps(lam); the
        # analytic max (at lam=1 exactly) is p0, reachable up to the
        # grid gap and the epsilon haircut
        lams = grid.values()
        eps = [hoeffding_epsilon(20_000, float(l), 1e-3 / 200) for l in lams]
        analytic = max(
            float(l) * 0.8 - max(float(l) - 1.0, 0.0) - e for l, e in zip(lams, eps)
        )
        assert abs(res.bound - analytic) <= 1e-12
        grid_step = (1e4 / 1e-2) ** (1.0 / 199.0)
        eps_at_one = hoeffding_epsilon(20_000, 1.0, 1e-3 / 200)
        assert res.bound >= 0.8 / grid_step - eps_at_one

    def test_gaussian_recovery(self):
        fam = SmoothingFamily.gaussian(6, 1.0)
        grid = LambdaGrid()
        res = dual_lower_bound(0.9, fam, ThreatModel("l2", 0.5), grid, 200_000, 1e-3, RandomStream(8))
        from smoothcert import cohen_bound

        target = cohen_bound(0.9, 1.0, 0.5)
        grid_loss = target - max(
            float(l) * 0.9 - discrepancy_gaussian_closed_form(1.0, 0.5, float(l))
            for l in grid.values()
        )
        tol = res.epsilon + 3.0 * res.std_error + grid_loss
        assert res.bound >= target - tol
        assert res.bound <= target + 3.0 * res.std_error + 1e-9

    def test_p0_half_never_certifies(self):
        fam = SmoothingFamily.gaussian(4, 1.0)
        res = dual_lower_bound(
            0.5, fam, ThreatModel("l2", 0.25), LambdaGrid(), 50_000, 1e-3, RandomStream(9)
        )
        assert res.bound < 0.5

    def test_equivalence_bit_exact(self):
        grid = LambdaGrid()
        for d in (4, 16):
            fam = SmoothingFamily.gaussian(d, 1.0)
            a = dual_lower_bound(0.9, fam, ThreatModel("linf", 0.1), grid, 50_000, 1e-3, RandomStream(10))
            b = dual_lower_bound(
                0.9, fam, ThreatModel("l2", math.sqrt(d) * 0.1), grid, 50_000, 1e-3, RandomStream(10)
            )
            assert a.bound == b.bound and a.lambda_star == b.lambda_star
            assert all(x.bound == y.bound for x, y in zip(a.trace, b.trace))

    def test_trace_monotone_mean(self):
        # shared samples make the estimated D nondecreasing in lambda
        fam = SmoothingFamily.gaussian(3, 1.0)
        res = dual_lower_bound(
            0.8, fam, ThreatModel("l2", 0.5), LambdaGrid(1e-2, 1e2, 100), 20_000, 1e-2, RandomStream(11)
        )
        means = [pt.d_mean for pt in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        assert all(0.0 <= pt.d_mean <= pt.lam for pt in res.trace)

    def test_refinement_stays_valid(self):
        fam = SmoothingFamily.gaussian(4, 1.0)
        res = dual_lower_bound(
            0.9, fam, ThreatModel("l2", 0.5), LambdaGrid(1e-2, 1e4, 50),
            100_000, 1e-3, RandomStream(12), refine_steps=8,
        )
        from smoothcert import cohen_bound

        # still a lower bound up to MC noise
        assert res.bound <= cohen_bound(0.9, 1.0, 0.5) + 3.0 * res.std_error + 1e-9
        assert len(res.trace) == 50 + 8

    def test_trace_csv(self, tmp_path):
        fam = SmoothingFamily.gaussian(3, 1.0)
        res = dual_lower_bound(
            0.8, fam, ThreatModel("l2", 0.2), LambdaGrid(0.1, 10, 20), 5_000, 1e-2, RandomStream(13)
        )
        path = tmp_path / "trace.csv"
        res.trace_to_csv(path, header_lines=("test=1",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# test=1"
        assert lines[1] == "lambda,d_mean,epsilon,bound"
        assert len(lines) == 2 + 20

    def test_domain(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        with pytest.raises(DomainError):
            dual_lower_bound(0.0, fam, ThreatModel("l2", 0.1), LambdaGrid(), 100, 1e-3, RandomStream(14))
        with pytest.raises(DomainError):
            dual_lower_bound(1.5, fam, ThreatModel("l2", 0.1), LambdaGrid(), 100, 1e-3, RandomStream(14))


def _direct_d_mean(ratios: np.ndarray, lam: float) -> float:
    # the per-lambda definition, summed with math.fsum
    return min(math.fsum(np.maximum(lam - ratios, 0.0)) / ratios.size, lam)


def _drawn_ratios(fam, threat, n, rng, workers):
    from smoothcert.discrepancy import _ratio_partitions, noise_partitions

    delta = worst_delta(threat, fam).vector
    return np.concatenate(_ratio_partitions(fam, delta, noise_partitions(fam, n, rng, workers)))


class TestSortedSweep:
    def test_every_trace_point_matches_direct_sums(self):
        fam = SmoothingFamily.l2_power_tail(8, 2.0, 1.0)
        threat = ThreatModel("l2", 0.4)
        res = dual_lower_bound(
            0.9, fam, threat, LambdaGrid(), 30_000, 1e-3, RandomStream(40),
            workers=2, refine_steps=8,
        )
        ratios = _drawn_ratios(fam, threat, 30_000, RandomStream(40), 2)
        assert len(res.trace) == 200 + 8
        for pt in res.trace:
            direct = _direct_d_mean(ratios, pt.lam)
            assert abs(pt.d_mean - direct) <= 1e-12 * direct

    def test_lambda_equal_to_a_ratio(self):
        # a ratio equal to lambda contributes 0; at the smallest ratio D_hat is exactly 0
        fam = SmoothingFamily.gaussian(4, 1.0)
        threat = ThreatModel("l2", 0.5)
        ratios = np.sort(_drawn_ratios(fam, threat, 5_000, RandomStream(41), 1))
        for lam in (float(ratios[0]), float(ratios[2_500])):
            res = dual_lower_bound(
                0.9, fam, threat, LambdaGrid(lam, lam, 1), 5_000, 1e-3, RandomStream(41)
            )
            assert res.trace[0].lam == lam
            direct = _direct_d_mean(ratios, lam)
            assert abs(res.trace[0].d_mean - direct) <= 1e-12 * direct

    def test_zero_radius(self):
        # every ratio is exactly 1, so D_hat(lambda) = (lambda - 1)_+
        fam = SmoothingFamily.l2_power_tail(5, 1.0, 1.0)
        res = dual_lower_bound(
            0.8, fam, ThreatModel("l2", 0.0), LambdaGrid(), 10_000, 1e-3, RandomStream(42),
            refine_steps=4,
        )
        for pt in res.trace:
            expected = max(pt.lam - 1.0, 0.0)
            assert abs(pt.d_mean - expected) <= 1e-12 * expected
        at_one = dual_lower_bound(
            0.8, fam, ThreatModel("l2", 0.0), LambdaGrid(1.0, 1.0, 1), 10_000, 1e-3,
            RandomStream(42),
        )
        assert at_one.trace[0].d_mean == 0.0

    def test_repeatable(self):
        fam = SmoothingFamily.laplacian(3, 1.0)
        a, b = (
            dual_lower_bound(
                0.9, fam, ThreatModel("l1", 0.5), LambdaGrid(), 20_000, 1e-3, RandomStream(43),
                workers=2, refine_steps=6,
            )
            for _ in range(2)
        )
        assert a.trace == b.trace
        assert (a.bound, a.lambda_star, a.std_error) == (b.bound, b.lambda_star, b.std_error)

    def test_draws_must_match_n(self):
        from smoothcert.discrepancy import noise_partitions

        fam = SmoothingFamily.gaussian(3, 1.0)
        draws = [list(p) for p in noise_partitions(fam, 1_000, RandomStream(44), 2)]
        with pytest.raises(DomainError):
            dual_lower_bound(
                0.9, fam, ThreatModel("l2", 0.1), LambdaGrid(), 2_000, 1e-3, RandomStream(44),
                draws=draws,
            )


class TestLambdaGrid:
    def test_values(self):
        grid = LambdaGrid(0.01, 100.0, 5)
        vals = grid.values()
        assert len(vals) == 5
        assert abs(vals[0] - 0.01) <= 1e-15 and abs(vals[-1] - 100.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            LambdaGrid(0.0, 1.0, 10)
        with pytest.raises(DomainError):
            LambdaGrid(2.0, 1.0, 10)
        with pytest.raises(DomainError):
            LambdaGrid(1.0, 2.0, 0)
