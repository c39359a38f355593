import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcert import (
    DomainError,
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
    noise_statistics,
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

    def test_repeatable(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        delta = np.array([0.5, 0, 0])
        a = discrepancy_mc(fam, delta, 1.0, 30_000, 0.01, RandomStream(5))
        b = discrepancy_mc(fam, delta, 1.0, 30_000, 0.01, RandomStream(5))
        assert a == b
        c = discrepancy_mc(fam, delta, 1.0, 30_000, 0.01, RandomStream(6))
        assert a.mean != c.mean
        assert abs(a.mean - c.mean) <= 0.02  # different streams, same law

    @pytest.mark.parametrize("norm, fam", [
        ("l2", SmoothingFamily.gaussian(4, 1.0)),
        ("l1", SmoothingFamily.laplacian(4, 1.0)),
        ("linf", SmoothingFamily.l2_power_tail(6, 2.0, 1.0)),
        ("linf", SmoothingFamily.mixed_norm(5, 1.0, 1.0)),
    ], ids=["gaussian-l2", "laplacian-l1", "l2_power_tail-linf", "mixed_norm-vertex"])
    def test_is_the_certificate_estimator(self, norm, fam):
        # on the same stream, the estimate at lambda* is the dual bound's, bit for bit
        from smoothcert import noise_statistics

        threat, n, alpha, rng = ThreatModel(norm, 0.3), 20_000, 1e-3, RandomStream(50)
        wd = worst_delta(threat, fam)
        dual = dual_lower_bound(0.9, threat, alpha, noise_statistics(fam, n, rng))
        est = discrepancy_mc(fam, wd.vector, dual.lambda_star, n, alpha, rng)
        assert dual.lambda_star > 0.0
        assert (est.mean, est.epsilon, est.std_error) == (dual.d_mean, dual.epsilon, dual.std_error)

    @pytest.mark.parametrize("fam, delta", [
        (SmoothingFamily.gaussian(3, 1.0), [1.0, 1.0, 0.0]),
        (SmoothingFamily.laplacian(3, 1.0), [0.0, 1.0, 0.0]),
        (SmoothingFamily.mixed_norm(3, 1.0, 1.0), [1.0, 0.0, 0.0]),
    ], ids=["gaussian", "laplacian", "mixed_norm"])
    def test_rejects_a_shift_off_the_ray(self, fam, delta):
        with pytest.raises(DomainError, match="direction"):
            discrepancy_mc(fam, np.array(delta), 1.0, 100, 0.01, RandomStream(1))

    def test_estimate_invariant_enforced(self):
        with pytest.raises(DomainError):
            DiscrepancyEstimate(mean=1.5, epsilon=0.0, lam=1.0, std_error=0.0)


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

    def test_domain(self):
        with pytest.raises(DomainError):
            discrepancy_gaussian_closed_form(1.0, -1.0, 1.0)


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
        # every ratio is exactly 1, so the empirical objective
        # lam (p0 - eps) - (lam - 1)_+ peaks at lam* = 1 with D_hat = 0
        fam, threat = SmoothingFamily.gaussian(4, 1.0), ThreatModel("l2", 0.0)
        res = dual_lower_bound(0.8, threat, 1e-3, noise_statistics(fam, 20_000, RandomStream(7)))
        assert res.lambda_star == 1.0 and res.d_mean == 0.0
        assert res.bound == 0.8 - hoeffding_epsilon(20_000, 1.0, 1e-3)

    def test_gaussian_recovery(self):
        fam, threat = SmoothingFamily.gaussian(6, 1.0), ThreatModel("l2", 0.5)
        res = dual_lower_bound(0.9, threat, 1e-3, noise_statistics(fam, 200_000, RandomStream(8)))
        from smoothcert import cohen_bound

        target = cohen_bound(0.9, 1.0, 0.5)
        tol = res.epsilon + 3.0 * res.std_error
        assert res.bound >= target - tol
        assert res.bound <= target + 3.0 * res.std_error + 1e-9

    def test_p0_half_never_certifies(self):
        fam, threat = SmoothingFamily.gaussian(4, 1.0), ThreatModel("l2", 0.25)
        res = dual_lower_bound(0.5, threat, 1e-3, noise_statistics(fam, 50_000, RandomStream(9)))
        assert res.bound < 0.5

    def test_equivalence_bit_exact(self):
        for d in (4, 16):
            fam = SmoothingFamily.gaussian(d, 1.0)
            a, b = (
                dual_lower_bound(0.9, threat, 1e-3, noise_statistics(fam, 50_000, RandomStream(10)))
                for threat in (ThreatModel("linf", 0.1), ThreatModel("l2", math.sqrt(d) * 0.1))
            )
            assert a.bound == b.bound and a.lambda_star == b.lambda_star
            assert all(x.bound == y.bound for x, y in zip(a.trace, b.trace))

    def test_domain(self):
        fam, threat = SmoothingFamily.gaussian(3, 1.0), ThreatModel("l2", 0.1)
        stats = noise_statistics(fam, 100, RandomStream(14))
        with pytest.raises(DomainError):
            dual_lower_bound(0.0, threat, 1e-3, stats)
        with pytest.raises(DomainError):
            dual_lower_bound(1.5, threat, 1e-3, stats)
        # the one-sided DKW band needs alpha <= 1/2
        with pytest.raises(DomainError):
            dual_lower_bound(0.9, threat, 0.51, stats)
        dual_lower_bound(0.9, threat, 0.5, stats)


def _direct_d_mean(ratios: np.ndarray, lam: float) -> float:
    # the per-lambda definition, summed with math.fsum
    return min(math.fsum(np.maximum(lam - ratios, 0.0)) / ratios.size, lam)


def _drawn_ratios(fam, threat, n, rng):
    from smoothcert.discrepancy import log_ratio

    return np.exp(log_ratio(noise_statistics(fam, n, rng), worst_delta(threat, fam).step))


def _objective(ratios: np.ndarray, lams: np.ndarray, p0: float, eps: float) -> np.ndarray:
    # lam p0 - D_hat(lam) - lam eps at each lam, D_hat by direct sums
    d_hat = np.array([_direct_d_mean(ratios, float(lam)) for lam in lams])
    return lams * p0 - d_hat - lams * eps


class TestSortedSweep:
    def test_every_trace_point_matches_direct_sums(self):
        fam = SmoothingFamily.l2_power_tail(8, 2.0, 1.0)
        threat = ThreatModel("l2", 0.4)
        res = dual_lower_bound(0.9, threat, 1e-3, noise_statistics(fam, 30_000, RandomStream(40)))
        ratios = _drawn_ratios(fam, threat, 30_000, RandomStream(40))
        (pt,) = res.trace
        assert (pt.lam, pt.d_mean, pt.epsilon, pt.bound) == (
            res.lambda_star, res.d_mean, res.epsilon, res.bound
        )
        direct = _direct_d_mean(ratios, pt.lam)
        assert abs(pt.d_mean - direct) <= 1e-12 * direct
        assert pt.epsilon == hoeffding_epsilon(30_000, pt.lam, 1e-3)

    def test_lambda_equal_to_a_ratio(self):
        # lambda* is the j-th smallest ratio, j = ceil(n (p0 - eps)); a
        # ratio equal to lambda contributes 0, so at j = 1 D_hat is exactly 0
        fam = SmoothingFamily.gaussian(4, 1.0)
        threat = ThreatModel("l2", 0.5)
        n, alpha = 5_000, 1e-3
        eps = hoeffding_epsilon(n, 1.0, alpha)
        ratios = np.sort(_drawn_ratios(fam, threat, n, RandomStream(41)))
        for p0, j in ((eps + 0.5 / n, 1), (0.9, math.ceil(n * (0.9 - eps)))):
            res = dual_lower_bound(p0, threat, alpha, noise_statistics(fam, n, RandomStream(41)))
            assert res.lambda_star == ratios[j - 1]
            direct = _direct_d_mean(ratios, res.lambda_star)
            assert abs(res.d_mean - direct) <= 1e-12 * direct
            assert (res.d_mean == 0.0) == (j == 1)

    def test_zero_radius(self):
        # every ratio is exactly 1, so D_hat(lambda) = (lambda - 1)_+ and lambda* = 1
        fam, threat = SmoothingFamily.l2_power_tail(5, 1.0, 1.0), ThreatModel("l2", 0.0)
        res = dual_lower_bound(0.8, threat, 1e-3, noise_statistics(fam, 10_000, RandomStream(42)))
        assert res.lambda_star == 1.0
        assert res.trace[0].d_mean == 0.0

    def test_repeatable(self):
        fam, threat = SmoothingFamily.laplacian(3, 1.0), ThreatModel("l1", 0.5)
        a, b = (
            dual_lower_bound(0.9, threat, 1e-3, noise_statistics(fam, 20_000, RandomStream(43)))
            for _ in range(2)
        )
        assert a.trace == b.trace
        assert (a.bound, a.lambda_star, a.std_error) == (b.bound, b.lambda_star, b.std_error)


class TestExactMaximizer:
    @pytest.mark.parametrize("norm, fam, r", [
        ("l2", SmoothingFamily.gaussian(4, 1.0), 0.5),
        ("l2", SmoothingFamily.l2_power_tail(6, 2.0, 1.0), 0.8),
        ("linf", SmoothingFamily.mixed_norm(5, 1.0, 1.0), 0.2),
    ], ids=["gaussian", "l2_power_tail", "mixed_norm"])
    def test_beats_every_lambda_and_is_the_smallest_maximizer(self, norm, fam, r):
        n, alpha, p0 = 3_000, 1e-3, 0.93
        threat = ThreatModel(norm, r)
        res = dual_lower_bound(p0, threat, alpha, noise_statistics(fam, n, RandomStream(49)))
        ratios = _drawn_ratios(fam, threat, n, RandomStream(49))
        eps = hoeffding_epsilon(n, 1.0, alpha)
        lams = np.geomspace(1e-3, 1e3, 2_000)
        assert np.all(res.bound >= _objective(ratios, lams, p0, eps) - 1e-12)
        # every smaller lambda, the grid's and the ratio just below lambda*, is strictly worse
        below = np.append(lams[lams < res.lambda_star], ratios[ratios < res.lambda_star].max())
        assert np.all(_objective(ratios, below, p0, eps) < res.bound - 1e-12)

    def test_p0_within_epsilon_gives_zero(self):
        fam, threat = SmoothingFamily.gaussian(3, 1.0), ThreatModel("l2", 0.3)
        eps = hoeffding_epsilon(3_000, 1.0, 1e-3)
        res = dual_lower_bound(eps, threat, 1e-3, noise_statistics(fam, 3_000, RandomStream(50)))
        assert (res.bound, res.lambda_star, res.d_mean, res.epsilon) == (0.0, 0.0, 0.0, 0.0)


class TestDKWBand:
    def test_simultaneous_coverage(self):
        # D(lam) <= D_hat(lam) + lam eps must hold at every lambda at once
        # in at least 1 - alpha of the repetitions (cf. acceptance criterion 6)
        from smoothcert.discrepancy import log_ratio, noise_statistics

        alpha, n, reps = 0.05, 2_000, 1_000
        fam = SmoothingFamily.gaussian(4, 1.0)
        wd = worst_delta(ThreatModel("l2", 1.0), fam)
        lams = np.geomspace(1e-2, 1e2, 400)
        true_d = np.array([discrepancy_gaussian_closed_form(1.0, 1.0, float(l)) for l in lams])
        eps = hoeffding_epsilon(n, 1.0, alpha)
        root = RandomStream(62)
        covered = 0
        for rep in range(reps):
            stats = noise_statistics(fam, n, root.child(rep))
            ratios = np.sort(np.exp(log_ratio(stats, wd.step)))
            below = np.searchsorted(ratios, lams, side="left")
            prefix = np.concatenate(([0.0], np.cumsum(ratios)))
            d_hat = (below * lams - prefix[below]) / n
            covered += bool(np.all(true_d <= d_hat + lams * eps + 1e-12))
        assert covered / reps >= 1.0 - alpha

    def test_one_draw_serves_many_inputs(self):
        # the band holds for every lambda, so one draw bounds the certificates
        # of many inputs at once: on at least 1 - alpha of the draws, every
        # p0's dual bound stays at or below its exact worst case, Cohen's bound
        from smoothcert import cohen_bound

        alpha, n, reps = 0.05, 2_000, 1_000
        fam, threat = SmoothingFamily.gaussian(4, 1.0), ThreatModel("l2", 0.5)
        p0s = np.linspace(0.55, 0.999, 20).tolist()
        exact = [cohen_bound(p0, 1.0, 0.5) for p0 in p0s]
        root = RandomStream(63)
        covered = 0
        for rep in range(reps):
            stats = noise_statistics(fam, n, root.child(rep))
            covered += all(dual_lower_bound(p0, threat, alpha, stats).bound <= bound + 1e-12
                           for p0, bound in zip(p0s, exact))
        assert covered / reps >= 1.0 - alpha


# every supported (threat, family) pair, with k = 0 and k > 0 where the family has a power term
_RAY_PAIRS = [
    ("l2", SmoothingFamily.gaussian(6, 1.3)),
    ("l2", SmoothingFamily.l2_power_tail(6, 0.0, 1.3)),
    ("l2", SmoothingFamily.l2_power_tail(6, 2.5, 1.3)),
    ("l1", SmoothingFamily.laplacian(6, 0.7)),
    ("l1", SmoothingFamily.l1_power_tail(6, 0.0, 0.7)),
    ("l1", SmoothingFamily.l1_power_tail(6, 2.0, 0.7)),
    ("linf", SmoothingFamily.mixed_norm(6, 0.0, 1.1)),
    ("linf", SmoothingFamily.mixed_norm(6, 2.0, 1.1)),
    ("linf", SmoothingFamily.linf_pure(6, 0.0, 1.1)),
    ("linf", SmoothingFamily.linf_pure(6, 2.0, 1.1)),
    ("linf", SmoothingFamily.gaussian(6, 1.1)),
    ("linf", SmoothingFamily.l2_power_tail(6, 0.0, 1.1)),
    ("linf", SmoothingFamily.l2_power_tail(6, 3.0, 1.1)),
]
_RAY_IDS = [f"{n}-{f.variant}-k{f.k:g}" for n, f in _RAY_PAIRS]


class TestShiftStatistics:
    @pytest.mark.parametrize("norm, fam", _RAY_PAIRS, ids=_RAY_IDS)
    def test_matches_full_row_log_ratio(self, norm, fam):
        from smoothcert import sample
        from smoothcert.discrepancy import log_ratio, shift_statistics
        from smoothcert.families import _log_ratio_batch

        rng = np.random.default_rng(45)
        for r in (0.01, 0.3, 1.7):
            wd = worst_delta(ThreatModel(norm, r), fam)
            z = sample(fam, 5_000, RandomStream(45)).points
            # rows within 1e-6 of the shift point, where the power term peaks
            near = rng.standard_normal((200, fam.dim))
            near *= rng.uniform(1e-9, 1e-6, size=(200, 1)) / np.linalg.norm(near, axis=1, keepdims=True)
            z[:200] = wd.vector + near
            got = log_ratio(shift_statistics(fam, z), wd.step)
            ref = _log_ratio_batch(fam, z, wd.vector)
            # log scale, so 1e-12 here is 1e-12 relative on the ratio
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("norm, fam", _RAY_PAIRS, ids=_RAY_IDS)
    def test_zero_radius_is_exactly_one(self, norm, fam):
        from smoothcert import sample
        from smoothcert.discrepancy import log_ratio, shift_statistics

        wd = worst_delta(ThreatModel(norm, 0.0), fam)
        z = sample(fam, 5_000, RandomStream(46)).points
        assert np.all(np.exp(log_ratio(shift_statistics(fam, z), 0.0)) == 1.0)

    def test_belong_to_the_family(self):
        # one draw serves every threat norm of its family: linf r and l2
        # sqrt(d) r read the same e1 axis, bit for bit; a norm the family
        # has no theorem for is refused
        for d in (4, 16):
            stats = noise_statistics(SmoothingFamily.l2_power_tail(d, 1.0, 1.0), 1_000, RandomStream(47))
            a, b = (
                dual_lower_bound(0.9, threat, 1e-3, stats)
                for threat in (ThreatModel("linf", 0.1), ThreatModel("l2", math.sqrt(d) * 0.1))
            )
            fields = ("bound", "lambda_star", "d_mean", "epsilon", "std_error")
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        stats = noise_statistics(SmoothingFamily.laplacian(3, 1.0), 1_000, RandomStream(47))
        with pytest.raises(UnsupportedError):
            dual_lower_bound(0.9, ThreatModel("l2", 0.1), 1e-3, stats)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_radius_search_holds_statistics_only(self, monkeypatch, blocks):
        # one flat column per statistic, however many blocks the draw came in
        import sys

        from smoothcert import ConfidenceBudget, Constant, certified_radius_search, families
        from smoothcert.discrepancy import ShiftStatistics, noise_statistics

        certify = sys.modules["smoothcert.certify"]  # the package exports a function of that name
        seen = []
        real = certify.dual_lower_bound

        def recording(p0_lower, threat, alpha_mc, stats):
            seen.append(stats)
            return real(p0_lower, threat, alpha_mc, stats)

        monkeypatch.setattr(certify, "dual_lower_bound", recording)
        fam, n2 = SmoothingFamily.mixed_norm(5, 1.0, 1.0), 3_001
        monkeypatch.setattr(families, "_CHUNK_SCALARS", fam.dim * -(-n2 // blocks))
        rng = RandomStream(48)
        certified_radius_search(
            Constant(1), np.zeros(5), "linf", r_max=1.0, n1=1000,
            budget=ConfidenceBudget.split(0.002), rng=rng,
            stats=noise_statistics(fam, n2, rng.child(1)),
        )
        assert len(seen) == 12 and all(s is seen[0] for s in seen)
        stats = seen[0]
        assert isinstance(stats, ShiftStatistics) and stats.n == n2
        assert len(stats.columns) == 3
        assert all(c.ndim == 1 and c.size == n2 for c in stats.columns)

    @pytest.mark.parametrize("norm, fam", [
        ("linf", SmoothingFamily.linf_pure(400, 2.0, 1.0)),
    ], ids=["linf_pure"])
    def test_one_stream_of_chunks(self, norm, fam):
        # on the vertex ray the statistics are those of the sample_chunks
        # blocks of stream rng.child(0), bit for bit, across several blocks
        from smoothcert import sample_chunks
        from smoothcert.discrepancy import noise_statistics, shift_statistics

        n, rng = 25_000, RandomStream(51)
        blocks = [shift_statistics(fam, b) for b in sample_chunks(fam, n, rng.child(0))]
        assert len(blocks) >= 2
        got = noise_statistics(fam, n, rng)
        assert got.n == n
        for col, parts in zip(got.columns, zip(*(b.columns for b in blocks)), strict=True):
            assert np.array_equal(col, np.concatenate(parts))


# every l1/l2 axis ray family, with k = 0 and k > 0, and d = 1 and d = 2
_DIRECT_CASES = [
    ("L2Boundary", SmoothingFamily.gaussian(8, 1.3)),
    ("L2Boundary", SmoothingFamily.gaussian(1, 1.3)),
    ("L2Boundary", SmoothingFamily.l2_power_tail(16, 4.0, 1.0)),
    ("L2Boundary", SmoothingFamily.l2_power_tail(3, 1.5, 1.0)),
    ("L2Boundary", SmoothingFamily.l2_power_tail(6, 0.0, 1.0)),
    ("L2Boundary", SmoothingFamily.l2_power_tail(2, 0.5, 0.8)),
    ("LinfViaL2Equivalence", SmoothingFamily.l2_power_tail(6, 3.0, 1.1)),
    ("L1Boundary", SmoothingFamily.laplacian(6, 0.7)),
    ("L1Boundary", SmoothingFamily.laplacian(1, 0.7)),
    ("L1Boundary", SmoothingFamily.l1_power_tail(6, 2.0, 0.7)),
    ("L1Boundary", SmoothingFamily.l1_power_tail(6, 0.0, 0.7)),
    ("L1Boundary", SmoothingFamily.l1_power_tail(2, 0.5, 0.7)),
]
_DIRECT_IDS = [f"{r}-{f.variant}-d{f.dim}-k{f.k:g}" for r, f in _DIRECT_CASES]


class TestDirectStatistics:
    """``noise_statistics`` on the l1/l2 axis rays draws no rows."""

    @pytest.mark.parametrize("rationale, fam", _DIRECT_CASES, ids=_DIRECT_IDS)
    def test_matches_full_draws(self, rationale, fam):
        # two-sample KS against shift_statistics of full sample() rows, on
        # both columns and on the log ratio at one radius (their joint law);
        # every p-value must clear 1e-3
        from scipy.stats import ks_2samp

        from smoothcert import sample
        from smoothcert.discrepancy import log_ratio, noise_statistics, shift_statistics

        n = 20_000
        direct = noise_statistics(fam, n, RandomStream(52))
        full = shift_statistics(fam, sample(fam, n, RandomStream(53)).points)
        r = 0.5 * fam.scale
        pairs = list(zip(direct.columns, full.columns)) + [
            (log_ratio(direct, r), log_ratio(full, r))
        ]
        if fam.dim == 1:
            assert not direct.columns[1].any() and not full.columns[1].any()
            del pairs[1]
        for a, b in pairs:
            assert ks_2samp(a, b).pvalue >= 1e-3

    @pytest.mark.parametrize("rationale, fam", [
        ("L2Boundary", SmoothingFamily.l2_power_tail(5, 1.5, 0.9)),
        ("LinfViaL2Equivalence", SmoothingFamily.gaussian(1, 0.9)),
        ("L1Boundary", SmoothingFamily.l1_power_tail(5, 1.5, 0.6)),
        ("L1Boundary", SmoothingFamily.laplacian(1, 0.6)),
    ], ids=["l2_power_tail", "gaussian-d1", "l1_power_tail", "laplacian-d1"])
    def test_layout(self, rationale, fam):
        # the documented variates, in order, one size-n call each, from rng.child(0)
        from smoothcert.discrepancy import noise_statistics

        n, rng = 4_001, RandomStream(54)
        got = noise_statistics(fam, n, rng)
        g = rng.child(0).generator()
        d, k = fam.dim, fam.k
        if rationale == "L1Boundary":
            rho = g.gamma(d - k, fam.b, size=n)
            e1 = g.standard_exponential(n)
            rest = g.gamma(d - 1.0, 1.0, size=n)
            sign = 2.0 * g.integers(0, 2, size=n) - 1.0
            want = (sign * rho * e1 / (e1 + rest), rho * rest / (e1 + rest))
        else:
            r2 = 2.0 * fam.sigma**2 * g.gamma((d - k) / 2.0, 1.0, size=n)
            g1 = g.standard_normal(n)
            rest = 2.0 * g.gamma((d - 1.0) / 2.0, 1.0, size=n)
            q = g1 * g1 + rest
            want = (g1 * np.sqrt(r2 / q), r2 * rest / q)
        assert got.n == n and len(got.columns) == 2
        for col, ref in zip(got.columns, want, strict=True):
            assert np.array_equal(col, ref)
        if d == 1:
            assert not got.columns[1].any()

    def test_validates_like_the_full_draw(self):
        from smoothcert.discrepancy import noise_statistics

        fam = SmoothingFamily.gaussian(3, 1.0)
        with pytest.raises(DomainError):
            noise_statistics(fam, 0, RandomStream(55))
