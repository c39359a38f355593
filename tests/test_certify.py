import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcert import (
    BinomialEvidence,
    ConfidenceBudget,
    Constant,
    DomainError,
    Halfspace,
    RandomStream,
    SmoothingFamily,
    ThreatModel,
    UnsupportedError,
    certified_radius_search,
    certify,
    clopper_pearson_lower,
    cohen_bound,
    cohen_radius,
    dual_lower_bound,
    gaussian_bilateral_radius,
    noise_statistics,
    teng_bound,
    teng_radius,
)
from smoothcert.certify import ABSTAIN, CERTIFIED
from _oracles import clopper_pearson_by_binomial_bisection

# frozen from the binomial-tail bisection oracle
CP_50_100_005 = 0.41362171463091235


class TestClopperPearson:
    def test_all_success_closed_form(self):
        got = clopper_pearson_lower(BinomialEvidence(100, 100), 1e-3)
        assert abs(got - 0.001 ** (1.0 / 100.0)) <= 1e-12
        assert abs(got - 0.9332543007969905) <= 1e-7

    def test_zero_successes(self):
        assert clopper_pearson_lower(BinomialEvidence(0, 50), 0.01) == 0.0

    def test_binomial_tail_oracle(self):
        got = clopper_pearson_lower(BinomialEvidence(50, 100), 0.05)
        assert abs(got - CP_50_100_005) <= 1e-6
        assert abs(got - clopper_pearson_by_binomial_bisection(50, 100, 0.05)) <= 1e-6

    def test_oracle_on_more_points(self):
        for s, n, alpha in [(1, 20, 0.1), (990, 1000, 0.001), (7, 13, 0.2)]:
            got = clopper_pearson_lower(BinomialEvidence(s, n), alpha)
            want = clopper_pearson_by_binomial_bisection(s, n, alpha)
            assert abs(got - want) <= 1e-6

    def test_monotone_in_successes(self):
        values = [clopper_pearson_lower(BinomialEvidence(s, 100), 0.05) for s in range(0, 101, 5)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_below_point_estimate(self):
        for s in (1, 37, 99):
            assert clopper_pearson_lower(BinomialEvidence(s, 100), 0.05) <= s / 100

    def test_evidence_validation(self):
        with pytest.raises(DomainError):
            BinomialEvidence(5, 4)
        with pytest.raises(DomainError):
            BinomialEvidence(-1, 4)
        with pytest.raises(DomainError):
            clopper_pearson_lower(BinomialEvidence(5, 10), 1.0)


class TestCohenClosedForms:
    def test_bound_below_half_at_p_half(self):
        assert cohen_bound(0.5, 1.0, 0.3) < 0.5

    def test_bound_quantile_chain(self):
        assert abs(cohen_bound(0.8413447461, 1.0, 1.0) - 0.5) <= 1e-8

    def test_bound_identity_at_zero_radius(self):
        assert abs(cohen_bound(0.73, 1.0, 0.0) - 0.73) <= 1e-12

    def test_bound_saturation(self):
        assert cohen_bound(0.0, 1.0, 1.0) == 0.0
        assert cohen_bound(1.0, 1.0, 1.0) == 1.0

    def test_radius_examples(self):
        assert cohen_radius(0.5, 1.0) == 0.0
        assert abs(cohen_radius(0.8413447461, 2.0) - 2.0) <= 2e-8
        assert cohen_radius(0.3, 1.0) < 0.0

    def test_radius_saturation(self):
        assert cohen_radius(1.0, 1.0) == math.inf
        assert cohen_radius(0.0, 1.0) == -math.inf

    def test_domain(self):
        for p0 in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                cohen_bound(p0, 1.0, 1.0)
            with pytest.raises(DomainError):
                cohen_radius(p0, 1.0)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, p_lo, p_hi, r):
        lo, hi = min(p_lo, p_hi), max(p_lo, p_hi)
        assert cohen_bound(hi, 1.0, r) >= cohen_bound(lo, 1.0, r) - 1e-12
        assert cohen_bound(lo, 1.0, r) <= cohen_bound(lo, 1.0, r / 2.0) + 1e-12


class TestTengClosedForms:
    def test_branch_one(self):
        assert abs(teng_bound(0.99, 1.0, 0.5) - 0.9835127872929987) <= 1e-12

    def test_branch_two(self):
        assert abs(teng_bound(0.6, 1.0, 1.0) - 0.22992465073215143) <= 1e-12

    def test_branches_agree_at_certification_radius(self):
        for p0 in (0.8, 0.95):
            r_star = -math.log(2.0 * (1.0 - p0))
            branch1 = 1.0 - math.exp(r_star) * (1.0 - p0)
            branch2 = 0.5 * math.exp(-r_star - math.log(2.0 * (1.0 - p0)))
            assert abs(branch1 - 0.5) <= 1e-12 and abs(branch2 - 0.5) <= 1e-12
            assert abs(teng_bound(p0, 1.0, r_star) - 0.5) <= 1e-12

    def test_radius_examples(self):
        assert abs(teng_radius(0.75, 1.0) - math.log(2.0)) <= 1e-12
        assert teng_radius(1.0, 1.0) == math.inf
        assert abs(teng_radius(0.9, 2.0) - 2.0 * teng_radius(0.9, 1.0)) <= 1e-12
        assert teng_radius(0.5, 1.0) == 0.0
        assert teng_radius(0.3, 1.0) < 0.0

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, p0, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        assert teng_bound(p0, 1.0, hi) <= teng_bound(p0, 1.0, lo) + 1e-12
        assert teng_bound(min(p0 + 0.005, 1.0), 1.0, r1) >= teng_bound(p0, 1.0, r1) - 1e-12

    def test_dual_engine_agrees_with_teng(self):
        # the Laplacian closed-form D plugged into a grid maximization
        # reproduces the piecewise bound up to the grid gap
        from smoothcert import discrepancy_laplace_closed_form

        for p0, r in [(0.99, 0.5), (0.6, 1.0), (0.8, 0.3)]:
            best = max(
                float(l) * p0 - discrepancy_laplace_closed_form(1.0, r, float(l))
                for l in np.geomspace(1e-2, 1e4, 2000)
            )
            # branch-1 optima sit at a kink of D, so the grid loss is
            # first-order in the step: lam* (g - 1) max(p0, 1-p0)
            step = (1e4 / 1e-2) ** (1.0 / 1999.0)
            grid_loss = math.exp(r) * (step - 1.0)
            assert teng_bound(p0, 1.0, r) - grid_loss <= best <= teng_bound(p0, 1.0, r) + 1e-12


class TestBilateralRadius:
    def test_reduces_to_unilateral(self):
        pa = 0.8413447461
        got = gaussian_bilateral_radius(pa, 1.0 - pa, 1.0)
        assert abs(got - cohen_radius(pa, 1.0)) <= 1e-10

    def test_frozen_value(self):
        assert abs(gaussian_bilateral_radius(0.8413447461, 0.1586552539, 1.0) - 1.0) <= 1e-7

    def test_equal_probabilities(self):
        assert gaussian_bilateral_radius(0.6, 0.6, 1.0) == 0.0

    def test_not_certifiable_signal(self):
        assert gaussian_bilateral_radius(0.3, 0.6, 1.0) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_bilateral_radius(1.0, 0.5, 1.0)


class TestConfidenceBudget:
    def test_split(self):
        b = ConfidenceBudget.split(0.002)
        assert b.alpha_p0 == 0.001 and b.alpha_mc == 0.001

    def test_overspend_rejected(self):
        with pytest.raises(DomainError):
            ConfidenceBudget(alpha_total=0.001, alpha_p0=0.001, alpha_mc=0.001)

    def test_alpha_mc_above_half_rejected(self):
        # the DKW band of the MC stage holds only for alpha_mc <= 1/2
        with pytest.raises(DomainError, match="alpha_mc"):
            ConfidenceBudget(alpha_total=0.99, alpha_p0=0.3, alpha_mc=0.6)


class TestCertifyPipeline:
    def test_constant_one_certifies(self):
        fam, threat, rng = SmoothingFamily.gaussian(4, 1.0), ThreatModel("l2", 0.5), RandomStream(1)
        cert = certify(
            Constant(1), np.zeros(4), threat, n1=1000, budget=ConfidenceBudget.split(0.002),
            rng=rng, stats=noise_statistics(fam, 50_000, rng.child(1)),
        )
        assert abs(cert.p0_lower - 0.001 ** (1.0 / 1000.0)) <= 1e-12
        assert cert.status == CERTIFIED and cert.certified
        assert cert.bound > 0.5

    def test_constant_zero_abstains(self):
        fam, threat, rng = SmoothingFamily.gaussian(4, 1.0), ThreatModel("l2", 0.5), RandomStream(2)
        cert = certify(
            Constant(0), np.zeros(4), threat, n1=500, budget=ConfidenceBudget.split(0.002),
            rng=rng, stats=noise_statistics(fam, 1000, rng.child(1)),
        )
        assert cert.status == ABSTAIN and not cert.certified
        assert cert.p0_lower == 0.0
        payload = cert.to_dict()
        assert (payload["d_mean"], payload["epsilon"], payload["std_error"]) == (None, None, None)

    def test_never_certifies_at_half(self):
        # halfspace through x0 gives p0 = 1/2 exactly
        fam, threat, rng = SmoothingFamily.gaussian(3, 1.0), ThreatModel("l2", 0.25), RandomStream(3)
        clf = Halfspace(np.array([1.0, 0.0, 0.0]), 0.0)
        cert = certify(
            clf, np.zeros(3), threat, n1=2000, budget=ConfidenceBudget.split(0.01),
            rng=rng, stats=noise_statistics(fam, 5000, rng.child(1)),
        )
        assert not cert.certified

    def test_gaussian_consistency_with_cohen(self):
        # the dual engine reproduces the closed form applied to p0_lower
        fam, threat, rng = SmoothingFamily.gaussian(5, 1.0), ThreatModel("l2", 0.5), RandomStream(4)
        cert = certify(
            Constant(1), np.zeros(5), threat, n1=100_000, budget=ConfidenceBudget.split(0.002),
            rng=rng, stats=noise_statistics(fam, 400_000, rng.child(1)),
        )
        target = cohen_bound(cert.p0_lower, 1.0, 0.5)
        tol = cert.dual.epsilon + 3.0 * cert.dual.std_error
        assert abs(cert.bound - target) <= tol

    def test_serialization_roundtrip(self):
        fam, threat, rng = SmoothingFamily.gaussian(3, 1.0), ThreatModel("l2", 0.2), RandomStream(5)
        cert = certify(
            Constant(1), np.zeros(3), threat, n1=200, budget=ConfidenceBudget.split(0.01),
            rng=rng, stats=noise_statistics(fam, 2000, rng.child(1)),
        )
        payload = cert.to_dict()
        assert payload["certified"] is True
        assert payload["sample_counts"] == {"n1": 200, "n2": 2000}
        assert payload["family"]["variant"] == "gaussian"
        # the bound decomposes into the reported terms
        assert payload["std_error"] == cert.dual.std_error
        lam, p0 = payload["lambda_star"], payload["p0_lower"]
        assert abs(payload["bound"] - (lam * p0 - payload["d_mean"] - payload["epsilon"])) <= 1e-12

    def test_dimension_mismatch_aborts(self):
        fam, threat, rng = SmoothingFamily.gaussian(3, 1.0), ThreatModel("l2", 0.2), RandomStream(6)
        clf = Halfspace(np.array([1.0, 0.0]), 0.0)  # d=2 classifier
        with pytest.raises(DomainError):
            certify(
                clf, np.zeros(3), threat, n1=100, budget=ConfidenceBudget.split(0.01),
                rng=rng, stats=noise_statistics(fam, 100, rng.child(1)),
            )


class TestRadiusSearch:
    def test_radius_close_to_cohen(self):
        fam, rng = SmoothingFamily.gaussian(4, 1.0), RandomStream(10)
        radius, cert = certified_radius_search(
            Constant(1), np.zeros(4), "l2", r_max=4.0, n1=2000,
            budget=ConfidenceBudget.split(0.002), rng=rng,
            stats=noise_statistics(fam, 50_000, rng.child(1)),
        )
        assert cert is not None and cert.certified
        analytic = cohen_radius(cert.p0_lower, 1.0)
        # sound: never beyond the closed form
        assert radius <= analytic + 1e-9
        # the Hoeffding width scales with lambda* ~ exp(r Phi^-1(p0)), so
        # at n2 = 5e4 the MC-certified radius trails the closed form by
        # a few tenths; frozen seed gives 2.146 vs analytic 2.702
        assert radius >= 1.9

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_draws_noise_once(self, monkeypatch, blocks):
        # one draw of the n2 statistics per search, straight from their law: no
        # rows, whether the chunk size would split n2 into one block or several
        from smoothcert import discrepancy, families

        drawn: list[int] = []
        real = discrepancy._direct_statistics

        def counting(family, n, g):
            drawn.append(n)
            return real(family, n, g)

        def no_rows(*args, **kwargs):
            raise AssertionError("the l2 ray needs no full rows")

        monkeypatch.setattr(discrepancy, "_direct_statistics", counting)
        monkeypatch.setattr(discrepancy, "sample_chunks", no_rows)
        fam = SmoothingFamily.l2_power_tail(6, 2.0, 1.0)
        n2, budget, rng = 20_000, ConfidenceBudget.split(0.002), RandomStream(13)
        monkeypatch.setattr(families, "_CHUNK_SCALARS", fam.dim * -(-n2 // blocks))
        radius, cert = certified_radius_search(
            Constant(1), np.zeros(6), "l2", r_max=4.0, n1=2000, budget=budget, rng=rng,
            stats=noise_statistics(fam, n2, rng.child(1)),
        )
        assert drawn == [n2]
        assert cert is not None

        # reference: the same bisection with a fresh draw from the same stream per probe
        lo, hi, best = 0.0, 4.0, None
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            dual = dual_lower_bound(
                cert.p0_lower, ThreatModel("l2", mid), budget.alpha_mc / 12,
                noise_statistics(fam, n2, rng.child(1)),
            )
            if min(dual.bound, 1.0) > 0.5:
                lo, best = mid, dual
            else:
                hi = mid
        assert drawn == [n2] * 13
        assert radius == lo
        assert cert.bound == min(best.bound, 1.0)
        assert cert.lambda_star == best.lambda_star
        assert cert.dual.trace == best.trace

    def test_snaps_to_grid(self):
        fam, rng = SmoothingFamily.gaussian(3, 1.0), RandomStream(11)
        radius, cert = certified_radius_search(
            Constant(1), np.zeros(3), "l2", r_max=4.0, n1=1000,
            budget=ConfidenceBudget.split(0.002), rng=rng,
            stats=noise_statistics(fam, 20_000, rng.child(1)), r_step=0.05,
        )
        assert cert is not None
        assert abs(radius / 0.05 - round(radius / 0.05)) <= 1e-9

    def test_snap_to_zero_certifies_nothing(self):
        # a step wider than the certified radius snaps it to 0: no certificate
        # may stand beside radius 0
        rng = RandomStream(1)
        args = (Constant(1), np.zeros(3), "l2", 4.0, 1000, ConfidenceBudget.split(0.002), rng,
                noise_statistics(SmoothingFamily.gaussian(3, 1.0), 10_000, rng.child(1)))
        radius, cert = certified_radius_search(*args)
        assert 0.0 < radius < 4.0 and cert.certified
        assert certified_radius_search(*args, r_step=5.0) == (0.0, None)

    @pytest.mark.parametrize("r_step", [0.0, -0.05])
    def test_nonpositive_r_step_rejected(self, r_step):
        # a negative step would snap the radius up, past what was certified
        rng = RandomStream(11)
        with pytest.raises(DomainError, match="r_step"):
            certified_radius_search(
                Constant(1), np.zeros(3), "l2", r_max=4.0, n1=500,
                budget=ConfidenceBudget.split(0.002), rng=rng,
                stats=noise_statistics(SmoothingFamily.gaussian(3, 1.0), 500,
                                       rng.child(1)),
                r_step=r_step,
            )

    def test_hopeless_classifier(self):
        fam, rng = SmoothingFamily.gaussian(3, 1.0), RandomStream(12)
        radius, cert = certified_radius_search(
            Constant(0), np.zeros(3), "l2", r_max=2.0, n1=500,
            budget=ConfidenceBudget.split(0.01), rng=rng,
            stats=noise_statistics(fam, 500, rng.child(1)),
        )
        assert radius == 0.0 and cert is None


@pytest.mark.parametrize("label", [0, 1])
def test_unsupported_threat_raises_before_stage_one(monkeypatch, label):
    # statistics of a family with no theorem for the threat are refused
    # before stage 1 draws, whether or not p0 would clear 1/2
    import sys

    def no_draws(*args, **kwargs):
        raise AssertionError("stage 1 drew")

    # the package exports a function named certify, so take the module itself
    monkeypatch.setattr(sys.modules["smoothcert.certify"], "success_counts", no_draws)
    rng, budget = RandomStream(15), ConfidenceBudget.split(0.01)
    stats = noise_statistics(SmoothingFamily.laplacian(3, 1.0), 500, rng.child(1))
    with pytest.raises(UnsupportedError):
        certify(Constant(label), np.zeros(3), ThreatModel("l2", 0.5), 500, budget, rng, stats)
    with pytest.raises(UnsupportedError):
        certified_radius_search(Constant(label), np.zeros(3), "l2", 2.0, 500, budget, rng, stats)
