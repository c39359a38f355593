import math

import numpy as np
import pytest
from scipy import stats

from smoothcert import (
    DomainError,
    RandomStream,
    SingularityError,
    SmoothingFamily,
    UnsupportedError,
    log_density_ratio_shift,
    log_unnormalized_density,
    matched_sigma,
    radius_stats,
    sample,
    sample_chunks,
)
from smoothcert.discrepancy import noise_statistics
from smoothcert.families import _log_kernel_batch, _log_linf_law

from _oracles import mixed_norm_by_rejection


class TestConstruction:
    def test_variants(self):
        SmoothingFamily.gaussian(3, 1.0)
        SmoothingFamily.laplacian(3, 0.5)
        SmoothingFamily.l2_power_tail(5, 2.0, 1.0)
        SmoothingFamily.l1_power_tail(5, 2.0, 1.0)
        SmoothingFamily.linf_pure(5, 2.0, 1.0)
        SmoothingFamily.mixed_norm(5, 2.0, 1.0)

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            SmoothingFamily.gaussian(3, 0.0)
        with pytest.raises(DomainError):
            SmoothingFamily.laplacian(3, -1.0)
        with pytest.raises(DomainError):
            SmoothingFamily("gaussian", 3, b=1.0)

    def test_k_bounds(self):
        # the radius law needs k < d; k = d is not normalizable
        with pytest.raises(DomainError):
            SmoothingFamily.l2_power_tail(4, 4.0, 1.0)
        with pytest.raises(DomainError):
            SmoothingFamily.mixed_norm(4, -0.5, 1.0)
        with pytest.raises(DomainError):
            SmoothingFamily("gaussian", 3, k=1.0, sigma=1.0)
        # k in [d-1, d) is legal at type level (d=2 vertex checks use k = d-1)
        SmoothingFamily.mixed_norm(2, 1.0, 1.0)


class TestDensities:
    def test_gaussian_value(self):
        fam = SmoothingFamily.gaussian(4, 1.0)
        z = np.array([2.0, 0.0, 0.0, 0.0])  # ||z||^2 = 4
        assert abs(log_unnormalized_density(fam, z) - (-2.0)) <= 1e-12

    def test_power_tail_k0_equals_gaussian(self):
        g = SmoothingFamily.gaussian(6, 0.8)
        p = SmoothingFamily.l2_power_tail(6, 0.0, 0.8)
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.normal(size=6)
            assert log_unnormalized_density(g, z) == log_unnormalized_density(p, z)

    def test_mixed_norm_power_term(self):
        fam = SmoothingFamily.mixed_norm(4, 3.0, 1.0)
        z = np.array([1.0, 0.0, 0.0, 0.0])  # ||z||_inf = 1, power term contributes 0
        assert abs(log_unnormalized_density(fam, z) - (-0.5)) <= 1e-12

    def test_origin_singularity(self):
        fam = SmoothingFamily.l2_power_tail(3, 1.0, 1.0)
        with pytest.raises(SingularityError):
            log_unnormalized_density(fam, np.zeros(3))

    def test_dimension_checked(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        with pytest.raises(DomainError):
            log_unnormalized_density(fam, np.zeros(4))


class TestDensityRatio:
    def test_identity_shift(self):
        rng = np.random.default_rng(2)
        for fam in (
            SmoothingFamily.gaussian(5, 1.3),
            SmoothingFamily.laplacian(5, 0.7),
            SmoothingFamily.mixed_norm(5, 2.0, 1.0),
        ):
            z = rng.normal(size=5)
            assert log_density_ratio_shift(fam, z, np.zeros(5)) == 0.0

    def test_equidistant_point(self):
        fam = SmoothingFamily.gaussian(1, 1.0)
        assert abs(log_density_ratio_shift(fam, np.array([1.0]), np.array([2.0]))) <= 1e-12

    def test_direct_formula_1d(self):
        fam = SmoothingFamily.gaussian(1, 1.0)
        got = log_density_ratio_shift(fam, np.array([0.0]), np.array([1.0]))
        assert abs(got - (-0.5)) <= 1e-12

    def test_matches_kernel_difference(self):
        # the optimized ratio paths must agree with direct density evaluation
        rng = np.random.default_rng(3)
        families = [
            SmoothingFamily.gaussian(6, 0.9),
            SmoothingFamily.laplacian(6, 1.2),
            SmoothingFamily.l2_power_tail(6, 2.5, 1.1),
            SmoothingFamily.l1_power_tail(6, 1.5, 0.8),
            SmoothingFamily.linf_pure(6, 2.0, 1.0),
            SmoothingFamily.mixed_norm(6, 2.0, 1.0),
        ]
        for fam in families:
            for _ in range(50):
                z = rng.normal(size=6) * 2.0
                delta = rng.normal(size=6)
                direct = float(
                    _log_kernel_batch(fam, (z - delta)[None, :])[0]
                    - _log_kernel_batch(fam, z[None, :])[0]
                )
                assert abs(log_density_ratio_shift(fam, z, delta) - direct) <= 1e-9

    def test_translation_invariance_gaussian(self):
        # ratio depends on (z, delta) only through the formula's norms:
        # adding c to z changes the value per the dot-product formula only
        fam = SmoothingFamily.gaussian(4, 1.0)
        rng = np.random.default_rng(4)
        z, delta = rng.normal(size=4), rng.normal(size=4)
        got = log_density_ratio_shift(fam, z, delta)
        expect = (2.0 * z @ delta - delta @ delta) / 2.0
        assert abs(got - expect) <= 1e-12

    def test_singularity_at_delta(self):
        fam = SmoothingFamily.mixed_norm(3, 1.0, 1.0)
        delta = np.array([0.5, 0.0, 0.0])
        with pytest.raises(SingularityError):
            log_density_ratio_shift(fam, delta.copy(), delta)


class TestSamplers:
    def test_chi_square_mean(self):
        batch = sample(SmoothingFamily.l2_power_tail(10, 0.0, 1.0), 1_000_000, RandomStream(10))
        assert abs((batch.points**2).sum(axis=1).mean() - 10.0) <= 0.05

    def test_l2_power_tail_second_moment(self):
        batch = sample(SmoothingFamily.l2_power_tail(4, 2.0, 1.0), 1_000_000, RandomStream(11))
        assert abs((batch.points**2).sum(axis=1).mean() - 2.0) <= 0.02

    def test_l1_power_tail_norm_mean(self):
        batch = sample(SmoothingFamily.l1_power_tail(5, 1.0, 1.0), 1_000_000, RandomStream(12))
        assert abs(np.abs(batch.points).sum(axis=1).mean() - 4.0) <= 0.02

    def test_mixed_norm_scalar_reduction(self):
        # no sampler rejects, so every batch reports acceptance 1; at d=1
        # the row is +-M itself
        batch = sample(SmoothingFamily.mixed_norm(1, 0.5, 1.0), 10_000, RandomStream(13))
        assert batch.acceptance_rate == 1.0

    def test_rows_never_at_origin(self):
        for fam in (
            SmoothingFamily.mixed_norm(4, 2.0, 1.0),
            SmoothingFamily.l1_power_tail(4, 1.0, 1.0),
            SmoothingFamily.linf_pure(4, 1.0, 1.0),
        ):
            batch = sample(fam, 10_000, RandomStream(14))
            assert np.abs(batch.points).max(axis=1).min() > 0.0

    def test_sampling_pure(self):
        fam = SmoothingFamily.mixed_norm(3, 1.0, 1.0)
        a = sample(fam, 500, RandomStream(15, 2))
        b = sample(fam, 500, RandomStream(15, 2))
        assert np.array_equal(a.points, b.points)

    def test_l2_power_tail_matches_out_of_place_formula(self):
        # the draw scales each normal row in place, once; the values must be
        # exactly those of u * (radius / ||u||) from the same generator
        fam, n = SmoothingFamily.l2_power_tail(7, 2.0, 1.3), 4_000
        rng = RandomStream(15, 3)
        g = rng.generator()
        radius = fam.sigma * np.sqrt(2.0 * g.gamma((fam.dim - fam.k) / 2.0, 1.0, size=n))
        u = g.standard_normal((n, fam.dim))
        expected = u * (radius / np.sqrt(np.einsum("ij,ij->i", u, u)))[:, None]
        assert np.array_equal(sample(fam, n, rng).points, expected)

    def test_chunked_draws_cover_n(self):
        fam = SmoothingFamily.gaussian(1000, 1.0)
        total = sum(block.shape[0] for block in sample_chunks(fam, 12_345, RandomStream(16)))
        assert total == 12_345

    def test_shards_draw_alone(self, monkeypatch):
        # shard i of the n rows comes from its own stream, without shards 0 .. i-1
        from smoothcert import families

        monkeypatch.setattr(families, "_SHARD_ROWS", 400)
        fam, n, rng = SmoothingFamily.mixed_norm(3, 1.0, 1.0), 1_000, RandomStream(18)
        blocks = list(sample_chunks(fam, n, rng))
        assert [len(b) for b in blocks] == [400, 400, 200]
        for i, block in enumerate(blocks):
            (alone,) = sample_chunks(fam, n, rng, slice(i, i + 1))
            assert np.array_equal(alone, block)
        (last,) = sample_chunks(fam, n, rng, slice(2, None))
        assert np.array_equal(last, sample(fam, 200, rng.shard(2)).points)

    def test_shards_beyond_the_child_fanout(self, monkeypatch):
        # one row per shard: 2,000 shards outrun the 1023 child tags of a stream,
        # yet every shard has a stream of its own
        from smoothcert import families

        monkeypatch.setattr(families, "_SHARD_ROWS", 1)
        fam, n, rng = SmoothingFamily.gaussian(2, 1.0), 2_000, RandomStream(19)
        rows = np.concatenate(list(sample_chunks(fam, n, rng)))
        assert rows.shape == (n, 2) and np.isfinite(rows).all()
        assert np.array_equal(rows, np.concatenate(list(sample_chunks(fam, n, rng))))
        assert len(np.unique(rows, axis=0)) == n

    def test_mixed_norm_high_power_draws(self):
        # (50, 40) starved the old rejection sampler (acceptance below 1e-6)
        points = sample(SmoothingFamily.mixed_norm(50, 40.0, 1.0), 100, RandomStream(17)).points
        assert points.shape == (100, 50) and np.isfinite(points).all()
        assert np.abs(points).max(axis=1).min() > 0.0


class TestReductionLaws:
    def test_gaussian_reduction_two_sample(self):
        a = sample(SmoothingFamily.gaussian(8, 1.0), 100_000, RandomStream(20))
        b = sample(SmoothingFamily.l2_power_tail(8, 0.0, 1.0), 100_000, RandomStream(21))
        p = stats.ks_2samp(
            np.linalg.norm(a.points, axis=1), np.linalg.norm(b.points, axis=1)
        ).pvalue
        assert p > 0.01

    def test_laplacian_reduction_two_sample(self):
        a = sample(SmoothingFamily.laplacian(8, 1.0), 100_000, RandomStream(22))
        b = sample(SmoothingFamily.l1_power_tail(8, 0.0, 1.0), 100_000, RandomStream(23))
        p = stats.ks_2samp(
            np.abs(a.points).sum(axis=1), np.abs(b.points).sum(axis=1)
        ).pvalue
        assert p > 0.01

    def test_reduction_identical_ratios(self):
        g = SmoothingFamily.gaussian(6, 1.1)
        p = SmoothingFamily.l2_power_tail(6, 0.0, 1.1)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            z, delta = rng.normal(size=6), rng.normal(size=6) * 0.5
            assert abs(
                log_density_ratio_shift(g, z, delta) - log_density_ratio_shift(p, z, delta)
            ) <= 1e-12

    def test_radius_law_ks(self):
        d, k, sigma = 7, 2.5, 1.3
        batch = sample(SmoothingFamily.l2_power_tail(d, k, sigma), 100_000, RandomStream(24))
        norms = np.linalg.norm(batch.points, axis=1)
        # r = sigma sqrt(2 G), G ~ Gamma((d-k)/2) => G = r^2 / (2 sigma^2)
        cdf = lambda r: stats.gamma.cdf(r * r / (2.0 * sigma**2), a=(d - k) / 2.0)
        ks = stats.kstest(norms, cdf).statistic
        assert ks < 0.005

    def test_linf_pure_mode(self):
        d, k = 20, 4.0
        batch = sample(SmoothingFamily.linf_pure(d, k, 1.0), 1_000_000, RandomStream(25))
        ninf = np.abs(batch.points).max(axis=1)
        hist, edges = np.histogram(ninf, bins=120, range=(2.0, 6.0))
        mode_emp = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
        mode_true = math.sqrt(d - 1.0 - k)
        assert abs(mode_emp - mode_true) <= 0.05 * mode_true

    def test_mixed_norm_2d_histogram_tv(self):
        # binned sample law vs quadrature-normalized density
        fam = SmoothingFamily.mixed_norm(2, 0.5, 1.0)
        n = 1_000_000
        batch = sample(fam, n, RandomStream(26))
        extent, bins = 4.0, 24
        hist, _, _ = np.histogram2d(
            batch.points[:, 0], batch.points[:, 1],
            bins=bins, range=[[-extent, extent], [-extent, extent]],
        )
        emp = hist / n
        # true bin masses on a 20x20 midpoint subgrid per bin
        sub = 20
        m = bins * sub
        step = 2.0 * extent / m
        centers = -extent + (np.arange(m) + 0.5) * step
        xx, yy = np.meshgrid(centers, centers, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        with np.errstate(divide="ignore"):
            density = np.exp(_log_kernel_batch(fam, pts)).reshape(m, m)
        true = density.reshape(bins, sub, bins, sub).sum(axis=(1, 3))
        true /= density.sum()
        inside = emp.sum()
        tv = 0.5 * (np.abs(emp - true).sum() + (1.0 - inside))
        assert tv < 0.01

    def test_thin_shell_gaussian(self):
        d, n = 1000, 100_000
        hits = 0
        target = math.sqrt(d)
        for block in sample_chunks(SmoothingFamily.gaussian(d, 1.0), n, RandomStream(27)):
            norms = np.linalg.norm(block, axis=1)
            hits += int(((norms >= target - 4.0) & (norms <= target + 4.0)).sum())
        assert hits / n >= 0.99

    def test_thin_shell_laplacian(self):
        d, n, delta = 1000, 100_000, 0.05
        width = 1.0 / math.sqrt(d * delta)
        hits = 0
        for block in sample_chunks(SmoothingFamily.laplacian(d, 1.0), n, RandomStream(28)):
            means = np.abs(block).sum(axis=1) / d
            hits += int(((means >= 1.0 - width) & (means <= 1.0 + width)).sum())
        assert hits / n >= 0.95


# every (d, k) edge the family accepts: k = 0, the hyperparameter bound
# k = d-1, and k = d-0.1, where M's density has a pole at 0
_EDGE_CASES = sorted({(d, k) for d in (1, 2, 3, 50) for k in (0.0, d - 1.0, d - 0.1)})


class TestMixedNormSampler:
    """The conditional mixed_norm sampler, against the frozen rejection sampler."""

    @pytest.mark.parametrize("d, k", [(5, 1.5), (16, 4.0)])
    def test_matches_rejection_reference(self, d, k):
        # two-sample KS on ||z||_inf, ||z||_2 and the LinfVertex statistics
        # (sum z, max z, min z); every p-value must clear 1e-3
        n, sigma = 20_000, 0.8
        got = sample(SmoothingFamily.mixed_norm(d, k, sigma), n, RandomStream(60)).points
        ref = mixed_norm_by_rejection(d, k, sigma, n, np.random.default_rng(61))
        for stat in (
            lambda z: np.abs(z).max(axis=1),
            lambda z: np.linalg.norm(z, axis=1),
            lambda z: z.sum(axis=1),
            lambda z: z.max(axis=1),
            lambda z: z.min(axis=1),
        ):
            assert stats.ks_2samp(stat(got), stat(ref)).pvalue >= 1e-3

    @pytest.mark.parametrize("d, k, sigma", [(5, 1.5, 0.8), (16, 4.0, 1.0), (2, 1.9, 1.3)])
    def test_second_moment_identity(self, d, k, sigma):
        # ||z||_2^2 = sigma^2 * 2 Gamma((d-k)/2) exactly, so its mean is sigma^2 (d-k)
        n = 200_000
        fam = SmoothingFamily.mixed_norm(d, k, sigma)
        sq = (sample(fam, n, RandomStream(62)).points ** 2).sum(axis=1)
        assert abs(sq.mean() - sigma**2 * (d - k)) <= 4.0 * sq.std() / math.sqrt(n)

    @pytest.mark.parametrize("d, k, sigma", [(5, 1.5, 0.7), (1, 0.5, 1.3)])
    def test_layout(self, d, k, sigma):
        # the documented variates, in order, from rng.generator()
        from scipy.special import ndtr, ndtri

        n, rng = 4_001, RandomStream(63)
        g = rng.generator()
        u = (g.integers(0, 2**52, size=n) + 0.5) * 2.0**-52
        m = np.exp(_log_linf_law(d, k).ppf(u))
        j = g.integers(0, d, size=n)
        sign = 2.0 * g.integers(0, 2, size=n) - 1.0
        lo = ndtr(-m)[:, None]
        rest = np.clip(ndtri(lo + g.random((n, d - 1)) * (1.0 - 2.0 * lo)),
                       -m[:, None], m[:, None])
        want = np.column_stack([sign * m, rest])
        for i in range(n):
            want[i, [0, j[i]]] = want[i, [j[i], 0]]
        got = sample(SmoothingFamily.mixed_norm(d, k, sigma), n, rng).points
        assert np.array_equal(got, sigma * want)
        assert np.array_equal(np.abs(got).max(axis=1), sigma * m)

    @pytest.mark.parametrize("d, k", _EDGE_CASES, ids=[f"d{d}-k{k:g}" for d, k in _EDGE_CASES])
    def test_edges_draw(self, d, k):
        points = sample(SmoothingFamily.mixed_norm(d, k, 1.0), 100, RandomStream(64)).points
        assert points.shape == (100, d) and np.isfinite(points).all()
        assert np.abs(points).max(axis=1).min() > 0.0


class TestOriginDraws:
    """Near k = d the radius law underflows to 0, where every ratio is undefined."""

    @pytest.mark.parametrize("family", [
        SmoothingFamily.mixed_norm(1, 0.999999, 1.0),
        SmoothingFamily.mixed_norm(2, 1.9999, 1.0),
        SmoothingFamily.l2_power_tail(2, 1.9999, 1.0),
    ], ids=lambda f: f"{f.variant}-d{f.dim}-k{f.k:g}")
    def test_rows_at_the_origin_raise(self, family):
        with pytest.raises(DomainError, match=f"d={family.dim}, k={family.k}"):
            sample(family, 10_000, RandomStream(66))

    def test_direct_statistics_raise(self):
        family = SmoothingFamily.l2_power_tail(2, 1.9999, 1.0)
        with pytest.raises(DomainError, match="d=2, k=1.9999"):
            noise_statistics(family, 10_000, RandomStream(66))

    @pytest.mark.parametrize("variant", ["mixed_norm", "l2_power_tail"])
    def test_k_equal_d_minus_one_still_draws(self, variant):
        # the d = 2 worst-shift verification uses k = d-1
        points = sample(SmoothingFamily(variant, 2, k=1.0, sigma=1.0), 10_000, RandomStream(66)).points
        assert np.abs(points).max(axis=1).min() > 0.0


class TestRadiusStats:
    def test_l2_modes(self):
        assert radius_stats(SmoothingFamily.l2_power_tail(10, 0.0, 1.0)).mode == 3.0
        assert radius_stats(SmoothingFamily.l2_power_tail(10, 5.0, 1.0)).mode == 2.0

    def test_l1_mean(self):
        assert radius_stats(SmoothingFamily.l1_power_tail(5, 1.0, 2.0)).mean == 8.0

    def test_gaussian_mean_d100(self):
        stats_ = radius_stats(SmoothingFamily.gaussian(100, 1.0))
        assert abs(stats_.mean - 9.975031639550789) <= 1e-9

    def test_second_moment_identity(self):
        st_ = radius_stats(SmoothingFamily.l2_power_tail(12, 3.0, 0.7))
        m = 12 - 1 - 3.0
        assert abs((st_.variance + st_.mean**2) - 0.7**2 * (m + 1.0)) <= 1e-12

    def test_variance_nonnegative(self):
        for k in (0.0, 0.5, 3.0, 8.5):
            assert radius_stats(SmoothingFamily.l2_power_tail(10, k, 2.0)).variance >= 0.0

    def test_mixed_unsupported(self):
        with pytest.raises(UnsupportedError):
            radius_stats(SmoothingFamily.mixed_norm(5, 1.0, 1.0))

    def test_sample_moment_agreement(self):
        fam = SmoothingFamily.l2_power_tail(9, 2.0, 1.2)
        st_ = radius_stats(fam)
        norms = np.linalg.norm(sample(fam, 1_000_000, RandomStream(29)).points, axis=1)
        se_mean = norms.std() / math.sqrt(norms.size)
        assert abs(norms.mean() - st_.mean) <= 4.0 * se_mean
        centered = (norms - norms.mean()) ** 2
        se_var = centered.std() / math.sqrt(norms.size)
        assert abs(norms.var() - st_.variance) <= 4.0 * se_var


class TestMatchedSigma:
    def test_identity_at_k0(self):
        assert matched_sigma(10, 0.0, 0.37) == 0.37

    def test_sqrt_two(self):
        assert abs(matched_sigma(101, 50.0, 1.0) - math.sqrt(2.0)) <= 1e-12

    def test_cifar_scale(self):
        # d = 3*32*32, k = 500 at sigma0 = 0.5
        assert abs(matched_sigma(3073, 500.0, 0.5) - 0.5 * math.sqrt(3072.0 / 2572.0)) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            matched_sigma(10, 9.0, 1.0)
        with pytest.raises(DomainError):
            matched_sigma(10, 9.5, 1.0)
