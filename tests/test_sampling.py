"""Random streams, scalar distributions, PSD factorization, copula sampling."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from lpboot.covariance import CovMatrix, cov_diagnostics
from lpboot.sampling import (MarginalKind, RngSeed, build_block_covariance,
                             copula_covariance, copula_sample, factorize_psd,
                             marginal_quantile, mvn_sample, normal_cdf)


class TestRngSeed:
    def test_same_path_reproduces(self):
        a = RngSeed(42).child(1, 2).generator().standard_normal(10)
        b = RngSeed(42).child(1, 2).generator().standard_normal(10)
        assert np.array_equal(a, b)

    def test_sibling_streams_differ(self):
        a = RngSeed(42).child(0).generator().standard_normal(10)
        b = RngSeed(42).child(1).generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_sibling_streams_uncorrelated(self):
        m = 100_000
        a = RngSeed(7).child(0).generator().standard_normal(m)
        b = RngSeed(7).child(1).generator().standard_normal(m)
        assert abs(np.corrcoef(a, b)[0, 1]) <= 4 / math.sqrt(m)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RngSeed(0).child(-1)

    def test_rejects_negative_master(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            RngSeed(-1)

    def test_rejects_an_index_that_is_no_integer(self):
        # int(1.5) would make it stream (1,)
        with pytest.raises(ValueError, match="stream index must be an integer, not 1.5"):
            RngSeed(1).child(1.5)
        with pytest.raises(ValueError, match="stream index"):
            RngSeed(1, (0, 1.5))


class TestNormalCdf:
    def test_center_and_tail(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(8.0) > 1 - 1e-14

    def test_against_numeric_integration(self):
        for z in (-2.5, -1.0, 0.3, 1.959964):
            oracle, _ = integrate.quad(
                lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -30, z)
            assert normal_cdf(z) == pytest.approx(oracle, abs=1e-10)


class TestMarginalQuantile:
    def test_medians(self):
        for kind in MarginalKind:
            assert marginal_quantile(kind, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_linear(self):
        assert marginal_quantile(MarginalKind.UNIFORM_SYM, 0.25) == pytest.approx(-0.5)

    def test_t4_cdf_roundtrip(self):
        # numeric integration of the t4 density recovers u
        for u in (0.05, 0.3, 0.7, 0.95):
            x = marginal_quantile(MarginalKind.STUDENT_T4, u)
            dens = lambda t: (3 / 8) * (1 + t * t / 4) ** (-2.5)
            val, _ = integrate.quad(dens, -200, x)
            assert val == pytest.approx(u, abs=1e-8)

    def test_t4_matches_scipy(self):
        u = np.linspace(0.01, 0.99, 37)
        got = marginal_quantile(MarginalKind.STUDENT_T4, u)
        assert np.allclose(got, stats.t.ppf(u, df=4), atol=1e-10)

    def test_normal_inverse(self):
        for u in (0.1, 0.5, 0.975):
            z = marginal_quantile(MarginalKind.STANDARD_NORMAL, u)
            assert normal_cdf(z) == pytest.approx(u, abs=1e-10)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-4, 1 - 1e-4, 10_000)
        for kind in MarginalKind:
            q = np.asarray(marginal_quantile(kind, grid))
            assert np.all(np.diff(q) > 0)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            marginal_quantile(MarginalKind.UNIFORM_SYM, 0.0)


class TestFactorizePsd:
    def test_identity(self):
        f = factorize_psd(CovMatrix(np.eye(4)))
        assert f.rank == 4
        assert np.allclose(f.factor @ f.factor.T, np.eye(4), atol=1e-10)

    def test_rank_one_block(self):
        v = 0.8 ** np.arange(5)
        f = factorize_psd(CovMatrix(np.outer(v, v)))
        assert f.rank == 1

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 3))
        S = CovMatrix(a @ a.T)
        f = factorize_psd(S)
        assert f.rank == 3
        assert np.abs(f.factor @ f.factor.T - S.values).max() <= 1e-8 * S.values.diagonal().max()

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            factorize_psd(CovMatrix(np.diag([1.0, -1.0])))


class TestMvnSample:
    def test_zero_covariance(self):
        f = factorize_psd(CovMatrix(np.zeros((3, 3))))
        assert np.all(mvn_sample(f, 5, RngSeed(0)) == 0.0)

    def test_rejects_a_count_below_one(self):
        f = factorize_psd(CovMatrix(np.eye(3)))
        for count in (0, -1):
            with pytest.raises(ValueError, match="count must be >= 1"):
                mvn_sample(f, count, RngSeed(0))

    def test_deterministic(self):
        f = factorize_psd(CovMatrix(np.eye(3)))
        assert np.array_equal(mvn_sample(f, 4, RngSeed(1)), mvn_sample(f, 4, RngSeed(1)))

    def test_moments(self):
        f = factorize_psd(CovMatrix(np.eye(2)))
        X = mvn_sample(f, 100_000, RngSeed(2))
        emp = X.T @ X / X.shape[0]
        assert np.abs(emp - np.eye(2)).max() <= 0.05

    def test_concentration_of_estimate(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) / np.sqrt(6)
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        S = CovMatrix(a @ a.T)
        m = 100_000
        X = mvn_sample(S.factor(), m, RngSeed(4))
        err = np.abs(X.T @ X / m - S.values).max()
        assert err <= 5 * math.sqrt(math.log(6) / m)


class TestBlockCovariance:
    def test_single_block_rank_one(self):
        S = build_block_covariance(4, 4, 0.8)
        assert cov_diagnostics(S).rank == 1
        assert S.values[0, 1] == pytest.approx(0.8)

    def test_identity_permutation_blocks(self):
        S = build_block_covariance(4, 2, 0.8, perm_seed=None)
        assert np.allclose(S.values[:2, :2], [[1.0, 0.8], [0.8, 0.64]])
        assert np.all(S.values[:2, 2:] == 0.0)

    def test_rank_at_scale(self):
        S = build_block_covariance(200, 2, 0.8, RngSeed(0))
        assert cov_diagnostics(S).rank == 100

    def test_permutation_is_similarity(self):
        plain = build_block_covariance(10, 2, 0.8)
        perm = build_block_covariance(10, 2, 0.8, RngSeed(3))
        assert np.allclose(np.sort(np.linalg.eigvalsh(plain.values)),
                           np.sort(np.linalg.eigvalsh(perm.values)))

    def test_rejects_nondividing_block(self):
        with pytest.raises(ValueError):
            build_block_covariance(10, 3, 0.8)
        for decay in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"decay must lie in \(0, 1\)"):
                build_block_covariance(10, 2, decay)


class TestCopulaSample:
    def test_uniform_range(self):
        S = build_block_covariance(6, 2, 0.8)
        X = copula_sample(S, MarginalKind.UNIFORM_SYM, 50, RngSeed(5))
        assert np.all((X >= -1.0) & (X <= 1.0))

    def test_marginals_exact(self):
        # KS of each coordinate against the target marginal CDF
        S = CovMatrix(np.eye(3))
        n = 100_000
        for kind, cdf in [(MarginalKind.UNIFORM_SYM, lambda x: (x + 1) / 2),
                          (MarginalKind.STUDENT_T4, lambda x: stats.t.cdf(x, df=4)),
                          (MarginalKind.STANDARD_NORMAL, lambda x: stats.norm.cdf(x))]:
            X = copula_sample(S, kind, n, RngSeed(6))
            xs = np.sort(X[:, 0])
            ks = np.abs(cdf(xs) - np.arange(1, n + 1) / n).max()
            assert ks <= 0.01

    def test_rejects_bad_input(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                copula_sample(CovMatrix(np.eye(2)), MarginalKind.UNIFORM_SYM, n, RngSeed(0))
        for diag in ([1.0, 0.0], [0.0, 0.0]):
            S = CovMatrix(np.diag(diag))
            with pytest.raises(ValueError, match="strictly positive diagonal"):
                copula_sample(S, MarginalKind.UNIFORM_SYM, 5, RngSeed(0))
            with pytest.raises(ValueError, match="strictly positive diagonal"):
                copula_covariance(S, MarginalKind.UNIFORM_SYM)

    def test_rank_order_preserved(self):
        S = build_block_covariance(4, 2, 0.8, RngSeed(7))
        Y = mvn_sample(S.factor(), 100, RngSeed(8))
        sd = np.sqrt(np.diag(S.values))
        X = copula_sample(S, MarginalKind.STUDENT_T4, 100, RngSeed(8))
        for j in range(4):
            assert np.array_equal(np.argsort(Y[:, j] / sd[j]), np.argsort(X[:, j]))


class TestCopulaCovariance:
    def test_uniform_closed_form(self):
        rho = 0.6
        S = CovMatrix(np.array([[1.0, rho], [rho, 1.0]]))
        C = copula_covariance(S, MarginalKind.UNIFORM_SYM).values
        assert C[0, 0] == pytest.approx(1 / 3, abs=1e-9)
        assert C[0, 1] == pytest.approx((2 / math.pi) * math.asin(rho / 2), abs=1e-9)

    def test_normal_marginal_recovers_correlation(self):
        rho = -0.45
        S = CovMatrix(np.array([[4.0, 2 * rho], [2 * rho, 1.0]]))
        C = copula_covariance(S, MarginalKind.STANDARD_NORMAL).values
        assert C[0, 1] == pytest.approx(rho, abs=1e-9)

    def test_t4_variance(self):
        S = CovMatrix(np.eye(2))
        C = copula_covariance(S, MarginalKind.STUDENT_T4).values
        assert C[0, 0] == pytest.approx(2.0, rel=1e-6)

    def test_matches_monte_carlo(self):
        S = build_block_covariance(4, 2, 0.8, RngSeed(9))
        C = copula_covariance(S, MarginalKind.UNIFORM_SYM)
        X = copula_sample(S, MarginalKind.UNIFORM_SYM, 200_000, RngSeed(10))
        emp = X.T @ X / X.shape[0]
        assert np.abs(emp - C.values).max() <= 0.01
