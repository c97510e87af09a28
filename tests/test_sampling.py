"""Random streams, scalar distributions, PSD factorization, copula sampling."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from lpboot import sampling
from lpboot.covariance import (PSD_CERT_TOL, RANK_TOL, CovMatrix, _lapacke, cov_diagnostics,
                               psd_project, sample_covariance, threshold)
from lpboot.sampling import (MarginalKind, RngSeed, _pivoted_factor, build_block_covariance,
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


PSTRF = _lapacke("dpstrf")


def law_cases():
    """Block rank-one (rank 30 of 120), a naive estimate (rank 39 of 100), its
    thresholded estimate, condition number 1e8, 1 x 1 and zero."""
    rng = RngSeed(30).generator()
    X = rng.standard_normal((40, 100)) * np.linspace(0.5, 3.0, 100)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    return {"block": build_block_covariance(120, 4, 0.8, RngSeed(31)).values,
            "naive": sample_covariance(X).values,
            "thresholded": psd_project(threshold(sample_covariance(X), 0.3)).values,
            "near-singular": (Q * np.logspace(0, -8, 60)) @ Q.T,
            "1x1": np.array([[2.5]]),
            "zero": np.zeros((5, 5))}


class TestFactorizePsd:
    def test_identity(self):
        L = factorize_psd(CovMatrix(np.eye(4)))
        assert L.shape == (4, 4)
        assert np.allclose(L @ L.T, np.eye(4), atol=1e-10)

    def test_rank_one_block(self):
        v = 0.8 ** np.arange(5)
        L = factorize_psd(CovMatrix(np.outer(v, v)))
        assert L.shape == (5, 1)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 3))
        S = CovMatrix(a @ a.T)
        L = factorize_psd(S)
        assert L.shape == (6, 3)
        assert np.abs(L @ L.T - S.values).max() <= 1e-8 * S.values.diagonal().max()

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            factorize_psd(CovMatrix(np.diag([1.0, -1.0])))

    def test_rejects_indefinite_past_positive_pivots(self):
        # dpstrf's leading pivots are positive and it stops at a rank, but the
        # certificate rejects its factor, and eigh raises as it does alone
        Q, _ = np.linalg.qr(np.random.default_rng(32).normal(size=(8, 8)))
        for a in (np.array([[1.0, 2.0], [2.0, 1.0]]),
                  (Q * [1.0, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01, -1e-6]) @ Q.T):
            S = CovMatrix(a)
            if PSTRF is not None:
                assert _pivoted_factor(S.values) is None
            with pytest.raises(ValueError, match="not positive semi-definite"):
                factorize_psd(S)

    @pytest.mark.skipif(PSTRF is None, reason="the library lacks dpstrf")
    def test_certificate_accepts_only_what_eigh_accepts(self):
        # smallest eigenvalue -t max|lambda| on both sides of PSD_CERT_TOL
        Q, _ = np.linalg.qr(np.random.default_rng(33).normal(size=(20, 20)))
        accepted = 0
        for t in np.logspace(-11, -6, 21):
            S = CovMatrix((Q * np.append(np.linspace(1.0, 0.1, 19), -t)) @ Q.T)
            w = np.linalg.eigvalsh(S.values)
            if _pivoted_factor(S.values) is not None:
                accepted += 1
                assert w.min() >= -PSD_CERT_TOL * np.abs(w).max()
        assert accepted > 0

    @pytest.mark.parametrize("name", ["block", "naive", "thresholded", "near-singular", "1x1",
                                      "zero"])
    def test_reconstructs_at_the_eigen_rank(self, name):
        # ||L L^T - S||_F <= 2 d eps ||S||_F, and the rank is the eigenvalue
        # count above RANK_TOL * max|lambda|; every case but zero is pivoted
        S = CovMatrix(law_cases()[name])
        d, L = S.dim, factorize_psd(S)
        w = np.linalg.eigvalsh(S.values)
        assert L.shape == (d, int((w > RANK_TOL * np.abs(w).max()).sum()))
        err = np.linalg.norm(L @ L.T - S.values)
        assert err <= 2 * d * np.finfo(float).eps * np.linalg.norm(S.values)
        if PSTRF is not None and name != "zero":
            assert _pivoted_factor(S.values) is not None

    def test_scales_exactly_by_powers_of_two(self):
        # S 4^k has the factor 2^k L, bit for bit, while S 4^k stays normal:
        # without the exact rescale the certificate overflows at k = 500
        # and the pivots lose bits at k = -500
        S = law_cases()["naive"]
        L = factorize_psd(CovMatrix(S))
        for k in (-500, -100, 100, 500):
            assert np.array_equal(factorize_psd(CovMatrix(np.ldexp(S, 2 * k))), np.ldexp(L, k))

    def test_same_law_as_the_eigen_factor(self, monkeypatch):
        # two-sample KS of m = 20 000 draws per factor on four statistics of
        # two matrices: by Massart's DKW bound and a union over the 8
        # comparisons, all stay below 2 sqrt(log(32 / 1e-6) / (2 m)) but with
        # probability at most 1e-6 under the same law
        m = 20_000
        bound = 2.0 * math.sqrt(math.log(32 / 1e-6) / (2 * m))
        for name in ("block", "naive"):
            values = law_cases()[name]
            pivoted = mvn_sample(CovMatrix(values), m, RngSeed(40))
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "_lapacke", lambda routine: None)
                eigen = mvn_sample(CovMatrix(values), m, RngSeed(41))
            u = np.linspace(-1.0, 1.0, values.shape[0])
            for stat in (lambda V: np.linalg.norm(V, axis=1), lambda V: np.abs(V).max(axis=1),
                         lambda V: V[:, 0], lambda V: V @ u):
                assert stats.ks_2samp(stat(pivoted), stat(eigen)).statistic <= bound


class TestMvnSample:
    def test_zero_covariance(self):
        S = CovMatrix(np.zeros((3, 3)))
        assert S.factor().shape == (3, 0)
        assert np.all(mvn_sample(S, 5, RngSeed(0)) == 0.0)

    def test_rejects_a_count_below_one(self):
        S = CovMatrix(np.eye(3))
        for count in (0, -1):
            with pytest.raises(ValueError, match="count must be >= 1"):
                mvn_sample(S, count, RngSeed(0))

    def test_deterministic(self):
        S = CovMatrix(np.eye(3))
        assert np.array_equal(mvn_sample(S, 4, RngSeed(1)), mvn_sample(S, 4, RngSeed(1)))

    def test_moments(self):
        X = mvn_sample(CovMatrix(np.eye(2)), 100_000, RngSeed(2))
        emp = X.T @ X / X.shape[0]
        assert np.abs(emp - np.eye(2)).max() <= 0.05

    def test_concentration_of_estimate(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) / np.sqrt(6)
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        S = CovMatrix(a @ a.T)
        m = 100_000
        X = mvn_sample(S, m, RngSeed(4))
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
        Y = mvn_sample(S, 100, RngSeed(8))
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
