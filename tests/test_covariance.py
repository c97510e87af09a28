"""Covariance estimators, regularizers, projection, CV tuning, diagnostics."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpboot import covariance, inference, parallel, sampling
from lpboot.covariance import (CovMatrix, band, correlation_threshold,
                               cov_diagnostics, cov_error, cv_select_lambda,
                               psd_project, sample_covariance, threshold)
from lpboot.lp import LpExponent, lp_norm
from lpboot.sampling import RngSeed, factorize_psd


def without_lapacke(monkeypatch, *routines):
    """Make covariance._lapacke report the named routines missing, so their
    numpy fallbacks run."""
    lapacke = covariance._lapacke
    monkeypatch.setattr(covariance, "_lapacke",
                        lambda routine: None if routine in routines else lapacke(routine))


def random_symmetric(rng, d):
    a = rng.normal(size=(d, d))
    return CovMatrix(a + a.T)


def _cv_select_lambda_reference(X, grid, folds, seed):
    """Per-lambda CV loop: thresholds, projects and scores every grid point."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("empty threshold grid")
    if folds < 1:
        raise ValueError("folds must be >= 1")
    n1 = math.ceil(n / 3)
    if n1 < 2 or n - n1 < 2:
        raise ValueError(f"n={n} too small to split into {n1} / {n - n1}")
    risks = np.zeros(len(grid))
    for nu in range(folds):
        rng = seed.child(nu).generator()
        perm = rng.permutation(n)
        S1 = sample_covariance(X[perm[:n1]])
        S2 = sample_covariance(X[perm[n1:]])
        for i, lam in enumerate(grid):
            D = psd_project(correlation_threshold(S1, lam)).values - S2.values
            risks[i] += math.sqrt(float(np.einsum("ij,ij->", D, D)))
    risks /= folds
    best = int(np.argmin(risks))  # argmin returns the first (smallest-lambda) minimizer
    return grid[best], risks.tolist()


def assert_matches_reference(got, ref):
    """Equal lambda-hat, risk entries exact where scored, and every NaN entry a
    grid point whose reference risk is strictly above the minimum."""
    assert got[0] == ref[0]
    risks, ref_risks = np.array(got[1]), np.array(ref[1])
    scored = ~np.isnan(risks)
    assert np.array_equal(risks[scored], ref_risks[scored])
    assert np.all(ref_risks[~scored] > ref_risks.min())


class TestCovMatrix:
    def test_symmetrized_on_construction(self):
        m = CovMatrix(np.array([[1.0, 0.4], [0.0, 1.0]]))
        assert np.allclose(m.values, m.values.T)
        assert m.values[0, 1] == pytest.approx(0.2)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            CovMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            CovMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_factor_computed_once(self, monkeypatch):
        calls = []

        def counting(S):
            calls.append(S)
            return factorize_psd(S)

        monkeypatch.setattr(sampling, "factorize_psd", counting)
        m = CovMatrix(np.diag([1.0, 1e-6]))
        first = m.factor()
        assert first.shape == (2, 2) and m.factor() is first
        assert len(calls) == 1 and calls[0] is m


class TestSampleCovariance:
    def test_identical_rows_give_zero(self):
        X = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        assert np.all(sample_covariance(X).values == 0.0)

    def test_divisor_is_n(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(sample_covariance(X).values, [[1.0, 0.0], [0.0, 0.0]])

    def test_concentration(self):
        # Monte Carlo oracle: max-entry error <= 5 sqrt(log d / m) at m=1e5
        rng = np.random.default_rng(1)
        d, m = 8, 100_000
        A = rng.normal(size=(d, d)) / np.sqrt(d)
        A = A / np.linalg.norm(A, axis=1, keepdims=True)  # unit diagonal for S0
        S0 = A @ A.T
        X = rng.normal(size=(m, d)) @ A.T
        err = np.abs(sample_covariance(X).values - S0).max()
        assert err <= 5 * np.sqrt(np.log(d) / m)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((1, 3)))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 70), d=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([-60, 0, 60]), constant=st.booleans(),
           negative_zeros=st.booleans())
    @example(n=2, d=1, seed=0, scale=0, constant=True, negative_zeros=True)
    @example(n=70, d=60, seed=1, scale=60, constant=True, negative_zeros=True)
    @example(n=70, d=60, seed=2, scale=-60, constant=True, negative_zeros=False)
    def test_gram_is_sample_covariance_and_exactly_symmetric(self, n, d, seed, scale,
                                                             constant, negative_zeros):
        # CV's folds take _gram's matrix as it is, skipping CovMatrix's
        # symmetrization, which must therefore leave every byte as it is
        X = RngSeed(seed).generator().standard_normal((n, d)) * 2.0**scale
        if constant:
            X[:, d // 2] = 3.0 * 2.0**scale
        if negative_zeros:
            X[::2, 0] = -0.0
        with parallel.hold():
            S = covariance._gram(X)
        assert S.tobytes() == S.T.tobytes()
        assert S.tobytes() == sample_covariance(X).values.tobytes()


class TestThreshold:
    def test_zero_level_hard_is_identity(self):
        rng = np.random.default_rng(2)
        m = random_symmetric(rng, 4)
        assert np.array_equal(threshold(m, 0.0).values, m.values)

    def test_hard_definition(self):
        m = CovMatrix(np.array([[1.0, 0.05], [0.05, 0.5]]))
        out = threshold(m, 0.1).values
        assert out[0, 1] == 0.0 and out[1, 1] == 0.5

    @given(st.floats(0.0, 2.0), st.integers(0, 10))
    @settings(max_examples=100)
    def test_operator_properties(self, lam, seed):
        # off the diagonal |T(u)| <= |u|, T(u) = 0 for |u| <= lam and
        # |T(u) - u| <= lam; the diagonal is left alone
        rng = np.random.default_rng(seed)
        m = random_symmetric(rng, 5)
        out = threshold(m, lam).values
        off = ~np.eye(5, dtype=bool)
        u, t = m.values[off], out[off]
        assert np.all(np.abs(t) <= np.abs(u) + 1e-12)
        assert np.all(t[np.abs(u) <= lam] == 0.0)
        assert np.all(np.abs(t - u) <= lam + 1e-12)
        assert np.array_equal(np.diag(out), np.diag(m.values))
        assert np.allclose(out, out.T)

    @pytest.mark.parametrize("lam", [math.nan, -0.1, -math.inf])
    def test_rejects_a_level_that_is_not_nonnegative(self, lam):
        # NaN compares False with 0.0, and would keep only the diagonal
        with pytest.raises(ValueError, match="nonnegative"):
            threshold(CovMatrix(np.eye(3)), lam)


class TestCorrelationThreshold:
    def test_level_zero_identity(self):
        m = CovMatrix(np.array([[1.0, 0.3], [0.3, 4.0]]))
        assert np.array_equal(correlation_threshold(m, 0.0).values, m.values)

    def test_level_one_keeps_diagonal(self):
        m = CovMatrix(np.array([[1.0, 0.3], [0.3, 4.0]]))
        out = correlation_threshold(m, 1.0).values
        assert out[0, 1] == 0.0 and out[0, 0] == 1.0 and out[1, 1] == 4.0

    def test_correlation_rule(self):
        # correlation 0.3/sqrt(4) = 0.15 < 0.2 -> zeroed
        m = CovMatrix(np.array([[1.0, 0.3], [0.3, 4.0]]))
        assert correlation_threshold(m, 0.2).values[0, 1] == 0.0
        assert correlation_threshold(m, 0.15).values[0, 1] == 0.3

    def test_rejects_bad_inputs(self):
        m = CovMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            correlation_threshold(m, 0.5)
        with pytest.raises(ValueError):
            correlation_threshold(CovMatrix(np.eye(2)), 1.5)


class TestBand:
    def test_zero_width_is_diagonal(self):
        rng = np.random.default_rng(3)
        m = random_symmetric(rng, 5)
        assert np.array_equal(band(m, 0).values, np.diag(np.diag(m.values)))

    def test_full_width_identity(self):
        rng = np.random.default_rng(4)
        m = random_symmetric(rng, 5)
        assert np.array_equal(band(m, 4).values, m.values)

    def test_tridiagonal(self):
        rng = np.random.default_rng(5)
        m = random_symmetric(rng, 6)
        out = band(m, 1).values
        j, k = np.indices((6, 6))
        assert np.all(out[np.abs(j - k) >= 2] == 0.0)
        assert np.array_equal(out[np.abs(j - k) <= 1], m.values[np.abs(j - k) <= 1])

    @pytest.mark.parametrize("ell", [1.5, 1.0, np.float64(2.0), "1", None, -1])
    def test_rejects_a_width_that_is_no_nonnegative_integer(self, ell):
        # 1.5 would band at 1 but be labelled band(1.5)
        with pytest.raises(ValueError, match="band width"):
            band(CovMatrix(np.eye(3)), ell)

    def test_takes_any_integer_width(self):
        m = random_symmetric(np.random.default_rng(6), 4)
        got = band(m, np.int64(1))
        assert got.provenance == "band(1)<-unspecified"
        assert got.values.tobytes() == band(m, 1).values.tobytes()


class TestPsdProject:
    def test_diagonal_clip(self):
        out = psd_project(CovMatrix(np.diag([1.0, -1.0])))
        assert np.allclose(out.values, np.diag([1.0, 0.0]), atol=1e-12)

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        m = CovMatrix(a @ a.T)
        assert np.allclose(psd_project(m).values, m.values, atol=1e-10)

    def test_matches_eigen_clip_oracle(self):
        rng = np.random.default_rng(7)
        m = random_symmetric(rng, 6)
        w, V = np.linalg.eigh(m.values)
        oracle = (V * np.maximum(w, 0.0)) @ V.T
        assert np.allclose(psd_project(m).values, oracle, atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        m = random_symmetric(rng, 6)
        once = psd_project(m)
        twice = psd_project(once)
        assert np.allclose(once.values, twice.values, atol=1e-10)

    def test_contraction_factor_two(self):
        # projection at most doubles the entrywise error to any PSD target
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            truth = CovMatrix(a @ a.T)
            noisy = CovMatrix(truth.values + 0.3 * random_symmetric(rng, 5).values)
            proj = psd_project(noisy)
            for p in (LpExponent.finite(1), LpExponent.finite(2)):
                e_proj = cov_error(proj, truth, p).delta_p[p]
                e_raw = cov_error(noisy, truth, p).delta_p[p]
                assert e_proj <= 2 * e_raw + 1e-9

    def test_probe_decides_as_the_identity_shift(self, monkeypatch):
        # the shift on one copy's diagonal decides as a + shift * I did, on
        # CV's masks: PSD, singular (S1 has rank n1 - 1) and indefinite; so
        # does dpotrf through ctypes, and np.linalg.cholesky, its fallback
        def accepts_shifted_by_identity(a):
            shift = covariance.PSD_CERT_TOL * 0.01 * float(np.abs(np.diag(a)).max(initial=0.0))
            try:
                np.linalg.cholesky(a + shift * np.eye(a.shape[0]))
                return True
            except np.linalg.LinAlgError:
                return False

        matrices = [np.zeros((0, 0)), np.zeros((3, 3)), np.diag([1.0, -1e-300])]
        for seed in range(6):
            X = np.random.default_rng(seed).normal(size=(30, 20))  # n1 = 10 rows
            S1, _, corr = covariance._cv_fold(X, RngSeed(seed), 0)
            assert np.linalg.matrix_rank(S1) == 9
            matrices += [covariance._keep_off_diagonal(S1, corr >= lam)
                         for lam in np.linspace(0.0, 1.0, 21)]
        expected = [accepts_shifted_by_identity(a) for a in matrices]
        assert any(expected[3:]) and not all(expected[3:])
        assert [covariance._psd_accepts(a) for a in matrices] == expected
        # the witness rung's probe: dpotrf in place on the shifted mask
        shifted = [a.copy() for a in matrices]
        for a in shifted:
            np.fill_diagonal(a, np.diag(a) + covariance._probe_shift(np.diag(a)))
        assert [covariance._cholesky_succeeds(a.copy()) for a in shifted] == expected
        without_lapacke(monkeypatch, "dpotrf_work")
        assert [covariance._cholesky_succeeds(a.copy()) for a in shifted] == expected

    def test_same_bytes_without_the_dpotrf_entry_point(self, monkeypatch):
        # np.linalg.cholesky calls the same dpotrf, so CV's witness rung makes
        # the same decisions without it, and every estimate that psd_project
        # returns, accepted or clipped, keeps its bytes
        X = _factor_data()
        S = sample_covariance(X)
        specs = [inference.EstimatorSpec.parse(t)
                 for t in ("corr_cv", "hard", "hard(50)", "band", "band(39)")]
        accepted = [covariance._psd_accepts(M.values) for M in
                    (threshold(S, 0.1), threshold(S, 50.0), band(S, 1), band(S, 39))]
        assert accepted == [True, False, False, True]
        fast = [inference.estimate_covariance(X, spec, RngSeed(0)).values for spec in specs]
        without_lapacke(monkeypatch, "dpotrf_work")
        for spec, values in zip(specs, fast):
            assert np.array_equal(inference.estimate_covariance(X, spec, RngSeed(0)).values,
                                  values)


class TestCvSelectLambda:
    def test_singleton_grid(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 4))
        lam, risks = cv_select_lambda(X, [0.0], 2, RngSeed(0))
        assert lam == 0.0 and len(risks) == 1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6))
        grid = [0.0, 0.25, 0.5, 0.75]
        a = cv_select_lambda(X, grid, 3, RngSeed(5))
        b = cv_select_lambda(X, grid, 3, RngSeed(5))
        assert a[0] == b[0] and np.array_equal(a[1], b[1], equal_nan=True)

    def test_prefers_thresholding_for_diagonal_truth(self):
        # strong-signal diagonal covariance: high threshold should win
        rng = np.random.default_rng(12)
        X = rng.normal(size=(200, 50)) * np.linspace(1.0, 3.0, 50)
        lam, risks = cv_select_lambda(X, [0.0, 0.9], 5, RngSeed(1))
        assert lam == 0.9
        assert risks[1] <= risks[0]

    def test_rejects_tiny_samples(self):
        # n = 3 leaves one row for the small split (n = 4 splits 2 / 2)
        with pytest.raises(ValueError, match="too small"):
            cv_select_lambda(np.ones((3, 3)), [0.1], 2, RngSeed(0))

    def test_rejects_bad_grid_before_fold_work(self):
        # seed=None would fail with AttributeError once any fold starts
        X = np.random.default_rng(14).normal(size=(30, 4))
        for grid in ([0.2, 1.5], [-0.1], [float("nan")]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                cv_select_lambda(X, grid, 2, None)
        with pytest.raises(ValueError, match="empty threshold grid"):
            cv_select_lambda(X, [], 2, None)
        for folds in (0, -1):
            with pytest.raises(ValueError, match="folds must be >= 1"):
                cv_select_lambda(X, [0.2], folds, None)

    def test_rejects_bad_data_before_fold_work(self):
        # the folds' matrices are built unchecked, so the call checks X once
        for bad in (math.nan, math.inf, -math.inf):
            X = np.random.default_rng(14).normal(size=(30, 4))
            X[7, 2] = bad
            with pytest.raises(ValueError, match="data entries must be finite"):
                cv_select_lambda(X, [0.0, 0.5], 2, None)

    def test_constant_column_is_uncorrelated(self):
        X = np.random.default_rng(15).normal(size=(30, 4))
        X[:, 2] = 3.0
        S = sample_covariance(X)
        kept = correlation_threshold(S, 0.5).values
        assert not kept[2].any() and not kept[:, 2].any()
        # the constant column adds only zeros to each fold's risk
        lam, risks = cv_select_lambda(X, [0.0, 0.5], 2, RngSeed(0))
        lam3, risks3 = cv_select_lambda(np.delete(X, 2, axis=1), [0.0, 0.5], 2, RngSeed(0))
        assert lam == lam3
        assert risks == pytest.approx(risks3, rel=1e-12, abs=0.0, nan_ok=True)

    def test_pooled_folds_match_reference(self, monkeypatch):
        # a real pool of up to three workers whatever the machine
        monkeypatch.setattr(parallel, "_available_cores", lambda: 3)
        grid = list(np.linspace(0.0, 1.0, 12))
        for k, folds in enumerate((2, 3, 5, 10)):
            rng = np.random.default_rng(16 + k)
            X = rng.normal(size=(45, 15)) + rng.normal(size=(45, 1)) * rng.uniform(0, 2, 15)
            assert_matches_reference(cv_select_lambda(X, grid, folds, RngSeed(k)),
                                     _cv_select_lambda_reference(X, grid, folds, RngSeed(k)))

    @given(n=st.integers(6, 30), d=st.integers(2, 24),
           structure=st.sampled_from(["diagonal", "correlated", "mixed"]),
           grid=st.lists(st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.999, 1.0]),
                                   st.floats(0.0, 1.0)), min_size=1, max_size=12),
           folds=st.integers(1, 4), data_seed=st.integers(0, 2**32 - 1),
           cv_seed=st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_lambda_reference(self, n, d, structure, grid, folds,
                                          data_seed, cv_seed):
        # grids come unsorted, with repeats, and with levels above every
        # off-diagonal |corr|; d > ceil(n/3) leaves S1 rank-deficient, so
        # thresholded masks fail the Cholesky probe; equality is exact
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
        if structure != "diagonal":
            common = rng.normal(size=(n, 1))
            w = rng.uniform(5.0, 20.0, size=d)
            if structure == "mixed":
                w[: d // 2] = 0.0
            X = X + common * w
        got = cv_select_lambda(X, grid, folds, RngSeed(cv_seed))
        assert_matches_reference(got, _cv_select_lambda_reference(X, grid, folds,
                                                                  RngSeed(cv_seed)))

    @staticmethod
    def _eigh_calls(monkeypatch, X, grid, folds, seed):
        """cv_select_lambda's result and the np.linalg.eigh calls it and the
        per-lambda reference make."""
        eigh, calls = np.linalg.eigh, []

        def counting(a, *args, **kwargs):
            calls.append(1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        got = cv_select_lambda(X, grid, folds, RngSeed(seed))
        ours = len(calls)
        assert_matches_reference(got, _cv_select_lambda_reference(X, grid, folds,
                                                                  RngSeed(seed)))
        return ours, len(calls) - ours

    def test_projects_fewer_masks_than_reference(self, monkeypatch):
        # copula data with d > n/3: many masks fail the Cholesky probe, and
        # the witness and eigenvalue bounds prune every grid point they belong to
        S = sampling.build_block_covariance(60, 2, 0.8, RngSeed(0))
        X = sampling.copula_sample(S, sampling.MarginalKind.UNIFORM_SYM, 60, RngSeed(1))
        ours, ref = self._eigh_calls(monkeypatch, X, list(np.linspace(0.0, 1.0, 12)), 4, 2)
        assert ours < ref

    def test_second_pass_projects_masks_that_can_still_win(self, monkeypatch):
        # failing masks whose bounds straddle the best upper bound are projected
        ours, ref = self._eigh_calls(monkeypatch, self._clip_rung_data(),
                                     list(np.linspace(0.0, 1.0, 12)), 3, 1)
        assert 0 < ours < ref

    def test_masks_the_probe_accepts_in_every_fold_are_never_nan(self):
        # rung 0 scores an accepted mask exactly, at live grid points and at
        # those that cannot win alike
        S = sampling.build_block_covariance(60, 2, 0.8, RngSeed(0))
        X = sampling.copula_sample(S, sampling.MarginalKind.UNIFORM_SYM, 60, RngSeed(1))
        grid, folds, seed = list(np.linspace(0.0, 1.0, 12)), 4, RngSeed(2)
        accepted = np.ones(len(grid), dtype=bool)
        for nu in range(folds):
            S1, _, corr = covariance._cv_fold(X, seed, nu)
            accepted &= [covariance._psd_accepts(covariance._keep_off_diagonal(S1, corr >= lam))
                         for lam in grid]
        risks = np.array(cv_select_lambda(X, grid, folds, seed)[1])
        assert accepted.any() and np.isnan(risks).any()
        assert not np.isnan(risks[accepted]).any()
        assert (risks[accepted] > np.nanmin(risks)).any()

    @staticmethod
    def _clip_rung_data():
        """n = 12 rows, d = 8 strongly correlated coordinates, where the
        eigenvalue rung leaves failing masks live and the clip rung runs."""
        rng = np.random.default_rng(1)
        return (rng.normal(size=(12, 8)) * rng.uniform(0.5, 3.0, size=8)
                + rng.normal(size=(12, 1)) * rng.uniform(5.0, 20.0, size=8))

    @staticmethod
    def _one_live_point_data(d):
        """n = 12 rows, d coordinates with a common factor, whose one grid
        point 0.5 stays live after the witness rung, with a mask that fails
        the probe in both folds of RngSeed(0)."""
        rng = np.random.default_rng(20)
        return rng.normal(size=(12, d)) + rng.normal(size=(12, 1))

    @staticmethod
    def _counted(monkeypatch, fail=()):
        """Calls of _eigvalsh per dtype ("float32", "float64"), of the clip
        ("clip") and of the probe ("probe"); _eigvalsh raises in the dtypes
        named in fail."""
        calls = {"float32": 0, "float64": 0, "clip": 0, "probe": 0}
        eigvalsh, clip = covariance._eigvalsh, covariance._eigen_clip
        probe = covariance._cholesky_succeeds

        def counting(a, dtype=np.float64):
            name = np.dtype(dtype).name
            calls[name] += 1
            if name in fail:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a, dtype)

        def clipping(a):
            calls["clip"] += 1
            return clip(a)

        def probing(work):
            calls["probe"] += 1
            return probe(work)

        monkeypatch.setattr(covariance, "_eigvalsh", counting)
        monkeypatch.setattr(covariance, "_eigen_clip", clipping)
        monkeypatch.setattr(covariance, "_cholesky_succeeds", probing)
        return calls

    @pytest.mark.parametrize("case", ["copula", "clip"])
    def test_pass_order_changes_nothing(self, monkeypatch, case):
        # each pass runs its folds in fold order; reversed, serial or pooled,
        # every fold does the same work and writes the same entries
        if case == "copula":  # n = d = 60 at 10 folds x 40 points
            X, _, _, seed = self._copula_case()
            grid, folds = list(np.linspace(0.0, 1.0, 40)), 10
        else:
            X, grid, folds = self._clip_rung_data(), list(np.linspace(0.0, 1.0, 12)), 3
            seed = RngSeed(1)
        run_indexed, runs, reversed_passes = covariance.run_indexed, [], []

        def reversed_jobs(worker, count, threads):  # job j runs as job count - 1 - j
            reversed_passes.append(count)
            return run_indexed(lambda j: worker(count - 1 - j), count, threads)[::-1]

        for cores in (1, 3):
            for reverse in (False, True):
                monkeypatch.setattr(parallel, "_available_cores", lambda c=cores: c)
                if reverse:
                    monkeypatch.setattr(covariance, "run_indexed", reversed_jobs)
                calls = self._counted(monkeypatch)
                lam, risks = cv_select_lambda(X, grid, folds, seed)
                runs.append((lam, np.array(risks).tobytes(), calls))
                monkeypatch.undo()
        assert all(run == runs[0] for run in runs[1:])
        assert max(reversed_passes) > 1  # some pass ran more than one fold, reversed
        lam, risks, calls = runs[0]
        assert np.isnan(np.frombuffer(risks)).any() and calls["float32"] and calls["probe"]
        assert calls["clip"] or case == "copula"

    def test_serial_and_pooled_runs_leave_nan_in_the_same_places(self, monkeypatch):
        X, grid = self._clip_rung_data(), list(np.linspace(0.0, 1.0, 12))
        runs, counts = [], []
        for cores in (1, 3):
            monkeypatch.setattr(parallel, "_available_cores", lambda c=cores: c)
            counts.append(self._counted(monkeypatch))
            runs.append(cv_select_lambda(X, grid, 3, RngSeed(1))[1])
            monkeypatch.undo()
        assert counts[0] == counts[1] and counts[0]["float32"] and counts[0]["clip"]
        assert np.isnan(runs[0]).any()
        assert np.array_equal(runs[0], runs[1], equal_nan=True)

    def test_same_result_without_the_lapacke_entry_point(self, monkeypatch):
        # without ssyevd the single-precision rung takes np.linalg.eigvalsh's
        # float64 eigenvalues, which its widened bounds contain, and gives the
        # same lambda-hat and risks; d = 513 takes the float64 rung
        S = sampling.build_block_covariance(60, 2, 0.8, RngSeed(0))
        grid = list(np.linspace(0.0, 1.0, 12))
        cases = [(sampling.copula_sample(S, sampling.MarginalKind.UNIFORM_SYM, 60, RngSeed(1)),
                  grid, 4, RngSeed(2)), (self._clip_rung_data(), grid, 3, RngSeed(1)),
                 (self._one_live_point_data(513), [0.5], 2, RngSeed(0))]
        fast = [cv_select_lambda(X, grid, folds, seed) for X, grid, folds, seed in cases]
        eigvalsh, dtypes = np.linalg.eigvalsh, []

        def counting(a):
            dtypes.append(a.dtype)
            return eigvalsh(a)

        without_lapacke(monkeypatch, "ssyevd")
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for (X, grid, folds, seed), (lam, risks) in zip(cases, fast):
            got = cv_select_lambda(X, grid, folds, seed)
            assert got[0] == lam and np.array_equal(got[1], risks, equal_nan=True)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}

    def test_failed_eigenvalues_leave_the_plain_bounds(self, monkeypatch):
        # with [0, U] in place of the eigenvalue bounds only the witness
        # bounds prune, and every failing mask at a grid point they leave live
        # is projected; lambda-hat and the exact risks do not change
        def failing(a, dtype=np.float64):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(covariance, "_eigvalsh", failing)
        S = sampling.build_block_covariance(60, 2, 0.8, RngSeed(0))
        X = sampling.copula_sample(S, sampling.MarginalKind.UNIFORM_SYM, 60, RngSeed(1))
        ours, ref = self._eigh_calls(monkeypatch, X, list(np.linspace(0.0, 1.0, 12)), 4, 2)
        assert 0 < ours <= ref

    @pytest.mark.parametrize("d, single", [(512, True), (513, False)])
    def test_single_precision_where_d_squared_eps32_is_at_most_2_to_minus_5(
            self, monkeypatch, d, single):
        # d <= 512; above it the eigenvalue rung is dsyevd's, and each call
        # runs one precision only. The one grid point stays live after the
        # witness rung, and its mask fails the probe in both folds, so the
        # eigenvalue rung runs on it
        X = self._one_live_point_data(d)
        for nu in range(2):
            S1, _, corr = covariance._cv_fold(X, RngSeed(0), nu)
            assert not covariance._psd_accepts(covariance._keep_off_diagonal(S1, corr >= 0.5))
        calls = self._counted(monkeypatch)
        lam, risks = cv_select_lambda(X, [0.5], 2, RngSeed(0))
        assert lam == 0.5 and not math.isnan(risks[0])
        assert calls["float32"] == (2 if single else 0)
        assert calls["float64"] == (0 if single else 2) and calls["clip"] == 2

    @staticmethod
    def _copula_case():
        S = sampling.build_block_covariance(60, 2, 0.8, RngSeed(0))
        X = sampling.copula_sample(S, sampling.MarginalKind.UNIFORM_SYM, 60, RngSeed(1))
        return X, list(np.linspace(0.0, 1.0, 12)), 4, RngSeed(2)

    def test_selective_pass_bounds_fewer_masks_than_the_witness_rung_leaves(self, monkeypatch):
        # where ssyevd fails its bounds are the plain [0, U], which prune
        # nothing, so its two passes call it once for every failing mask at a
        # grid point live after the witness rung; where it works the selective
        # pass prunes grid points, and their other failing masks are skipped
        X, grid, folds, seed = self._copula_case()
        calls = self._counted(monkeypatch, fail=("float32",))
        cv_select_lambda(X, grid, folds, seed)
        monkeypatch.undo()
        left = calls["float32"]
        calls = self._counted(monkeypatch)
        got = cv_select_lambda(X, grid, folds, seed)
        assert 0 < calls["float32"] < left
        assert_matches_reference(got, _cv_select_lambda_reference(X, grid, folds, seed))

    @pytest.mark.parametrize("first", ["none", "largest gap", "all"])
    def test_output_does_not_depend_on_what_the_selective_pass_bounds(self, monkeypatch,
                                                                       first):
        # the selective pass only loosens what the eigenvalue rung would
        # give until the mop-up pass bounds the failing masks at every
        # grid point still live, so any choice of masks gives the same bytes
        X, grid, folds, seed = self._copula_case()
        plain = cv_select_lambda(X, grid, folds, seed)

        def bound_first(gap, deficit, todo):
            if first == "none":
                return np.zeros_like(todo)
            if first == "all":
                return todo
            top = np.where(todo, gap, -np.inf).argmax(axis=0)
            return todo & (np.arange(todo.shape[0])[:, None] == top)

        calls, per_pass = self._counted(monkeypatch), []

        def run_indexed(worker, count, threads):
            before = calls["float32"]
            out = parallel.run_indexed(worker, count, threads)
            per_pass.append(calls["float32"] - before)
            return out

        monkeypatch.setattr(covariance, "_bound_first", bound_first)
        monkeypatch.setattr(covariance, "run_indexed", run_indexed)
        got = cv_select_lambda(X, grid, folds, seed)
        assert got[0] == plain[0] and np.array_equal(got[1], plain[1], equal_nan=True)
        # witness, selective, mop-up and clip passes
        assert len(per_pass) == 4 and (per_pass[1] > 0) == (first != "none")
        assert (per_pass[2] > 0) == (first != "all")
        assert_matches_reference(got, _cv_select_lambda_reference(X, grid, folds, seed))

    def test_overflowing_risks_pick_reference_lambda(self):
        # entries of X X^T near 1e156 square past the largest double, so every
        # risk of the reference is inf; CV rescales X by a power of two, picks
        # the reference's level on X / 1e78 and returns finite risks, with no
        # overflow warning
        rng = np.random.default_rng(17)
        Y = rng.normal(size=(30, 12)) + rng.normal(size=(30, 1)) * 3.0
        X = Y * 1e78
        grid = [0.0, 0.3, 0.6, 0.9]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, risks = cv_select_lambda(X, grid, 3, RngSeed(3))
        assert np.all(np.isinf(_cv_select_lambda_reference(X, grid, 3, RngSeed(3))[1]))
        ref = _cv_select_lambda_reference(Y, grid, 3, RngSeed(3))
        assert lam == ref[0]
        scored = ~np.isnan(risks)
        assert np.all(np.isfinite(np.array(risks)[scored]))
        assert np.array(risks)[scored] == pytest.approx(np.array(ref[1])[scored] * 1e156,
                                                        rel=1e-12)

    @pytest.mark.parametrize("c", [1e-100, 1e80, 2.0**-300, 2.0**300])
    def test_scale_equivariant(self, c):
        # out of [2^-64, 2^64] the data is rescaled by a power of two: the
        # same level as on the data itself, risks in the data's units
        X = np.random.default_rng(18).normal(size=(60, 10))
        grid = list(np.linspace(0.0, 1.0, 40))
        lam, risks = cv_select_lambda(X, grid, 10, RngSeed(1))
        lam_c, risks_c = cv_select_lambda(c * X, grid, 10, RngSeed(1))
        assert lam_c == lam > 0.0
        assert np.array_equal(np.isnan(risks_c), np.isnan(risks))
        assert risks_c == pytest.approx(np.array(risks) * c * c, rel=1e-12, nan_ok=True)


class TestEigenvalues:
    @given(d=st.integers(1, 40), shift=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_numpy(self, d, shift, seed):
        # symmetric, indefinite for most shifts, d = 1 included
        a = np.random.default_rng(seed).normal(size=(d, d))
        a = (a + a.T) / 2.0 + shift * np.eye(d)
        assert np.array_equal(covariance._eigvalsh(a), np.linalg.eigvalsh(a))
        assert np.array_equal(covariance._eigvalsh(a, np.float64), np.linalg.eigvalsh(a))

    def test_bundled_openblas_has_lapacke(self):
        # without ssyevd the single-precision rung takes numpy's float64
        # eigenvalues, whose concurrent calls overlap only from d of about
        # 500, without dpotrf_work the probe copies through numpy, and
        # without dpstrf every factor takes eigh; a misspelled symbol or
        # signature would do the same silently
        if parallel._openblas() is None:
            pytest.skip("numpy ships no bundled scipy-openblas")
        for routine in covariance._LAPACKE:
            assert covariance._lapacke(routine) is not None
        a = np.random.default_rng(24).normal(size=(12, 5))
        assert sampling._pivoted_factor(a @ a.T).shape == (12, 5)


def _factor_data(n=30, d=40, seed=22):
    """d > n/3 coordinates with a strong common factor: S1 is rank-deficient,
    so most thresholded masks fail the Cholesky probe."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
            + rng.normal(size=(n, 1)) * rng.uniform(5.0, 20.0, size=d))


class TestSinglePrecisionBound:
    """The single-precision distance to the PSD cone, g, of a mask A lies
    within delta = d^2 (eps_32 + eps_64) ||A||_F of dsyevd's, the slack CV's
    single-precision rung widens its bounds by."""

    GRID = list(np.linspace(0.0, 1.0, 40))
    DATA = {
        "rank-deficient": lambda X: X,
        "constant-column": lambda X: np.where(np.arange(X.shape[1]) == 2, 3.0, X),
        "1e-30": lambda X: X * 1e-30,
        "2^60": lambda X: X * 2.0**60,
        "2^-60": lambda X: X * 2.0**-60,
    }

    @classmethod
    def _masks(cls, X, accepted=False):
        """The fold masks the probe accepts (or rejects) over three folds, each
        with its fold's S2."""
        masks = []
        for nu in range(3):
            S1, S2, corr = covariance._cv_fold(X, RngSeed(0), nu)
            for lam in cls.GRID:
                A = covariance._keep_off_diagonal(S1, corr >= lam)
                if covariance._psd_accepts(A) == accepted:
                    masks.append((A, S2))
        return masks

    @classmethod
    def _near_psd_masks(cls):
        """Singular accepted masks moved just past the probe's shift of 1e-10
        of the largest variance, where g is far below the rounding of the
        eigenvalues, with their fold's S2."""
        masks = [(A - 1e-8 * np.diag(A).max() * np.eye(A.shape[0]), S2)
                 for A, S2 in cls._masks(_factor_data(), accepted=True)]
        return [(B, S2) for B, S2 in masks if not covariance._psd_accepts(B)]

    @staticmethod
    def assert_within_delta(A):
        def g(w):
            neg = w[w < 0.0]
            return math.sqrt(float(np.einsum("i,i->", neg, neg)))

        d = A.shape[0]
        w = covariance._eigvalsh(A, np.float32)
        assert w.dtype == np.float64 and np.all(np.isfinite(w))
        delta = d * d * (np.finfo(np.float32).eps + np.finfo(float).eps) * math.sqrt(
            float(np.einsum("ij,ij->", A, A)))
        assert abs(g(w) - g(covariance._eigvalsh(A))) <= delta

    @pytest.mark.parametrize("kind", DATA)
    def test_failing_masks(self, kind):
        X = self.DATA[kind](_factor_data())
        masks = self._masks(X)
        assert len(masks) >= 10
        for A, _ in masks:
            self.assert_within_delta(A)
        assert_matches_reference(cv_select_lambda(X, self.GRID, 3, RngSeed(0)),
                                 _cv_select_lambda_reference(X, self.GRID, 3, RngSeed(0)))

    def test_near_psd_masks(self):
        masks = self._near_psd_masks()
        assert masks
        for B, _ in masks:
            self.assert_within_delta(B)

    def test_masks_past_the_float32_range(self):
        # covariance entries near 2^140 overflow float32 unless scaled first
        masks = self._masks(_factor_data() * 2.0**70)
        assert min(np.abs(A).max() for A, _ in masks) > np.finfo(np.float32).max
        for A, _ in masks:
            self.assert_within_delta(A)

    def test_float32_bounds_contain_the_float64_bounds(self):
        # the widening by delta covers the error of both precisions' g, so the
        # float32 bounds contain the risk wherever the float64 bounds do,
        # on every failing mask above: each data kind, near-PSD, past float32
        masks = [m for kind in self.DATA.values() for m in self._masks(kind(_factor_data()))]
        masks += self._near_psd_masks() + self._masks(_factor_data() * 2.0**70)
        for A, S2 in masks:
            u = covariance._frobenius(A - S2)
            lower, upper = covariance._eigen_bounds(A, u, np.float32)
            lower64, upper64 = covariance._eigen_bounds(A, u, np.float64)
            assert lower <= lower64 <= upper64 <= upper


def _masked_reference(a, keep):
    """a with the off-diagonal entries where keep is False set to +0.0 and the
    diagonal kept, by np.where, independently of _keep_off_diagonal."""
    out = np.where(keep, a, 0.0)
    np.fill_diagonal(out, np.diag(a))
    return out


def assert_masked(got, a, keep):
    """got has the bytes of _masked_reference(a, keep), so +0.0, never -0.0,
    at every dropped off-diagonal entry."""
    assert got.tobytes() == _masked_reference(a, keep).tobytes()
    dropped = ~keep
    np.fill_diagonal(dropped, False)
    assert not np.signbit(got[dropped]).any()


class TestMasks:
    @given(n=st.integers(2, 12), d=st.integers(1, 8), constant=st.booleans(),
           levels=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                           min_size=1, max_size=10),
           seed=st.integers(0, 2**32 - 1))
    @example(n=4, d=1, constant=True, levels=[0.0, 1.0, 0.0], seed=0)
    @settings(max_examples=100, deadline=None)
    def test_bytes_of_keep_off_diagonal(self, n, d, constant, levels, seed):
        # repeated levels, 0 and 1, a zero-variance coordinate and d = 1; the
        # caller overwrites each A before the next, as the witness rung's probe does
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) + rng.normal(size=(n, 1))
        if constant:
            X[:, 0] = 3.0
        S1 = sample_covariance(X).values
        corr = covariance._abs_correlation(S1)
        levels = dict(enumerate([0.0, 1.0, *levels, *levels]))
        seen = []
        for key, A in covariance._masks(S1, corr, levels):
            seen.append(key)
            assert_masked(A, S1, corr >= levels[key])
            A.fill(np.nan)
        assert seen == list(levels)

    @given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), zero_variance=st.booleans(),
           negative_zeros=st.booleans(), lam=st.floats(0.0, 1.0), width=st.integers(0, 8))
    @example(d=1, seed=0, zero_variance=True, negative_zeros=False, lam=0.0, width=0)
    @example(d=4, seed=1, zero_variance=True, negative_zeros=True, lam=0.0, width=1)
    @example(d=6, seed=2, zero_variance=False, negative_zeros=True, lam=0.3, width=2)
    @settings(max_examples=100, deadline=None)
    def test_every_mask_against_a_masked_copy(self, d, seed, zero_variance, negative_zeros,
                                              lam, width):
        # negative off-diagonal entries, which a float product a * keep turns
        # into -0.0 where dropped; -0.0 entries, which keep their sign where
        # kept (level 0 keeps every pair); a zero-variance coordinate; d = 1
        rng = np.random.default_rng(seed)
        a = np.triu(rng.normal(size=(d, d)), 1)
        a += a.T
        if negative_zeros:  # after the sum, where -0.0 + 0.0 would give +0.0
            at = np.triu(rng.random((d, d)) < 0.3, 1)
            at[0, -1] = d > 1
            a[at | at.T] = -0.0
        np.fill_diagonal(a, rng.uniform(0.5, 2.0, size=d))
        if zero_variance:
            a[0, :] = a[:, 0] = 0.0
        M = CovMatrix(a)
        assert M.values.tobytes() == a.tobytes()
        assert_masked(threshold(M, lam).values, a, np.abs(a) > lam)
        corr = covariance._abs_correlation(a)
        assert_masked(correlation_threshold(M, lam).values, a, corr >= lam)
        j, k = np.indices(a.shape)
        assert_masked(band(M, width).values, a, np.abs(j - k) <= width)
        levels = dict(enumerate([0.0, lam, 1.0, 0.5]))
        for key, A in covariance._masks(a, corr, levels):
            assert_masked(A, a, corr >= levels[key])


class TestWitnessBound:
    """The witness rung's bound g_w on a failing mask's distance to the PSD
    cone, from the nearest convex combination of diag(S1) and the masks the
    probe accepts, is at least dsyevd's g."""

    GRID = list(np.linspace(0.0, 1.0, 40))
    DATA = dict(TestSinglePrecisionBound.DATA)
    # CV rescales data past [2^-64, 2^64] before it builds a fold
    DATA["1e-30"] = lambda X: np.ldexp(X * 1e-30, -covariance._rescale_exponent(X * 1e-30))

    @staticmethod
    def _gaps(S1, corr, grid):
        """The failing masks of S1 over grid with their witness bounds, as the
        witness rung computes them."""
        masks, sq, accepted = {}, {}, set()
        for lam in grid:
            keep = corr >= lam
            key = int(np.count_nonzero(np.triu(keep, 1)))
            masks[key] = A = covariance._keep_off_diagonal(S1, keep)
            sq[key] = float(np.einsum("ij,ij->", A, A))
            if covariance._psd_accepts(A):
                accepted.add(key)
        return [(masks[key], g) for key, g in covariance._witness_gaps(S1, sq, accepted).items()]

    @staticmethod
    def assert_above_g(A, g_w):
        w = covariance._eigvalsh(A)
        neg = w[w < 0.0]
        assert g_w >= math.sqrt(float(np.einsum("i,i->", neg, neg)))

    @pytest.mark.parametrize("kind", DATA)
    def test_failing_masks(self, kind):
        X = self.DATA[kind](_factor_data())
        checked = 0
        for nu in range(3):
            S1, _, corr = covariance._cv_fold(X, RngSeed(0), nu)
            for A, g_w in self._gaps(S1, corr, self.GRID):
                self.assert_above_g(A, g_w)
                checked += 1
        assert checked >= 10
        assert_matches_reference(cv_select_lambda(X, self.GRID, 3, RngSeed(0)),
                                 _cv_select_lambda_reference(X, self.GRID, 3, RngSeed(0)))

    @pytest.mark.parametrize("s", [0.5, 0.99, 1.01, 2.0, 100.0])
    def test_near_psd_masks(self, s):
        # S1 is singular; shifted by s times the probe's shift, the masks the
        # probe accepts need not be PSD and the failing masks lie within a few
        # shifts of the PSD cone, so the probe's own rounding decides
        X = _factor_data()
        S1, _, corr = covariance._cv_fold(X, RngSeed(0), 0)
        B = S1 - s * covariance._probe_shift(np.diag(S1)) * np.eye(S1.shape[0])
        gaps = self._gaps(B, corr, self.GRID)
        assert gaps
        for A, g_w in gaps:
            self.assert_above_g(A, g_w)

    def test_fewer_eigenvalue_calls_than_failing_masks(self, monkeypatch):
        # copula data with d > n/3: the witness bounds prune grid points, so
        # the eigenvalue rung sees only some of the failing masks
        S = sampling.build_block_covariance(60, 2, 0.8, RngSeed(0))
        X = sampling.copula_sample(S, sampling.MarginalKind.UNIFORM_SYM, 60, RngSeed(1))
        grid, folds, seed = list(np.linspace(0.0, 1.0, 12)), 4, RngSeed(2)
        failing = 0  # distinct failing masks, summed over the folds
        for nu in range(folds):
            S1, _, corr = covariance._cv_fold(X, seed, nu)
            failing += len({int(np.count_nonzero(np.triu(corr >= lam, 1))) for lam in grid
                            if not covariance._psd_accepts(
                                covariance._keep_off_diagonal(S1, corr >= lam))})
        calls = TestCvSelectLambda._counted(monkeypatch)
        got = cv_select_lambda(X, grid, folds, seed)
        assert 0 < calls["float32"] + calls["float64"] < failing
        assert_matches_reference(got, _cv_select_lambda_reference(X, grid, folds, seed))


class TestProvenance:
    def test_names_the_cv_level_exactly(self):
        # the default grid's levels, such as 0.8205128205128205, have %g text
        # that does not read back
        spec = inference.EstimatorSpec.parse("corr_cv")
        S = sampling.build_block_covariance(60, 2, 0.8, RngSeed(0))
        X = sampling.copula_sample(S, sampling.MarginalKind.UNIFORM_SYM, 60, RngSeed(1))
        lam, _ = cv_select_lambda(X, list(spec.cv_grid), spec.cv_folds, RngSeed(4))
        assert float(format(lam, "g")) != lam
        provenance = inference.estimate_covariance(X, spec, RngSeed(4)).provenance
        text = re.fullmatch(r"psd<-corr-threshold\((.*)\)<-naive", provenance).group(1)
        assert float(text) == lam

    def test_levels_read_back(self):
        S = sample_covariance(np.random.default_rng(23).normal(size=(10, 3)))
        assert threshold(S, 0.123456789).provenance == "hard-threshold(0.123456789)<-naive"
        assert threshold(S, 0.1).provenance == "hard-threshold(0.1)<-naive"
        assert correlation_threshold(S, 0.5).provenance == "corr-threshold(0.5)<-naive"
        assert sampling.build_block_covariance(4, 2, 0.8).provenance == "block(2,0.8)"
        decay = 1.0 / 3.0
        assert sampling.build_block_covariance(4, 2, decay).provenance == f"block(2,{decay!r})"


class TestDiagnostics:
    def test_same_with_numpy_eigenvalues(self):
        # full rank, rank 12 of 30, a rank-49 sample covariance scaled into the
        # subnormals (where max |eigenvalue| < 1e-300), and zero. One rank
        # rule, the factor's column count: 49 at every scale. The effective
        # rank is numpy's on the matrix scaled by a power of two, exactly, so
        # 16.39 at every scale (at 1e-315 the entries keep about 28 bits)
        rng = np.random.default_rng(19)
        a = rng.normal(size=(30, 12))
        S = sample_covariance(np.random.default_rng(0).standard_normal((50, 80))).values
        scaled = [CovMatrix(S * scale) for scale in (1.0, 1e-300, 1e-310, 1e-315)]
        for m in [CovMatrix(a.T @ a), CovMatrix(a @ a.T)] + scaled + [CovMatrix(np.zeros((4, 4)))]:
            got = cov_diagnostics(m)
            assert got.rank == factorize_psd(m).shape[1] == m.factor().shape[1]
            b = np.ldexp(m.values, -covariance._rescale_exponent(m.values))
            op = float(np.abs(np.linalg.eigvalsh(b)).max())
            assert got.effective_rank == (float(np.trace(b)) / op if op else 0.0)
        assert [cov_diagnostics(m).rank for m in scaled] == [49] * 4
        assert [cov_diagnostics(m).effective_rank for m in scaled] == \
            pytest.approx([16.390879222059752] * 4, rel=1e-9)
        assert cov_diagnostics(CovMatrix(np.zeros((4, 4)))).effective_rank == 0.0
        with pytest.raises(ValueError, match="not positive semi-definite"):
            cov_diagnostics(random_symmetric(rng, 9))  # indefinite: no factor, so no rank

    def test_identity(self):
        d = cov_diagnostics(CovMatrix(np.eye(5)))
        assert d.rank == 5
        assert d.sigma_min_sq == d.sigma_max_sq == 1.0
        assert d.effective_rank == pytest.approx(5.0)

    def test_rank_one_block(self):
        v = 0.8 ** np.arange(4)
        d = cov_diagnostics(CovMatrix(np.outer(v, v)))
        assert d.rank == 1

    def test_direct_two_by_two(self):
        d = cov_diagnostics(CovMatrix(np.diag([4.0, 1.0])))
        assert d.sigma_min_sq == 1.0 and d.sigma_max_sq == 4.0
        assert d.effective_rank == pytest.approx(1.25)


class TestCovError:
    def test_equal_inputs(self):
        m = CovMatrix(np.eye(3))
        err = cov_error(m, m, LpExponent.finite(2))
        assert err.delta_op == 0.0
        assert err.delta_p[LpExponent.finite(2)] == 0.0

    def test_diagonal_difference(self):
        a = CovMatrix(np.diag([3.0, 0.0]))
        b = CovMatrix(np.diag([0.0, 4.0]))
        err = cov_error(a, b, [LpExponent.finite(2), LpExponent.infinity()])
        assert err.delta_op == pytest.approx(4.0)
        assert err.delta_p[LpExponent.finite(2)] == pytest.approx(5.0)
        assert err.delta_p[LpExponent.infinity()] == pytest.approx(4.0)

    def test_rejects_a_mismatched_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cov_error(CovMatrix(np.eye(2)), CovMatrix(np.eye(3)), LpExponent.finite(2))

    def test_log_dim_resolves_at_the_matrix_dimension(self):
        # the d^2 entries are measured at p = log d, d = 5, not at log 25
        a = np.arange(25.0).reshape(5, 5) / 7
        est, truth, logd = CovMatrix(a @ a.T), CovMatrix(np.eye(5)), LpExponent.log_dim()
        value = cov_error(est, truth, logd).delta_p[logd]
        vec = (est.values - truth.values).ravel()
        assert value.hex() == "0x1.095bdba074b92p+7"
        assert value == lp_norm(vec, LpExponent.finite(math.log(5)))
        assert value != lp_norm(vec, logd)
        with pytest.raises(ValueError, match="requires d >= 3, got d=2"):
            cov_error(CovMatrix(np.eye(2)), CovMatrix(np.eye(2)), logd)

    def test_sup_error_below_operator_error(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b = random_symmetric(rng, 5), random_symmetric(rng, 5)
            err = cov_error(a, b, LpExponent.infinity())
            assert err.delta_p[LpExponent.infinity()] <= err.delta_op + 1e-12


def test_thresholded_beats_naive_on_sparse_truth():
    # qualitative gain of structure exploitation: entrywise l1 error of the
    # thresholded-and-projected estimate is below the naive one, in the
    # median over replicates, for sparse block covariance data
    from lpboot.sampling import MarginalKind, build_block_covariance, copula_sample

    p1 = LpExponent.finite(1)
    truth = build_block_covariance(200, 2, 0.8, RngSeed(99).child(0))
    from lpboot.sampling import copula_covariance
    truth_x = copula_covariance(truth, MarginalKind.UNIFORM_SYM)
    gains = []
    for rep in range(20):
        X = copula_sample(truth, MarginalKind.UNIFORM_SYM, 200, RngSeed(99).child(1, rep))
        naive = sample_covariance(X)
        lam, _ = cv_select_lambda(X, list(np.linspace(0, 1, 12)), 3, RngSeed(99).child(2, rep))
        thresh = psd_project(correlation_threshold(naive, lam))
        e_naive = cov_error(naive, truth_x, p1).delta_p[p1]
        e_thresh = cov_error(thresh, truth_x, p1).delta_p[p1]
        gains.append(e_thresh < e_naive)
    assert np.median(gains) == 1.0
