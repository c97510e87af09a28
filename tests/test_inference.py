"""Mean tests, confidence sets, estimator specs, and ball volumes."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from lpboot.bootstrap import MAX_DRAWS, gpb_draws
from lpboot.cli import main
from lpboot.covariance import CovMatrix, sample_covariance
from lpboot import inference
from lpboot.inference import (ConfidenceSet, EstimatorSpec, confidence_set,
                              estimate_covariance, lp_ball_volume, run_test)

restriction_stat = inference.test_statistic  # alias keeps pytest collection clean
from lpboot.lp import LpExponent, lp_norm
from lpboot.sampling import RngSeed


class TestEstimatorSpec:
    def test_parse(self):
        assert EstimatorSpec.parse("naive").kind == "naive"
        assert EstimatorSpec.parse("cv").kind == "corr_cv"
        hard = EstimatorSpec.parse("hard(0.25)")
        assert hard.kind == "hard" and hard.lam == 0.25
        bandspec = EstimatorSpec.parse("band(3)")
        assert bandspec.kind == "band" and bandspec.ell == 3
        assert EstimatorSpec.parse("hard") == EstimatorSpec("hard", lam=0.1)
        assert EstimatorSpec.parse("band") == EstimatorSpec("band", ell=1)
        # the whole label must match: no prefixes, no unbalanced parentheses
        for bad in ("mystery", "hardly", "bandit", "hard(0.1", "hard)", "band(2",
                    "naive(1)", "cvx", "hard(0.1)(2)", "band(1.5)", "hard(x)"):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                EstimatorSpec.parse(bad)

    def test_labels_roundtrip(self):
        for text in ("naive", "corr_cv", "hard(0.25)", "band(3)"):
            assert EstimatorSpec.parse(text).label == text

    @pytest.mark.parametrize("kw", [
        dict(kind="mystery"),
        dict(kind="hard", lam=math.nan),
        dict(kind="hard", lam=math.inf),
        dict(kind="hard", lam=-1.0),
        dict(kind="band", ell=-1),
        dict(kind="band", ell=1.5),
        dict(kind="band", ell=np.float64(2.0)),
        dict(kind="corr_cv", cv_folds=0),
        dict(kind="corr_cv", cv_grid=()),
        dict(kind="corr_cv", cv_grid=(0.0, 1.5)),
        dict(kind="corr_cv", cv_grid=(-0.1, 0.5)),
        dict(kind="corr_cv", cv_grid=(math.nan,)),
    ])
    def test_rejects_degenerate_specs(self, kw):
        with pytest.raises(ValueError):
            EstimatorSpec(**kw)

    def test_band_width_is_an_int(self):
        for ell in (np.int64(2), True):
            spec = EstimatorSpec("band", ell=ell)
            assert type(spec.ell) is int and spec.label == f"band({int(ell)})"


class TestEstimateCovariance:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.X = rng.normal(size=(60, 8))

    def test_naive_is_sample_covariance(self):
        S = estimate_covariance(self.X, EstimatorSpec("naive"), RngSeed(0))
        Xc = self.X - self.X.mean(axis=0)
        assert np.allclose(S.values, Xc.T @ Xc / len(self.X))

    def test_hard_zeroes_small_entries(self):
        S = sample_covariance(self.X).values
        off = np.sort(np.abs(S[np.triu_indices(8, 1)]))
        lam = (off[13] + off[14]) / 2.0  # 14 of the 28 pairs lie at or below it
        est = estimate_covariance(self.X, EstimatorSpec("hard", lam=lam), RngSeed(0)).values
        small = np.abs(S) <= lam
        np.fill_diagonal(small, False)
        assert small.sum() == 28
        assert np.all(est[small] == 0.0)
        assert np.array_equal(est[~small], S[~small])
        assert np.allclose(np.diag(est), self.X.var(axis=0), rtol=1e-12, atol=0.0)

    def test_band_support(self):
        S = estimate_covariance(self.X, EstimatorSpec("band", ell=1), RngSeed(0))
        j, k = np.indices(S.values.shape)
        # PSD projection may refill banded zeros only by tiny eigenvalue clips
        assert np.abs(S.values[np.abs(j - k) >= 2]).max() <= 0.2

    def test_all_kinds_psd(self):
        for spec in (EstimatorSpec("naive"), EstimatorSpec("hard", lam=0.2),
                     EstimatorSpec("band", ell=1),
                     EstimatorSpec("corr_cv", cv_folds=3, cv_grid=(0.0, 0.3, 0.6))):
            S = estimate_covariance(self.X, spec, RngSeed(1))
            assert np.linalg.eigvalsh(S.values).min() >= -1e-9

    def test_cv_deterministic_in_seed(self):
        spec = EstimatorSpec("corr_cv", cv_folds=3, cv_grid=(0.0, 0.2, 0.4, 0.8))
        a = estimate_covariance(self.X, spec, RngSeed(2))
        b = estimate_covariance(self.X, spec, RngSeed(2))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("c", [1e-200, 2.0**-65, 2.0**65, 1e154])
    @pytest.mark.parametrize("kind", ["naive", "corr_cv"])
    def test_rejects_data_outside_the_scale_window(self, c, kind):
        # in the data's units Sigma_hat would underflow to 0 or overflow
        X = c * self.X / np.abs(self.X).max()
        with pytest.raises(ValueError, match=r"\[2\^-64, 2\^64\].*run_test"):
            estimate_covariance(X, EstimatorSpec(kind), RngSeed(0))

    def test_window_ends_and_zero_data_are_accepted(self):
        for c in (2.0**-64, 2.0**64):
            X = c * self.X / np.abs(self.X).max()
            assert np.all(np.isfinite(estimate_covariance(X, EstimatorSpec("naive"),
                                                          RngSeed(0)).values))
        zero = estimate_covariance(np.zeros((10, 3)), EstimatorSpec("naive"), RngSeed(0))
        assert not zero.values.any()


class TestTestStatistic:
    def test_identity_map_formula(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = restriction_stat(X, np.eye(2), np.zeros(2), LpExponent.finite(1))
        assert got == pytest.approx((4.0 + 6.0) / math.sqrt(2))

    def test_null_shift_cancels(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        m0 = X.mean(axis=0)
        got = restriction_stat(X, np.eye(3), m0, LpExponent.infinity())
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_restriction_map_applied(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        M = np.array([[1.0, -1.0]])
        got = restriction_stat(X, M, np.zeros(1), LpExponent.finite(2))
        assert got == 0.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            restriction_stat(np.ones((5, 3)), np.eye(2), np.zeros(2), LpExponent.finite(2))

    def test_rejects_non_finite_and_overflowing_inputs(self):
        for where in ("X", "M", "m0"):
            for bad in (math.nan, math.inf, -math.inf):
                args = dict(X=np.ones((5, 2)), M=np.eye(2), m0=np.zeros(2))
                args[where] = args[where].copy()
                args[where].flat[1] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    restriction_stat(**args, p=LpExponent.finite(2))
        # the column sums overflow, and so does sqrt(n) m0
        for X, m0 in ((np.full((4, 2), 1e308), np.zeros(2)), (np.ones((4, 2)), np.full(2, 1e308))):
            with pytest.raises(ValueError, match="the test statistic overflows"):
                restriction_stat(X, np.eye(2), m0, LpExponent.finite(2))

    def test_overflow_does_not_depend_on_the_row_order(self):
        # rows x1, x2, x3, -x1, -x2, -x3 sum to 0, but a running sum in that
        # order passes the largest float; the rescaled data's sum does not
        X = 5e307 * np.concatenate([LARGE_ROWS, -LARGE_ROWS])
        interleaved = X[[0, 3, 1, 4, 2, 5]]
        with np.errstate(over="raise"):
            for data in (X, interleaved):
                stat = restriction_stat(data, np.eye(4), np.zeros(4), LpExponent.finite(2))
                assert 0.0 <= stat <= 1e-14 * 5e307
                with pytest.raises(ValueError, match="the bootstrap draws overflow"):
                    run_test(data, make_spec(4, LpExponent.finite(2),
                                             estimator=EstimatorSpec("naive")))


# `lpboot test` rows for test_csv_row_shape's data, recorded before the row
# formatting moved to harness._format
GOLDEN_TEST_ROWS = {
    "naive": "3.6263887976860012,4.1773621857304724,0.10000000000000001,0,logd,0.05,naive,200,3",
    "corr_cv": "3.6263887976860012,3.7678935389158896,0.074999999999999997,0,logd,0.05,corr_cv,"
               "200,3",
}


# three rows whose column sums, scaled by 5e307, pass the largest float
LARGE_ROWS = np.array([[1.2, 1.25, 1.3, 1.22], [1.21, 1.29, 1.24, 1.27],
                       [1.28, 1.23, 1.26, 1.2]])


def make_spec(d, p, alpha=0.05, estimator=None, B=400, seed=0, M=None, m0=None):
    return inference.TestSpec(M=np.eye(d) if M is None else M,
                    m0=np.zeros(d) if m0 is None else m0,
                    p=p, alpha=alpha,
                    estimator=estimator or EstimatorSpec("naive"),
                    B=B, seed=RngSeed(seed))


class TestRunTest:
    def test_detects_large_shift(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 5)) + 2.0
        res = run_test(X, make_spec(5, LpExponent.finite(2)))
        assert res.reject and res.p_value == 0.0

    def test_null_keeps_level(self):
        # empirical size over replicates stays near alpha
        rejects = []
        for rep in range(200):
            X = RngSeed(5).child(rep).generator().standard_normal((50, 4))
            res = run_test(X, make_spec(4, LpExponent.infinity(), seed=rep))
            rejects.append(res.reject)
        assert abs(np.mean(rejects) - 0.05) <= 0.05

    def test_reject_consistent_with_quantile(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 4)) + 0.2
        res = run_test(X, make_spec(4, LpExponent.finite(1)))
        assert res.reject == (res.statistic > res.critical_value)
        assert 0.0 <= res.p_value <= 1.0

    @given(data_seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), d=st.integers(3, 6),
           shift=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           k=st.integers(1, 999), B=st.integers(1, 3000),
           p=st.sampled_from([LpExponent.finite(1), LpExponent.finite(2),
                              LpExponent.log_dim(), LpExponent.infinity()]))
    @settings(max_examples=200, deadline=None)
    def test_reject_agrees_with_p_value(self, data_seed, n, d, shift, seed, k, B, p):
        X = np.random.default_rng(data_seed).normal(size=(n, d)) + shift
        res = run_test(X, make_spec(d, p, alpha=k / 1000, B=B, seed=seed))
        assert res.reject == (res.p_value <= k / 1000)

    @pytest.mark.parametrize("estimator", ["naive", "corr_cv", "hard(0.1)", "band(1)"])
    def test_all_zero_data_rejects_nothing(self, estimator):
        # statistic 0 ties every draw and the critical value 0
        spec = make_spec(4, LpExponent.finite(2), estimator=EstimatorSpec.parse(estimator),
                         B=200)
        res = run_test(np.zeros((30, 4)), spec)
        assert res.statistic == res.critical_value == 0.0 and res.p_value == 1.0
        assert not res.reject

    def test_hard_threshold_keeps_small_variances(self):
        # every variance (0.05^2) is below the level: zeroing the diagonal
        # would give critical value 0 and reject this true null
        X = np.random.default_rng(0).normal(scale=0.05, size=(10, 5))
        spec = make_spec(5, LpExponent.finite(2), estimator=EstimatorSpec.parse("hard(0.1)"))
        Sigma = estimate_covariance(X, spec.estimator, RngSeed(0))
        assert np.array_equal(np.diag(Sigma.values), X.var(axis=0))
        res = run_test(X, spec)
        assert res.critical_value > 0.0 and res.p_value > 0.05 and not res.reject

    def test_one_dimensional_data_raises_value_error(self):
        spec = make_spec(5, LpExponent.finite(2))
        with pytest.raises(ValueError, match=r"data of shape \(5,\), restriction map "
                                             r"of shape \(5, 5\)"):
            run_test(np.ones(5), spec)
        with pytest.raises(ValueError):
            confidence_set(np.ones(5), LpExponent.finite(2), 0.05,
                           EstimatorSpec("naive"), 100, RngSeed(0))

    def test_B_checked_before_covariance(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(ValueError, match="B must lie in"):
            make_spec(3, LpExponent.finite(2), B=MAX_DRAWS + 1)

        def no_covariance(*args, **kwargs):
            raise AssertionError("estimate_covariance ran before B was checked")

        monkeypatch.setattr(inference, "estimate_covariance", no_covariance)
        data = tmp_path / "x.csv"
        np.savetxt(data, np.random.default_rng(0).normal(size=(10, 3)), delimiter=",")
        assert main(["test", str(data), "--B", str(MAX_DRAWS + 1)]) == 2
        assert "B must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("kept_rows", [[5, 40], []])
    def test_zero_variance_coordinate(self, tmp_path, capsys, kept_rows):
        # column 3 is constant in some CV splits, or in the whole data set;
        # corr_cv takes it as uncorrelated with every other coordinate
        X = np.random.default_rng(0).normal(size=(60, 20))
        kept = X[kept_rows, 3]
        X[:, 3] = 0.0
        X[kept_rows, 3] = kept
        spec = make_spec(20, LpExponent.finite(2), estimator=EstimatorSpec("corr_cv"), B=200)
        res = run_test(X, spec)
        assert math.isfinite(res.critical_value) and 0.0 <= res.p_value <= 1.0
        data = tmp_path / "x.csv"
        np.savetxt(data, X, delimiter=",")
        assert main(["test", str(data), "--B", "200"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert [float(v) for v in row[:3]] == [res.statistic, res.critical_value, res.p_value]
        assert row[3:] == [str(int(res.reject)), "2", "0.05", "corr_cv", "200", "0"]

    @pytest.mark.parametrize("estimator", ["naive", "corr_cv", "hard"])
    def test_scale_equivariant(self, estimator):
        # the factor's rank cut and the PSD probe's jitter are relative to
        # the data's scale, so the units of X change no decision; far from 1,
        # where CV risks (c^4) or Sigma_hat (c^2) would overflow or underflow,
        # the data is rescaled by a power of two first. The hard level is a
        # covariance level, so it goes with c^2, and is set between two
        # off-diagonal entries so that it both zeroes and keeps some
        X = np.random.default_rng(0).normal(size=(60, 10))
        off = np.sort(np.abs(sample_covariance(X).values[np.triu_indices(10, 1)]))
        lam = float(off[20] + off[21]) / 2

        def spec_at(c):
            est = EstimatorSpec("hard", lam=lam * c * c) if estimator == "hard" else EstimatorSpec(estimator)
            return make_spec(10, LpExponent.finite(2), estimator=est, B=200)

        base = run_test(X, spec_at(1.0))
        for c in (1e-9, 1e-6, 1.0, 1e6, 2.0**300, 2.0**-300, 1e-200, 1e-100, 1e-30,
                  1e30, 1e80, 1e160):
            if estimator == "hard" and not 0.0 < lam * c * c < math.inf:
                continue  # c^2 lam is not a float
            res = run_test(c * X, spec_at(c))
            for got, want in ((res.statistic, base.statistic),
                              (res.critical_value, base.critical_value)):
                assert got == pytest.approx(c * want, rel=1e-9, abs=0.0)
            assert (res.p_value, res.reject) == (base.p_value, base.reject)

    @pytest.mark.parametrize("p", ["1", "2"])
    def test_draws_past_the_largest_float_raise(self, p):
        # the statistic is 0, but the draws, scaled back to the data's units
        # by 2^k, pass the largest float
        x = LARGE_ROWS
        X = 3e307 * np.stack([x[0], -x[0], x[1], -x[1], x[2], -x[2]])
        spec = make_spec(4, LpExponent.parse(p), estimator=EstimatorSpec("naive"))
        with np.errstate(over="raise"):
            assert restriction_stat(X, spec.M, spec.m0, spec.p) == 0.0
            with pytest.raises(ValueError, match="the bootstrap draws overflow: scaled back "
                                                 "to the data's units by 2\\^1022"):
                run_test(X, spec)

    def test_restriction_map_conjugates_covariance(self):
        # with M selecting one coordinate, the critical value matches a
        # one-dimensional bootstrap of that coordinate alone
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 3)) * np.array([1.0, 5.0, 0.2])
        M = np.array([[0.0, 1.0, 0.0]])
        spec = make_spec(1, LpExponent.finite(2), M=M, m0=np.zeros(1), B=2000, seed=8)
        res = run_test(X, spec)
        s2 = X[:, 1].var()
        onedim = gpb_draws(CovMatrix(np.array([[s2]])),
                           LpExponent.finite(2), 2000, RngSeed(8).child(2))
        assert res.critical_value == pytest.approx(
            np.quantile(onedim.samples, 0.95), rel=0.1)

    def test_identity_map_skips_the_conjugation(self, monkeypatch):
        # M = I, as confidence_set passes it, draws from Sigma_hat itself, the
        # bytes that I Sigma_hat I' gives; a permuted identity still conjugates
        built = []
        cov_matrix = inference.CovMatrix

        def counting(*args, **kwargs):
            built.append(args)
            return cov_matrix(*args, **kwargs)

        monkeypatch.setattr(inference, "CovMatrix", counting)
        X = np.random.default_rng(10).normal(size=(40, 5))
        res = run_test(X, make_spec(5, LpExponent.finite(2), seed=11))
        assert built == []
        eye = np.eye(5)
        conjugated = cov_matrix(eye @ sample_covariance(X).values @ eye.T)
        want = gpb_draws(conjugated, LpExponent.finite(2), 400, RngSeed(11).child(2))
        assert np.array_equal(res.distribution.samples, want.samples)
        run_test(X, make_spec(5, LpExponent.finite(2), M=eye[[1, 0, 2, 3, 4]]))
        assert len(built) == 1

    def test_csv_row_shape(self, tmp_path, capsys):
        # the stdout row and the --out file, byte for byte
        data = tmp_path / "x.csv"
        np.savetxt(data, np.random.default_rng(9).normal(size=(30, 4)), delimiter=",")
        out = tmp_path / "o.csv"
        for estimator, row in GOLDEN_TEST_ROWS.items():
            assert main(["test", str(data), "--estimator", estimator, "--p", "logd",
                         "--B", "200", "--seed", "3", "--out", str(out)]) == 0
            expected = f"statistic,critical_value,p_value,reject,p,alpha,estimator,B,seed\n{row}\n"
            assert capsys.readouterr().out == expected
            assert out.read_text() == expected


class TestConfidenceSet:
    def test_contains_center(self):
        cs = ConfidenceSet(center=np.zeros(3), radius=0.0, p=LpExponent.finite(2))
        assert cs.contains(np.zeros(3))

    def test_contains_rejects_a_point_of_another_dimension(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        for cs in (ConfidenceSet(center=np.zeros(3), radius=1.0, p=LpExponent.finite(2)),
                   confidence_set(X, LpExponent.finite(2), 0.05, EstimatorSpec("naive"), 100,
                                  RngSeed(0))):
            for mu in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    cs.contains(mu)

    def test_contains_is_false_past_the_largest_float(self):
        # a finite mu whose statistic (dual form) or distance (ball form)
        # passes the largest float lies outside the set; a mu that is not
        # finite is a ValueError in both forms
        X = RngSeed(0).generator().standard_normal((50, 20))
        dual = confidence_set(X, LpExponent.finite(2), 0.05, EstimatorSpec("naive"), 200,
                              RngSeed(1))
        ball = ConfidenceSet(center=dual.center, radius=dual.radius, p=dual.p)
        far_ball = ConfidenceSet(center=np.full(20, -1e308), radius=1.0, p=dual.p)
        for cs in (dual, ball, far_ball):
            for mu in (np.full(20, 1e308), np.full(20, -sys.float_info.max),
                       np.r_[1e308, np.zeros(19)]):
                assert cs.contains(mu) is False
            for bad in (math.inf, -math.inf, math.nan):
                mu = cs.center.copy()
                mu[3] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    cs.contains(mu)
        assert dual.contains(X.mean(axis=0)) and ball.contains(X.mean(axis=0))
        # the test itself still rejects a statistic it cannot represent
        with pytest.raises(ValueError, match="the test statistic overflows"):
            run_test(X, make_spec(20, dual.p, B=200, seed=1, m0=np.full(20, 1e308)))

    def test_ball_geometry(self):
        cs = ConfidenceSet(center=np.zeros(2), radius=1.0, p=LpExponent.finite(1))
        assert cs.contains(np.array([0.5, 0.5]))
        assert not cs.contains(np.array([0.75, 0.5]))

    def test_duality_with_test(self):
        # the confidence set contains m0 iff the identity-map test accepts
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 4)) + 0.15
        for p in (LpExponent.finite(2), LpExponent.infinity()):
            spec = make_spec(4, p, seed=11)
            res = run_test(X, spec)
            cs = confidence_set(X, p, 0.05, EstimatorSpec("naive"), 400, RngSeed(11))
            assert cs.contains(np.zeros(4)) == (not res.reject)

    def test_contains_exactly_where_the_test_accepts(self):
        # mu scanned across the boundary a few ulps at a time, for every kind
        # of p and data scales far from 1: the set evaluates the test's own
        # statistic, so no mu falls between the two
        kinds = (LpExponent.finite(1), LpExponent.finite(2), LpExponent.finite(3),
                 LpExponent.log_dim(), LpExponent.infinity())
        for j in range(60):
            rng = np.random.default_rng(j)
            n, d, p = int(rng.integers(5, 40)), int(rng.integers(3, 12)), kinds[j % 5]
            X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
            cs = confidence_set(X, p, 0.05, EstimatorSpec("naive"), 200, RngSeed(j))
            u = rng.normal(size=d)
            u /= lp_norm(u, p)
            for k in range(-40, 41):
                mu = cs.center + cs.radius * u * (1.0 + k * 2.0**-52)
                spec = make_spec(d, p, B=200, seed=j, m0=mu)
                assert cs.contains(mu) == (not run_test(X, spec).reject)

    @pytest.mark.parametrize("estimator", ["naive", "hard(0.2)", "band(1)", "corr_cv"])
    def test_radius_is_test_critical_value(self, estimator):
        X = np.random.default_rng(14).normal(size=(40, 6))
        spec = make_spec(6, LpExponent.log_dim(), estimator=EstimatorSpec.parse(estimator),
                         B=300, seed=15)
        cs = confidence_set(X, spec.p, spec.alpha, spec.estimator, spec.B, spec.seed)
        assert cs.radius == run_test(X, spec).critical_value / math.sqrt(40)
        assert np.array_equal(cs.center, X.mean(axis=0))

    @pytest.mark.parametrize("kw, message", [
        (dict(B=MAX_DRAWS + 1), "B must lie in"),
        (dict(alpha=1.5), "alpha must lie in"),
        (dict(B=0), "B must lie in"),
    ])
    def test_inputs_checked_before_compute(self, monkeypatch, kw, message):
        def no_covariance(*args, **kwargs):
            raise AssertionError("estimate_covariance ran before the inputs were checked")

        monkeypatch.setattr(inference, "estimate_covariance", no_covariance)
        args = dict(p=LpExponent.finite(2), alpha=0.05, estimator=EstimatorSpec("corr_cv"),
                    B=100, seed=RngSeed(0)) | kw
        with pytest.raises(ValueError, match=message):
            confidence_set(np.random.default_rng(0).normal(size=(20, 3)), **args)

    def test_coverage_rate(self):
        covered = []
        for rep in range(200):
            X = RngSeed(12).child(rep).generator().standard_normal((50, 3))
            cs = confidence_set(X, LpExponent.finite(1), 0.05,
                                EstimatorSpec("naive"), 400, RngSeed(13).child(rep))
            covered.append(cs.contains(np.zeros(3)))
        assert abs(np.mean(covered) - 0.95) <= 0.05


class TestBallVolume:
    def test_euclidean_disc(self):
        assert lp_ball_volume(2, 2.0, 1.0).volume == pytest.approx(math.pi, rel=1e-12)

    def test_interval(self):
        assert lp_ball_volume(1, 7.0, 3.0).volume == pytest.approx(6.0, rel=1e-12)

    def test_cross_polytope(self):
        # ||x||_1 <= 1 in R^3 has volume 2^3 / 3! = 4/3
        assert lp_ball_volume(3, 1.0, 1.0).volume == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_cube(self):
        assert lp_ball_volume(4, math.inf, 0.5).volume == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, 1e308, math.inf])
    @pytest.mark.parametrize("r", [1e-300, 0.1, 0.5, 1.0, 1.7, 3.0, 123.456, 5e307])
    def test_interval_is_exactly_the_diameter(self, p, r):
        # exp(log volume) gave 1.9999999999999998 for 2r = 2, and 1.0000000000000136e308
        assert lp_ball_volume(1, p, r).volume == 2.0 * r

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("p", [1.0, math.inf])
    @pytest.mark.parametrize("r", [1e-30, 0.1, 0.5, 0.7, 1.0, 1.3, 2.9, 10.0, 1e20])
    def test_cross_polytope_and_cube_within_one_ulp(self, d, p, r):
        # exact volumes: (2r)^d / d! at p = 1 and (2r)^d at p = inf; the
        # result is the exact volume rounded to a float, or a neighbour of it
        exact = Fraction(2 * r) ** d / (math.factorial(d) if p == 1.0 else 1)
        nearest = float(exact)
        assert lp_ball_volume(d, p, r).volume in (
            math.nextafter(nearest, 0.0), nearest, math.nextafter(nearest, math.inf))

    def test_closed_form_gamma(self):
        d, p, r = 5, 3.0, 1.4
        oracle = (2 * r) ** d * gamma(1 + 1 / p) ** d / gamma(1 + d / p)
        assert lp_ball_volume(d, p, r).volume == pytest.approx(oracle, rel=1e-10)

    def test_overflow_reported_via_log(self):
        v = lp_ball_volume(2000, math.inf, 10.0)
        assert not v.representable and math.isinf(v.volume)
        assert v.log_volume == pytest.approx(2000 * math.log(20.0), rel=1e-12)

    def test_largest_doubles_stay_representable(self):
        # log volumes in [709, log(DBL_MAX)) still fit in a double
        v = lp_ball_volume(1, math.inf, math.exp(709.5) / 2)
        assert v.representable and v.volume == pytest.approx(math.exp(709.5), rel=1e-12)
        assert not lp_ball_volume(1, math.inf, 1e308).representable

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("r", [1e308, sys.float_info.max])
    def test_log_volume_is_finite_where_the_diameter_overflows(self, d, r):
        # 2r passes the largest float, and log(2r) = log 2 + log r does not
        v = lp_ball_volume(d, 2.0, r)
        assert math.isfinite(v.log_volume) and not v.representable
        # halving r, whose 2r is finite, takes d log 2 off the log volume
        assert v.log_volume - lp_ball_volume(d, 2.0, r / 2).log_volume == pytest.approx(
            d * math.log(2.0), abs=1e-12)

    def test_underflow_keeps_log(self):
        v = lp_ball_volume(2000, 1.0, 1.0)
        assert v.volume == 0.0 and v.representable
        assert v.log_volume == pytest.approx(
            2000 * math.log(2.0) - sum(math.log(k) for k in range(1, 2001)), rel=1e-12)

    def test_rejects_bad_args(self):
        for args in ((0, 2.0, 1.0), (2, 0.5, 1.0), (2, 2.0, 0.0),
                     (2, 2.0, math.inf), (2, 2.0, math.nan)):
            with pytest.raises(ValueError):
                lp_ball_volume(*args)


def test_monte_carlo_volume_oracle():
    # rejection sampling in the bounding cube reproduces the closed form
    d, p, r = 3, 3.0, 1.0
    rng = np.random.default_rng(14)
    m = 200_000
    pts = rng.uniform(-r, r, size=(m, d))
    inside = np.array([lp_norm(row, LpExponent.finite(p)) <= r for row in pts[:20_000]])
    est = inside.mean() * (2 * r) ** d
    assert est == pytest.approx(lp_ball_volume(d, p, r).volume, rel=0.03)
