"""Bootstrap engines, empirical quantiles, and KS distance."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from lpboot.bootstrap import (_CHUNK, EmpiricalDistribution, _norm_draws,
                              critical_value, empirical_quantile, gmb_draws,
                              gpb_draws, ks_distance, proxy_draws)
from lpboot.covariance import CovMatrix, sample_covariance
from lpboot.lp import LpExponent, lp_norm_rows
from lpboot.sampling import RngSeed


def dist(values, **meta):
    return EmpiricalDistribution(np.asarray(values, dtype=float), meta)


class TestEmpiricalDistribution:
    def test_sorted_on_construction(self):
        d = dist([3.0, 1.0, 2.0])
        assert np.array_equal(d.samples, [1.0, 2.0, 3.0])
        assert len(d) == 3

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            dist([-1.0])
        with pytest.raises(ValueError):
            dist([])


class TestEmpiricalQuantile:
    def test_order_statistic_indexing(self):
        d = dist([1.0, 2.0, 3.0, 4.0])
        # ceil(alpha * B) picks the 1-based order statistic
        assert empirical_quantile(d, 0.5) == 2.0
        assert empirical_quantile(d, 0.51) == 3.0
        assert empirical_quantile(d, 0.25) == 1.0
        assert empirical_quantile(d, 0.9) == 4.0

    def test_rejects_endpoints(self):
        d = dist([1.0])
        for a in (0.0, 1.0):
            with pytest.raises(ValueError):
                empirical_quantile(d, a)

    @given(k=st.integers(1, 999), B=st.integers(100, 10_000))
    @example(k=59, B=1000)   # float: ceil((1 - 0.059) * 1000) = 942
    @example(k=180, B=250)   # float: ceil((1 - 0.18) * 250) = 206
    @settings(max_examples=300, deadline=None)
    def test_index_is_exact(self, k, B):
        d = dist(np.arange(B))  # the i-th order statistic is i - 1
        level = Fraction(k, 1000)
        upper = math.ceil((1 - level) * B)
        assert critical_value(d, k / 1000) == upper - 1
        assert empirical_quantile(d, 1 - level) == upper - 1
        assert empirical_quantile(d, k / 1000) == math.ceil(level * B) - 1

    def test_matches_chi_quantile(self):
        # ||V||_2 with V ~ N(0, I_3) is a chi(3) variable
        S = CovMatrix(np.eye(3))
        d = gpb_draws(S, LpExponent.finite(2), 200_000, RngSeed(0))
        for a in (0.05, 0.5, 0.95):
            assert empirical_quantile(d, a) == pytest.approx(
                math.sqrt(stats.chi2.ppf(a, df=3)), abs=0.02)


class TestKsDistance:
    def test_identical_is_zero(self):
        d = dist([1.0, 2.0, 3.0])
        assert ks_distance(d, d) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance(dist([1.0, 2.0]), dist([5.0, 6.0])) == 1.0

    def test_hand_computed(self):
        # CDFs: A jumps at 1, 3; B jumps at 2, 3; max gap 1/2 at x in [1, 2)
        assert ks_distance(dist([1.0, 3.0]), dist([2.0, 3.0])) == 0.5

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        a = dist(np.abs(rng.normal(size=500)))
        b = dist(np.abs(rng.normal(size=300) * 1.4))
        assert ks_distance(a, b) == ks_distance(b, a)
        assert 0.0 < ks_distance(a, b) <= 1.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        x = np.abs(rng.normal(size=400))
        y = np.abs(rng.normal(size=250))
        got = ks_distance(dist(x), dist(y))
        assert got == pytest.approx(stats.ks_2samp(x, y).statistic, abs=1e-12)


class TestGpbDraws:
    def test_deterministic(self):
        S = CovMatrix(np.eye(4))
        a = gpb_draws(S, LpExponent.finite(1), 100, RngSeed(3))
        b = gpb_draws(S, LpExponent.finite(1), 100, RngSeed(3))
        assert np.array_equal(a.samples, b.samples)

    def test_chunking_invisible(self):
        # a B just over the chunk boundary has the same first draws
        S = CovMatrix(np.eye(2))
        small = gpb_draws(S, LpExponent.finite(2), 4096, RngSeed(4))
        big = gpb_draws(S, LpExponent.finite(2), 5000, RngSeed(4))
        assert set(small.samples) <= set(big.samples)

    def test_scalar_case_half_normal(self):
        S = CovMatrix(np.array([[4.0]]))
        d = gpb_draws(S, LpExponent.finite(1), 100_000, RngSeed(5))
        # |2 Z| has mean 2 sqrt(2/pi)
        assert d.samples.mean() == pytest.approx(2 * math.sqrt(2 / math.pi), abs=0.02)

    def test_inf_norm_distribution(self):
        # max of |Z_j|, j = 1..d, has CDF (2 Phi(t) - 1)^d
        dd = 8
        S = CovMatrix(np.eye(dd))
        draws = gpb_draws(S, LpExponent.infinity(), 100_000, RngSeed(6)).samples
        t = 2.0
        target = (2 * stats.norm.cdf(t) - 1) ** dd
        assert (draws <= t).mean() == pytest.approx(target, abs=0.01)

    def test_rejects_bad_B(self):
        S = CovMatrix(np.eye(2))
        with pytest.raises(ValueError):
            gpb_draws(S, LpExponent.finite(2), 0, RngSeed(0))

    def test_meta_records_engine(self):
        S = CovMatrix(np.eye(2))
        d = gpb_draws(S, LpExponent.finite(2), 10, RngSeed(7).child(1, 2))
        assert d.meta["engine"] == "gpb"
        assert d.meta["seed"] == "7.1.2"
        assert proxy_draws(S, LpExponent.finite(2), 10, RngSeed(7)).meta["engine"] == "proxy"


class TestGmbDraws:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 5))
        a = gmb_draws(X, LpExponent.finite(2), 64, RngSeed(9))
        b = gmb_draws(X, LpExponent.finite(2), 64, RngSeed(9))
        assert np.array_equal(a.samples, b.samples)

    def test_single_column_scale(self):
        # d=1: draws are |N(0, s2)| with s2 = mean((x - xbar)^2)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 1)) * 3.0
        s2 = x.var()
        d = gmb_draws(x, LpExponent.finite(1), 100_000, RngSeed(11))
        assert d.samples.mean() == pytest.approx(math.sqrt(2 * s2 / math.pi), rel=0.02)

    def test_exact_matches_fast_path_in_law(self):
        # conditional law of the multiplier draws is the naive-covariance
        # normal pushed through the norm; KS between the two engines is small
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 6))
        B = 50_000
        a = gmb_draws(X, LpExponent.finite(2), B, RngSeed(13))
        b = gpb_draws(sample_covariance(X), LpExponent.finite(2), B, RngSeed(14))
        assert ks_distance(a, b) <= 1.5 * 1.36 * math.sqrt(2 / B)

    def test_mean_shift_invariance(self):
        # centering makes the draws invariant to adding a constant row shift
        rng = np.random.default_rng(17)
        X = rng.normal(size=(20, 3))
        a = gmb_draws(X, LpExponent.infinity(), 50, RngSeed(18))
        b = gmb_draws(X + np.array([5.0, -2.0, 0.5]), LpExponent.infinity(), 50, RngSeed(18))
        assert np.allclose(a.samples, b.samples)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            gmb_draws(np.ones((1, 3)), LpExponent.finite(2), 10, RngSeed(0))


def _reference_row_norms(V, q):
    """Row norms at numeric exponent q, one exponent at a time, as each p
    was computed before the norm pass was shared."""
    absv = np.abs(V)
    if math.isinf(q):
        return absv.max(axis=1)
    m = absv.max(axis=1, keepdims=True)
    safe = np.where(m > 0.0, m, 1.0)
    res = np.squeeze(safe, axis=1) * ((absv / safe) ** q).sum(axis=1) ** (1.0 / q)
    return np.where(np.squeeze(m, axis=1) == 0.0, 0.0, res)


def test_one_norm_pass_equals_each_p_alone():
    d = 7
    p_list = (LpExponent.finite(1), LpExponent.finite(2), LpExponent.log_dim(),
              LpExponent.infinity(), LpExponent.finite(3.5))
    chunks = []

    def rows(m, seed):
        V = seed.generator().standard_normal((m, d)) * 10.0 ** np.arange(-3, 4)
        V[::5] = 0.0  # all-zero rows
        chunks.append(V)
        return V

    B = _CHUNK + 300  # two chunks
    draws = _norm_draws(rows, p_list, B, RngSeed(21), d)
    assert len(chunks) == 2
    first = list(chunks)
    for p in p_list:
        q = p.resolve(d)
        want = np.concatenate([_reference_row_norms(V, q) for V in first])
        assert want.tobytes() == draws[p].tobytes()
        assert want.tobytes() == np.concatenate([lp_norm_rows(V, p) for V in first]).tobytes()
        assert draws[p].tobytes() == _norm_draws(rows, (p,), B, RngSeed(21), d)[p].tobytes()
    assert not draws[LpExponent.finite(2)][::5][:3].any()
