"""Bootstrap engines, empirical quantiles, and KS distance."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from lpboot.bootstrap import (_AHEAD, _ROWS, EmpiricalDistribution, _norm_draws, _Rows,
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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5, 0.0, 1.0, 1.5])
    def test_critical_value_rejects_a_level_outside_0_1(self, alpha):
        # NaN reached Fraction("nan"), which raised "Invalid literal for Fraction"
        d = dist([1.0, 2.0])
        for level in (empirical_quantile, critical_value):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                level(d, alpha)

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
        # a B past a block's end has the same draws in every whole block
        S = CovMatrix(np.eye(2))
        small = gpb_draws(S, LpExponent.finite(2), 15 * _ROWS, RngSeed(4))
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_data_that_is_not_finite_before_drawing(self, bad, monkeypatch):
        # the draws ran, with numpy's RuntimeWarnings, before the samples' check
        def no_draws(*args, **kwargs):
            raise AssertionError("the draws ran on data that is not finite")

        monkeypatch.setattr(RngSeed, "generator", no_draws)
        X = np.ones((5, 3))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="data entries must be finite"):
            gmb_draws(X, LpExponent.finite(2), 10, RngSeed(0))


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
    B = _AHEAD * _ROWS + 300  # blocks drawn ahead, and blocks past them
    # rows at mixed scales, and all-zero rows
    for W in (np.diag(10.0 ** np.arange(-3, 4)), np.zeros((d, d))):
        draws = _norm_draws(_Rows(d, lambda: W), p_list, B, RngSeed(21))
        chunks = [RngSeed(21).child(j).generator().standard_normal((min(_ROWS, B - lo), d)) @ W
                  for j, lo in enumerate(range(0, B, _ROWS))]
        for p in p_list:
            q = p.resolve(d)
            want = np.concatenate([_reference_row_norms(V, q) for V in chunks])
            assert want.tobytes() == draws[p].tobytes()
            assert want.tobytes() == np.concatenate([lp_norm_rows(V, p) for V in chunks]).tobytes()
            alone = _norm_draws(_Rows(d, lambda: W), (p,), B, RngSeed(21))[p]
            assert draws[p].tobytes() == alone.tobytes()
        assert W.any() == draws[LpExponent.finite(2)].all()


def test_philox_normals_are_prefix_stable():
    # the draw kernel rests on this numpy property: the first N normals of a
    # Philox stream are the same drawn alone, as the start of a longer
    # request, or as blocked out= requests of any sizes. A block drawn ahead
    # is one out= request at width bound, and the block uses its prefix as
    # its own request of rows * rank; a numpy that breaks this fails here
    # first
    def stream():
        return RngSeed(3).child(1).generator()

    N, M = 5000, 3 * 8192 + 7
    alone = stream().standard_normal(N)
    assert alone.tobytes() == stream().standard_normal(M)[:N].tobytes(), \
        "standard_normal(N) is not a prefix of standard_normal(M > N)"
    assert alone.tobytes() == stream().standard_normal((50, N // 50)).tobytes()
    for sizes in ((8192,), (1, 7, 1000), (4999, 2)):
        blocked, gen, lo = np.empty(M), stream(), 0
        while lo < M:
            for size in sizes:
                gen.standard_normal(out=blocked[lo:lo + size])
                lo += size
        assert alone.tobytes() == blocked[:N].tobytes(), \
            f"blocked standard_normal(out=...) requests of sizes {sizes} are not a prefix"


def test_draws_within_one_block_are_block_0s():
    # B <= _ROWS draws one block from rng.child(0), as the kernel's first
    # 4096-row chunk of one product did, so these bytes are the same as
    # before blocks had their own streams
    G = RngSeed(22).generator().standard_normal((40, 30))
    S, X = sample_covariance(G), G[:12]
    p = LpExponent.finite(2)
    for B in (1, 100, _ROWS):
        L = CovMatrix(S.values).factor()
        want = lp_norm_rows(RngSeed(23).child(0).generator().standard_normal((B, L.shape[1]))
                            @ L.T, p)
        assert gpb_draws(S, p, B, RngSeed(23)).samples.tobytes() == np.sort(want).tobytes()
        Xc = (X - X.mean(axis=0)) / math.sqrt(12)
        want = lp_norm_rows(RngSeed(23).child(0).generator().standard_normal((B, 12)) @ Xc, p)
        assert gmb_draws(X, p, B, RngSeed(23)).samples.tobytes() == np.sort(want).tobytes()
