"""Norm evaluation, smooth surrogates, and closed-form derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpboot.lp import (LpExponent, lp_norm, lp_norm_rows, mp_gradient,
                       mp_higher_derivatives, smooth_max, smooth_norm)

P1 = LpExponent.finite(1)
P2 = LpExponent.finite(2)
PINF = LpExponent.infinity()
PLOG = LpExponent.log_dim()


def naive_norm(x, q):
    """Direct-summation oracle, no max factoring."""
    if math.isinf(q):
        return float(np.max(np.abs(x)))
    return float(np.sum(np.abs(x) ** q) ** (1.0 / q))


class TestLpExponent:
    def test_parse_roundtrip(self):
        assert LpExponent.parse("2") == P2
        assert LpExponent.parse("inf") == PINF
        assert LpExponent.parse("logd") == PLOG
        assert LpExponent.parse("1.5").p == 1.5

    def test_finite_requires_p_at_least_one(self):
        with pytest.raises(ValueError):
            LpExponent.finite(0.5)
        with pytest.raises(ValueError):
            LpExponent.finite(math.nan)

    def test_logdim_resolution(self):
        assert PLOG.resolve(100) == pytest.approx(math.log(100))
        with pytest.raises(ValueError):
            PLOG.resolve(2)
        # a norm resolves log d at the length of the vector it measures
        x = np.arange(1.0, 21.0)
        for length in (3, 20):
            at_length = lp_norm(x[:length], LpExponent.finite(math.log(length)))
            assert lp_norm(x[:length], PLOG) == at_length
            assert lp_norm_rows(np.stack([x[:length]] * 2), PLOG).tolist() == [at_length] * 2
        with pytest.raises(ValueError, match="requires d >= 3, got d=2"):
            lp_norm_rows(np.ones((4, 2)), PLOG)

    def test_labels(self):
        assert P1.label == "1" and PINF.label == "inf" and PLOG.label == "logd"
        assert P2.label == "2" and LpExponent.finite(1.5).label == "1.5"

    def test_labels_name_the_exact_exponent(self):
        # %g prints both as 2
        for p in (2.0000001, 2.0000002, 1.0 + 2.0**-52, 123456789.0):
            label = LpExponent.finite(p).label
            assert LpExponent.parse(label) == LpExponent.finite(p)
        assert LpExponent.finite(2.0000001).label != LpExponent.finite(2.0000002).label


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm(np.array([3.0, 4.0]), P2) == pytest.approx(5.0)

    def test_all_ones(self):
        for q in (1.0, 2.0, 3.5, 7.0):
            x = np.ones(11)
            assert lp_norm(x, LpExponent.finite(q)) == pytest.approx(11 ** (1 / q))

    def test_infinity_is_max_abs(self):
        assert lp_norm(np.array([-2.0, 1.0, 0.0]), PINF) == 2.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=5)
            for q in (1.0, 2.0, 3.0, 7.5):
                got = lp_norm(x, LpExponent.finite(q))
                assert got == pytest.approx(naive_norm(x, q), rel=1e-12)

    def test_zero_vector(self):
        z = np.zeros(4)
        for p in (P1, P2, PINF, PLOG):
            assert lp_norm(z, p) == 0.0

    def test_large_p_no_overflow(self):
        x = np.full(10, 1e200)
        assert np.isfinite(lp_norm(x, LpExponent.finite(50.0)))

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 4))
        for p in (P1, P2, PINF, PLOG):
            rows = lp_norm_rows(X, p)
            for i in range(6):
                assert rows[i] == pytest.approx(lp_norm(X[i], p), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lp_norm(np.array([]), P2)
        with pytest.raises(ValueError):
            lp_norm(np.array([1.0, np.nan]), P2)
        for X in (np.ones(3), np.ones((3, 0)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="2-d array with nonempty rows"):
                lp_norm_rows(X, P2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rows_reject_what_lp_norm_rejects(self, bad):
        # a NaN row read NaN, an inf row NaN at p = 2 and inf at p = inf
        X = np.ones((3, 4))
        X[1, 2] = bad
        for p in (P1, P2, PINF, PLOG):
            with pytest.raises(ValueError, match="vector entries must be finite"):
                lp_norm(X[1], p)
            with pytest.raises(ValueError, match="vector entries must be finite"):
                lp_norm_rows(X, p)

    @given(st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6),
           st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
           st.floats(1.0, 40.0))
    @settings(max_examples=200)
    def test_homogeneity(self, c, xs, q):
        x = np.array(xs)
        p = LpExponent.finite(q)
        assert lp_norm(c * x, p) == pytest.approx(abs(c) * lp_norm(x, p), rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=8),
           st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=8),
           st.floats(1.0, 40.0))
    @settings(max_examples=200)
    def test_triangle_inequality(self, xs, ys, q):
        m = min(len(xs), len(ys))
        x, y = np.array(xs[:m]), np.array(ys[:m])
        p = LpExponent.finite(q)
        assert lp_norm(x + y, p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-8

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=8),
           st.floats(1.0, 30.0), st.floats(0.0, 30.0))
    @settings(max_examples=200)
    def test_monotone_decreasing_in_p(self, xs, q1, dq):
        x = np.array(xs)
        lo = lp_norm(x, LpExponent.finite(q1))
        hi = lp_norm(x, LpExponent.finite(q1 + dq))
        assert hi <= lo + 1e-9 * max(lo, 1.0)

    def test_logdim_within_factor_e_of_sup(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(3, 50))
            x = rng.normal(size=d)
            nl = lp_norm(x, PLOG)
            ni = lp_norm(x, PINF)
            assert ni <= nl <= math.e * ni + 1e-12


class TestSmoothNorm:
    def test_zero_vector_gives_eta(self):
        assert smooth_norm(np.zeros(3), 2, 0.5) == pytest.approx(0.5)

    def test_small_eta_recovers_norm(self):
        assert smooth_norm(np.array([3.0, 4.0]), 2, 1e-9) == pytest.approx(5.0)

    def test_direct_formula(self):
        # (1 + 1 + 1)^(1/4)
        assert smooth_norm(np.array([1.0, 1.0]), 4, 1.0) == pytest.approx(3 ** 0.25)

    def test_rejects_odd_p_and_bad_eta(self):
        with pytest.raises(ValueError):
            smooth_norm(np.ones(2), 3, 0.1)
        with pytest.raises(ValueError):
            smooth_norm(np.ones(2), 2, 0.0)
        for beta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="beta must be positive"):
                smooth_max(np.ones(2), beta)

    def test_sandwich_bulk(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            d = int(rng.integers(1, 12))
            x = rng.normal(size=d) * 10 ** rng.uniform(-2, 2)
            q = int(rng.choice([2, 4, 6, 8, 10, 20]))
            eta = float(10 ** rng.uniform(-3, 1))
            norm = lp_norm(x, LpExponent.finite(q))
            val = smooth_norm(x, q, eta)
            assert norm - 1e-9 * max(norm, 1) <= val <= norm + eta + 1e-9


class TestSmoothMax:
    def test_zero_vector(self):
        d = 7
        assert smooth_max(np.zeros(d), 1.0) == pytest.approx(math.e * math.log(2 * d))

    def test_sandwich_spike(self):
        x = np.zeros(8)
        x[0] = 5.0
        beta = 50.0
        val = smooth_max(x, beta)
        lo = lp_norm(x, PLOG)
        assert lo <= val <= lo + math.e * math.log(16) / beta

    def test_sandwich_bulk(self):
        # sup-norm lower bound, additive upper bound against every p >= log d
        rng = np.random.default_rng(4)
        for _ in range(2000):
            d = int(rng.integers(3, 40))
            x = rng.normal(size=d) * 10 ** rng.uniform(-1, 2)
            beta = float(10 ** rng.uniform(0.5, 3))
            val = smooth_max(x, beta)
            slack = math.e * math.log(2 * d) / beta
            assert val >= lp_norm(x, PINF) - 1e-9
            for p in (PLOG, LpExponent.finite(2 * math.log(d)), PINF):
                norm = lp_norm(x, p)
                assert val <= norm + slack + 1e-9

    def test_monotone_in_coordinate_magnitude(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=6)
        base = smooth_max(x, 3.0)
        for k in range(6):
            y = x.copy()
            y[k] = y[k] * 1.5 if y[k] != 0 else 0.5
            assert smooth_max(np.abs(y), 3.0) >= smooth_max(np.abs(x), 3.0) - 1e-12
        assert np.isfinite(base)


def finite_diff_gradient(x, q, h=1e-5):
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (naive_norm(x + e, q) - naive_norm(x - e, q)) / (2 * h)
    return g


class TestGradient:
    def test_symmetric_point(self):
        g = mp_gradient(np.array([1.0, 1.0]), 2.0)
        assert np.allclose(g, 1 / math.sqrt(2))

    def test_conjugate_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(2, 10))
            x = rng.uniform(0.2, 3.0, size=d)
            q = float(rng.uniform(1.2, 8.0))
            g = mp_gradient(x, q)
            conj = q / (q - 1.0)
            assert naive_norm(g, conj) == pytest.approx(1.0, abs=1e-10)

    def test_matches_finite_differences(self):
        x = np.array([1.0, 2.0, 3.0])
        g = mp_gradient(x, 3.0)
        fd = finite_diff_gradient(x, 3.0)
        assert np.allclose(g, fd, rtol=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mp_gradient(np.array([1.0, 0.0]), 2.0)
        with pytest.raises(ValueError):
            mp_gradient(np.array([1.0, 1.0]), 1.0)
        for p in (1.0, 0.5, math.nan):
            with pytest.raises(ValueError, match="derivatives require p > 1"):
                mp_higher_derivatives(np.array([1.0, 1.0]), p)


class TestHigherDerivatives:
    def test_second_diagonal_closed_form(self):
        d = mp_higher_derivatives(np.array([1.0, 1.0]), 2.0)
        assert d.second[0, 0] == pytest.approx(1 / (2 * math.sqrt(2)))
        assert d.second[0, 1] == pytest.approx(-1 / (2 * math.sqrt(2)))

    def test_second_symmetric(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.3, 2.0, size=5)
        d = mp_higher_derivatives(x, 3.5)
        assert np.allclose(d.second, d.second.T)

    def test_second_matches_gradient_differences(self):
        rng = np.random.default_rng(8)
        for q in (2.0, 3.0, 4.0, 6.0):
            x = rng.uniform(0.5, 2.0, size=4)
            d = mp_higher_derivatives(x, q)
            h = 1e-5
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                fd = (mp_gradient(x + e, q) - mp_gradient(x - e, q)) / (2 * h)
                assert np.allclose(d.second[:, k], fd, rtol=1e-5, atol=1e-8)

    def test_third_matches_second_differences(self):
        rng = np.random.default_rng(9)
        for q in (3.0, 4.0, 6.0):
            x = rng.uniform(0.5, 2.0, size=3)
            d = mp_higher_derivatives(x, q)
            h = 1e-4
            for m in range(3):
                e = np.zeros(3)
                e[m] = h
                fd = (mp_higher_derivatives(x + e, q).second
                      - mp_higher_derivatives(x - e, q).second) / (2 * h)
                # pure third on the diagonal, mixed kkm elsewhere
                assert d.third_diag3[m] == pytest.approx(fd[m, m], rel=1e-4)
                for k in range(3):
                    if k != m:
                        assert d.third_kkl[k, m] == pytest.approx(fd[k, k], rel=1e-4)
                ks = [k for k in range(3) if k != m]
                assert d.third_klm(ks[0], ks[1], m) == pytest.approx(
                    fd[ks[0], ks[1]], rel=1e-4)

    def test_conjugate_norm_stability_bounds(self):
        # conjugate-norm bounds on the second/third partials: the mixed
        # Hessian entries q-sum to at most (p-1)/M, the distinct-index third
        # partials to (2p-1)(p-1)/M^2, with dimension-dependent bounds for
        # the repeated-index families
        rng = np.random.default_rng(10)
        dim = 6
        for q in (2.0, 3.0, 4.0, 6.0):
            x = rng.uniform(0.2, 3.0, size=dim)
            m = naive_norm(x, q)
            der = mp_higher_derivatives(x, q)
            conj = q / (q - 1.0)
            off = np.abs(der.second[~np.eye(dim, dtype=bool)])
            assert np.sum(off ** conj) ** (1 / conj) <= (q - 1.0) / m + 1e-9
            diag = np.abs(np.diag(der.second))
            assert np.sum(diag ** conj) ** (1 / conj) <= \
                2 * (q - 1) * (dim ** (1 / q) + 1) / m + 1e-9
            # distinct-index third partials over all ordered triples
            g = np.abs(np.array([[der.third_klm(i, j, k)
                                  for j in range(dim)] for i in range(dim)
                                 for k in range(dim)]))
            assert np.sum(g ** conj) ** (1 / conj) <= \
                (2 * q - 1) * (q - 1) / m ** 2 + 1e-9
            kkl = np.abs(der.third_kkl[~np.eye(dim, dtype=bool)])
            assert np.sum(kkl ** conj) ** (1 / conj) <= \
                (2 * (q - 1) ** 2 * dim ** (1 / q)
                 + 2 * (2 * q - 1) * (q - 1)) / m ** 2 + 1e-9
            if q >= 3.0:
                pure = np.abs(der.third_diag3)
                assert np.sum(pure ** conj) ** (1 / conj) <= \
                    (4 * (q - 1) * (q - 2) * dim ** (2 / q) + 12 * (q - 1)
                     + 4 * (2 * q - 1) * (q - 1)) / m ** 2 + 1e-9
