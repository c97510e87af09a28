"""Concentration and distribution-comparison probes."""

import math
import sys

import numpy as np
import pytest
from scipy import stats

from lpboot import sampling
from lpboot.bootstrap import _CHUNK, MAX_DRAWS, proxy_draws
from lpboot.covariance import CovMatrix
from lpboot.diagnostics import comparison_ks, levy_concentration
from lpboot.lp import LpExponent
from lpboot.sampling import RngSeed, build_block_covariance


class TestLevyConcentration:
    def test_degenerate_covariance(self):
        S = CovMatrix(np.zeros((3, 3)))
        rep = levy_concentration(S, LpExponent.finite(2), 0.5, 1000, RngSeed(0))
        assert rep.estimate == 1.0
        assert rep.passed

    def test_estimate_matches_direct_scan(self):
        # brute-force window scan over the same draws gives the same value;
        # n_mc spans two kernel chunks
        S = CovMatrix(np.eye(4))
        p, eps, n_mc = LpExponent.finite(2), 0.3, _CHUNK + 1000
        rep = levy_concentration(S, p, eps, n_mc, RngSeed(1))
        draws = proxy_draws(S, p, n_mc, RngSeed(1)).samples
        width = eps * math.sqrt(4.0) / math.sqrt(2.0 * 4 ** 0.5)  # ||sigma||_2 / omega
        brute = max(((draws >= t) & (draws <= t + width)).sum() for t in draws) / n_mc
        assert rep.estimate == pytest.approx(brute, abs=1e-12)

    def test_draws_in_chunks(self, monkeypatch):
        # the probe draws through the bootstrap kernel, one bounded chunk at a
        # time, whichever module the sampler is called through
        original = sampling.mvn_sample
        asked = []

        def counting(F, count, rng):
            asked.append(count)
            return original(F, count, rng)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("lpboot") and \
                    getattr(module, "mvn_sample", None) is original:
                monkeypatch.setattr(module, "mvn_sample", counting)
        levy_concentration(CovMatrix(np.eye(3)), LpExponent.finite(2), 0.1,
                           3 * _CHUNK, RngSeed(0))
        assert sum(asked) == 3 * _CHUNK and max(asked) <= _CHUNK

    def test_scalar_case_against_exact_density(self):
        # d=1, p=1: |Z| has max window mass 2 Phi(w/1) - 1 for windows at 0
        S = CovMatrix(np.array([[1.0]]))
        eps = 0.4
        rep = levy_concentration(S, LpExponent.finite(1), eps, 200_000, RngSeed(2))
        width = eps * 1.0 / math.sqrt(1.0)
        exact = 2 * stats.norm.cdf(width) - 1
        assert rep.estimate == pytest.approx(exact, abs=0.01)

    def test_passes_on_identity_suite(self):
        for d in (20, 100):
            S = CovMatrix(np.eye(d))
            for p in (LpExponent.finite(1), LpExponent.finite(4),
                      LpExponent.log_dim(), LpExponent.infinity()):
                rep = levy_concentration(S, p, 0.1, 5000, RngSeed(3))
                assert rep.passed, (d, p.label, rep.estimate)

    def test_monotone_in_eps(self):
        S = CovMatrix(np.eye(10))
        small = levy_concentration(S, LpExponent.finite(2), 0.05, 5000, RngSeed(4))
        large = levy_concentration(S, LpExponent.finite(2), 0.5, 5000, RngSeed(4))
        assert small.estimate <= large.estimate

    def test_rejects_bad_args(self):
        S = CovMatrix(np.eye(2))
        with pytest.raises(ValueError):
            levy_concentration(S, LpExponent.finite(2), 0.0, 1000, RngSeed(0))
        with pytest.raises(ValueError):
            levy_concentration(S, LpExponent.finite(2), 0.1, 10, RngSeed(0))


class TestComparisonKs:
    def test_same_covariance_noise_level(self):
        S = build_block_covariance(20, 2, 0.8, RngSeed(5))
        for p in (LpExponent.finite(1), LpExponent.infinity()):
            rep = comparison_ks(S, S, p, 5000, RngSeed(6))
            assert rep.bound == 0.0
            assert rep.estimate <= 1.36 * math.sqrt(2.0 / 5000)
            assert rep.passed

    def test_bound_grows_with_perturbation(self):
        S = CovMatrix(np.eye(10))
        near = CovMatrix(1.01 * np.eye(10))
        far = CovMatrix(2.0 * np.eye(10))
        p = LpExponent.finite(2)
        near_rep = comparison_ks(S, near, p, 2000, RngSeed(7))
        far_rep = comparison_ks(S, far, p, 2000, RngSeed(7))
        assert near_rep.bound < far_rep.bound
        assert near_rep.estimate < far_rep.estimate

    def test_symmetric_in_arguments(self):
        A = CovMatrix(np.eye(6))
        B = CovMatrix(np.diag(np.linspace(0.5, 2.0, 6)))
        a = comparison_ks(A, B, LpExponent.finite(1), 2000, RngSeed(8))
        b = comparison_ks(B, A, LpExponent.finite(1), 2000, RngSeed(8))
        assert a.bound == pytest.approx(b.bound, rel=1e-12)

    def test_passes_on_scaled_identity_suite(self):
        S = CovMatrix(np.eye(50))
        for c in (1.0, 1.2, 2.0):
            T = CovMatrix(c * np.eye(50))
            for p in (LpExponent.finite(1), LpExponent.finite(2),
                      LpExponent.log_dim(), LpExponent.infinity()):
                rep = comparison_ks(S, T, p, 5000, RngSeed(9))
                assert rep.passed, (c, p.label, rep.estimate, rep.bound)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            comparison_ks(CovMatrix(np.eye(2)), CovMatrix(np.eye(3)),
                          LpExponent.finite(2), 1000, RngSeed(0))


@pytest.mark.parametrize("probe", [
    lambda S, n_mc: levy_concentration(S, LpExponent.finite(2), 0.1, n_mc, RngSeed(0)),
    lambda S, n_mc: comparison_ks(S, S, LpExponent.finite(2), n_mc, RngSeed(0)),
], ids=["levy", "comparison_ks"])
def test_n_mc_above_draw_cap_is_named(probe):
    with pytest.raises(ValueError, match=r"n_mc must lie in \[1000, 1000000\]"):
        probe(CovMatrix(np.eye(2)), MAX_DRAWS + 1)
