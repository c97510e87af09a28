"""Concentration and distribution-comparison probes."""

import math

import numpy as np
import pytest
from scipy import stats

from lpboot import bootstrap, sampling
from lpboot.bootstrap import _AHEAD, _ROWS, MAX_DRAWS, proxy_draws
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
        # n_mc spans more kernel blocks than are drawn ahead
        S = CovMatrix(np.eye(4))
        p, eps, n_mc = LpExponent.finite(2), 0.3, _AHEAD * _ROWS + 1000
        rep = levy_concentration(S, p, eps, n_mc, RngSeed(1))
        draws = proxy_draws(S, p, n_mc, RngSeed(1)).samples
        width = eps * math.sqrt(4.0) / math.sqrt(2.0 * 4 ** 0.5)  # ||sigma||_2 / omega
        brute = max(((draws >= t) & (draws <= t + width)).sum() for t in draws) / n_mc
        assert rep.estimate == pytest.approx(brute, abs=1e-12)

    def test_draws_in_chunks(self, monkeypatch):
        # the probe draws through the bootstrap kernel: its factor is known,
        # so block j's rows come from stream j of the probe's seed, in order
        # on one thread, and the norms are taken one block at a time
        streams, blocks = [], []
        generator, row_norms = RngSeed.generator, bootstrap._row_norms

        def generate(seed):
            streams.append(seed.stream_path)
            return generator(seed)

        def counting(absx, qs):
            blocks.append(len(absx))
            return row_norms(absx, qs)

        monkeypatch.setattr(RngSeed, "generator", generate)
        monkeypatch.setattr(bootstrap, "_row_norms", counting)
        n_mc = 3 * _AHEAD * _ROWS + 5
        levy_concentration(CovMatrix(np.eye(3)), LpExponent.finite(2), 0.1, n_mc,
                           RngSeed(0).child(4))
        assert streams == [(4, j) for j in range(3 * _AHEAD + 1)]
        assert blocks == [_ROWS] * (3 * _AHEAD) + [5]

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


BLOCK = build_block_covariance(12, 3, 0.8, RngSeed(5)).values
KS_PAIRS = {"block-shifted": (BLOCK, BLOCK + 0.1 * np.eye(12)),
            "identity-doubled": (np.eye(12), 2.0 * np.eye(12))}
# (estimate, bound, passed) of comparison_ks at n_mc = 1000 and seed 7, as
# computed when the finite-p bound still took cov_error's operator norm too,
# with the block-shifted estimates re-recorded on the pivoted Cholesky factor
KS_REPORTS = {
    ("block-shifted", "1"): ("0x1.b645a1cac0832p-4", "0x1.8e22cd0f859d4p-1", True),
    ("block-shifted", "2"): ("0x1.999999999999ap-4", "0x1.15051ac005720p+0", True),
    ("block-shifted", "3.5"): ("0x1.df3b645a1cac0p-4", "0x1.987c7ed044ab7p+0", True),
    ("block-shifted", "logd"): ("0x1.b22d0e560418cp-4", "0x1.7f9ac0b72c2e7p-1", True),
    ("block-shifted", "inf"): ("0x1.db22d0e560418p-4", "0x1.7f9ac0b72c2e7p-1", True),
    ("identity-doubled", "1"): ("0x1.2e978d4fdf3b6p-1", "0x1.3988e1409212ep+1", True),
    ("identity-doubled", "2"): ("0x1.3ced916872b02p-1", "0x1.50ea39fcbf165p+1", True),
    ("identity-doubled", "3.5"): ("0x1.31a9fbe76c8b5p-1", "0x1.c3c8f2e6a807ap+1", True),
    ("identity-doubled", "logd"): ("0x1.395810624dd2fp-1", "0x1.c1d0ef51cccaap+0", True),
    ("identity-doubled", "inf"): ("0x1.08b4395810625p-1", "0x1.c1d0ef51cccaap+0", True),
}
# the block-shifted estimates on the eigen factor, where the library lacks dpstrf
EIGEN_ESTIMATES = {"1": "0x1.ae147ae147ae0p-4", "2": "0x1.851eb851eb850p-4",
                   "3.5": "0x1.a9fbe76c8b438p-4", "logd": "0x1.916872b020c4cp-4",
                   "inf": "0x1.ba5e353f7ced8p-4"}


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

    @pytest.mark.parametrize("p", ["1", "2", "3.5", "logd", "inf"])
    def test_operator_norm_only_where_the_bound_uses_it(self, monkeypatch, p):
        # a finite-p bound reads the entrywise error alone, so no SVD is taken
        orders, norm = [], np.linalg.norm

        def recording(x, ord=None, *args, **kwargs):
            orders.append(ord)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", recording)
        comparison_ks(CovMatrix(np.eye(6)), CovMatrix(2.0 * np.eye(6)), LpExponent.parse(p),
                      1000, RngSeed(0))
        assert (2 in orders) == (p in ("logd", "inf"))

    @pytest.mark.parametrize("case", sorted(KS_REPORTS), ids=":p=".join)
    def test_reports_keep_their_bits(self, case):
        pair, p = case
        a, b = KS_PAIRS[pair]
        rep = comparison_ks(CovMatrix(a), CovMatrix(b), LpExponent.parse(p), 1000, RngSeed(7))
        assert (rep.estimate.hex(), rep.bound.hex(), rep.passed) == KS_REPORTS[case]

    @pytest.mark.parametrize("p", sorted(EIGEN_ESTIMATES))
    def test_eigen_path_reports_keep_their_bits(self, monkeypatch, p):
        monkeypatch.setattr(sampling, "_lapacke", lambda routine: None)
        a, b = KS_PAIRS["block-shifted"]
        rep = comparison_ks(CovMatrix(a), CovMatrix(b), LpExponent.parse(p), 1000, RngSeed(7))
        _, bound, passed = KS_REPORTS["block-shifted", p]
        assert (rep.estimate.hex(), rep.bound.hex(), rep.passed) == (EIGEN_ESTIMATES[p], bound,
                                                                      passed)


@pytest.mark.parametrize("probe", [
    lambda S, n_mc: levy_concentration(S, LpExponent.finite(2), 0.1, n_mc, RngSeed(0)),
    lambda S, n_mc: comparison_ks(S, S, LpExponent.finite(2), n_mc, RngSeed(0)),
], ids=["levy", "comparison_ks"])
def test_n_mc_above_draw_cap_is_named(probe):
    with pytest.raises(ValueError, match=r"n_mc must lie in \[1000, 1000000\]"):
        probe(CovMatrix(np.eye(2)), MAX_DRAWS + 1)
