"""The draw path computes in place: the same bytes as the out-of-place
expressions it replaced (written out below as the references), a caller's
array never written, and per worker one block's arrays alive beside the
normals drawn ahead; CV's masks are built in their fold's buffers."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from lpboot.bootstrap import (_AHEAD, _ROWS, _multiplier_rows, _mvn_rows, _norm_draws,
                              gmb_draws, gpb_draws, proxy_draws)
from lpboot.covariance import (RANK_TOL, CovMatrix, _abs_correlation, _masks,
                               sample_covariance)
from lpboot.lp import LpExponent, lp_norm_rows
from lpboot.parallel import hold
from lpboot.sampling import (MarginalKind, RngSeed, build_block_covariance,
                             copula_sample, factorize_psd, marginal_quantile)

P_LIST = (LpExponent.finite(1), LpExponent.finite(2), LpExponent.finite(3.5),
          LpExponent.log_dim(), LpExponent.infinity())
B = _AHEAD * _ROWS + 300  # blocks drawn ahead, and blocks past them


# ---------------------------------------------------------------------------
# references: the out-of-place expressions


def ref_symmetrized(a):
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def ref_factor(values):
    with hold():  # factorize_psd's eigh runs on one BLAS thread
        w, V = np.linalg.eigh(values)
    scale = float(np.abs(w).max(initial=0.0))
    keep = w > RANK_TOL * scale
    return V[:, keep] * np.sqrt(w[keep])


def ref_row_norms(X, qs):
    absx = np.abs(X)
    m = absx.max(axis=1)
    if all(math.isinf(q) for q in qs):
        return [m] * len(qs)
    safe = np.where(m > 0.0, m, 1.0)
    ratio = absx / safe[:, None]
    return [m if math.isinf(q) else safe * (ratio ** q).sum(axis=1) ** (1.0 / q) for q in qs]


def ref_draws(rows, p_list, rng, d):
    qs = [p.resolve(d) for p in p_list]
    out = {p: np.empty(B) for p in p_list}
    for j, lo in enumerate(range(0, B, _ROWS)):
        V = rows(min(_ROWS, B - lo), rng.child(j))
        for p, norms in zip(p_list, ref_row_norms(V, qs)):
            out[p][lo:lo + V.shape[0]] = norms
    return out


def ref_mvn_rows(values):
    L = ref_factor(ref_symmetrized(values))
    return lambda m, seed: seed.generator().standard_normal((m, L.shape[1])) @ L.T


def ref_multiplier_rows(X):
    Xc = (X - X.mean(axis=0)) / math.sqrt(X.shape[0])
    return lambda m, seed: seed.generator().standard_normal((m, X.shape[0])) @ Xc


def ref_sample_covariance(X):
    Xc = X - X.mean(axis=0)
    return ref_symmetrized(Xc.T @ Xc / X.shape[0])


def same_bytes(a, b):
    return np.asarray(a).dtype == np.asarray(b).dtype and np.asarray(a).tobytes() == \
        np.asarray(b).tobytes()


# ---------------------------------------------------------------------------
# inputs


def covariances(d=12):
    """Full rank, rank 4 of 12 (permuted blocks), and zero, which draws
    all-zero rows."""
    G = RngSeed(1).generator().standard_normal((2 * d, d))
    return {"full": G.T @ G / (2 * d),
            "rank4": build_block_covariance(d, 3, 0.7, RngSeed(2)).values,
            "zero": np.zeros((d, d))}


def datasets(n=16, d=12):
    """Observations with mixed scales, and identical rows, whose mean is
    exact, so their multiplier rows are all zero."""
    X = RngSeed(3).generator().standard_normal((n, d)) * 10.0 ** np.arange(-3, d - 3) / 1e3
    return {"mixed": X, "constant": np.tile(np.arange(d) - 5.0, (n, 1))}


# ---------------------------------------------------------------------------
# bytes


@pytest.mark.parametrize("name", ["full", "rank4", "zero"])
@pytest.mark.parametrize("p", P_LIST, ids=str)
def test_mvn_engines_equal_the_reference(name, p):
    values = covariances()[name]
    want = np.sort(ref_draws(ref_mvn_rows(values), (p,), RngSeed(5), 12)[p])
    assert same_bytes(gpb_draws(CovMatrix(values), p, B, RngSeed(5)).samples, want)
    assert same_bytes(proxy_draws(CovMatrix(values), p, B, RngSeed(5)).samples, want)
    if name == "zero":
        assert not want.any()


@pytest.mark.parametrize("name", ["mixed", "constant"])
@pytest.mark.parametrize("p", P_LIST, ids=str)
def test_gmb_equals_the_reference(name, p):
    X = datasets()[name]
    want = np.sort(ref_draws(ref_multiplier_rows(X), (p,), RngSeed(6), 12)[p])
    assert same_bytes(gmb_draws(X, p, B, RngSeed(6)).samples, want)
    if name == "constant":
        assert not want.any()


@pytest.mark.parametrize("source", ["mvn", "gmb"])
def test_all_p_at_once_equal_the_reference(source):
    # several finite exponents share one scratch array, as in the harness
    if source == "mvn":
        values = covariances()["rank4"]
        rows, want_rows = _mvn_rows(CovMatrix(values)), ref_mvn_rows(values)
    else:
        X = datasets()["mixed"]
        rows, want_rows = _multiplier_rows(X), ref_multiplier_rows(X)
    got = _norm_draws(rows, P_LIST, B, RngSeed(7))
    want = ref_draws(want_rows, P_LIST, RngSeed(7), 12)
    for p in P_LIST:
        assert same_bytes(got[p], want[p])


@pytest.mark.parametrize("kind", list(MarginalKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", ["full", "rank4"])
def test_copula_sample_equals_the_reference(kind, name):
    values = ref_symmetrized(covariances()[name])
    L = ref_factor(values)
    Y = RngSeed(8).generator().standard_normal((40, L.shape[1])) @ L.T
    U = np.clip(special.ndtr(Y / np.sqrt(np.diag(values))), 1e-16, 1.0 - 1e-16)
    want = np.asarray(marginal_quantile(kind, U))
    assert same_bytes(copula_sample(CovMatrix(values), kind, 40, RngSeed(8)), want)


@pytest.mark.parametrize("name", ["full", "rank4", "zero", "large"])
def test_factorize_psd_equals_the_reference(name):
    if name == "large":  # large enough for numpy to reuse temporaries itself
        G = RngSeed(9).generator().standard_normal((150, 250))
        values = ref_symmetrized(G.T @ G / 150)  # rank 150 of 250
    else:
        values = ref_symmetrized(covariances()[name])
    want = ref_factor(values)
    F = factorize_psd(CovMatrix(values))
    assert same_bytes(F.factor, want)
    assert F.rank == want.shape[1]


@pytest.mark.parametrize("shape", [(30, 12), (5, 12), (300, 60)])
def test_sample_covariance_equals_the_reference(shape):
    X = RngSeed(10).generator().standard_normal(shape) * np.linspace(0.1, 30.0, shape[1])
    X[:, 3] = 2.5  # a constant column
    before = X.copy()
    assert same_bytes(sample_covariance(X).values, ref_sample_covariance(X))
    assert same_bytes(X, before)


@pytest.mark.parametrize("d", [12, 250])
def test_cov_matrix_symmetrizes_a_new_array(d):
    a = RngSeed(11).generator().standard_normal((d, d))  # not symmetric
    before = a.copy()
    S = CovMatrix(a)
    assert same_bytes(S.values, ref_symmetrized(before))
    assert same_bytes(a, before)  # the caller's array is not written
    assert same_bytes(CovMatrix(a.tolist()).values, S.values)


def test_lp_norm_rows_leaves_its_input_unchanged():
    X = RngSeed(12).generator().standard_normal((50, 12))
    X[::7] = 0.0
    before = X.copy()
    for p in P_LIST:
        got = lp_norm_rows(X, p)
        assert same_bytes(got, ref_row_norms(before, [p.resolve(12)])[0])
        assert same_bytes(X, before)


# ---------------------------------------------------------------------------
# memory


def traced_peak(call) -> int:
    """Bytes traced at call's peak beyond those traced when it started."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()


@pytest.mark.parametrize("p_list", [
    (LpExponent.finite(2),),
    (LpExponent.finite(1), LpExponent.finite(2), LpExponent.log_dim(), LpExponent.infinity()),
], ids=["one p", "four p"])
def test_a_chunk_holds_two_arrays_of_its_size(p_list):
    # per worker one block's product (and one scratch array where several
    # finite p share the norm pass) and, where the block draws them into
    # fresh memory, its normals. A cached factor runs the blocks on one
    # worker, and nothing else grows with B. A missing factor runs them on
    # two, beside the look-ahead buffer of the first _AHEAD blocks' normals,
    # which a block below _AHEAD reads or draws into, and the factor.
    # Besides: the draws themselves, and per worker 128 KiB for numpy's
    # reduction buffers and the call's small objects
    d = 200
    G = RngSeed(13).generator().standard_normal((2 * d, d))
    arrays = 2 if sum(not math.isinf(p.resolve(d)) for p in p_list) > 1 else 1
    for cached, m in ((True, 10_000), (False, 1000), (False, 10_000)):
        S = CovMatrix(G.T @ G / (2 * d))
        if cached:
            S.factor()  # outside the traced call
        peak = traced_peak(lambda: _norm_draws(_mvn_rows(S), p_list, m, RngSeed(14)))
        workers, ahead, factor = (1, 0, 0) if cached else (2, min(m, _AHEAD * _ROWS), d * d * 8)
        normals = _ROWS if m > ahead else 0
        assert peak <= ((ahead + workers * (normals + arrays * _ROWS)) * d * 8
                        + len(p_list) * m * 8 + workers * 2**17 + factor)


def test_factorize_psd_holds_two_matrices():
    d = 200
    G = RngSeed(15).generator().standard_normal((2 * d, d))
    S = CovMatrix(G.T @ G / (2 * d))
    assert traced_peak(lambda: factorize_psd(S)) <= 2.3 * d * d * 8


def test_masks_allocate_no_matrix_per_mask():
    # a fold's 40 masks in its two buffers, the d x d float64 mask and the
    # d x d bool keep (1.125 of a d x d float64 array), beside the product's
    # cast of the bools through numpy's 8192-entry buffer (0.2 of one at
    # d = 200); a cast of the whole keep adds 1, a bool keep per mask 0.125
    d = 200
    X = RngSeed(16).generator().standard_normal((d, d))
    S1 = sample_covariance(X[:d // 3]).values
    corr = _abs_correlation(S1)
    levels = dict(enumerate(np.linspace(0.0, 1.0, 40)))

    def build():
        assert sum(1 for _ in _masks(S1, corr, levels)) == 40

    assert traced_peak(build) <= 1.4 * d * d * 8
