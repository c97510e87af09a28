"""Bootstrap engines for lp-statistics of scaled sums.

Two resampling schemes — drawing from a centered normal with an estimated
covariance, and multiplying centered observations by standard normal
weights — plus the oracle that uses the true covariance, empirical
quantiles, and the Kolmogorov-Smirnov distance between draw sets.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .covariance import CovMatrix, _check_data, _integer
from .lp import LpExponent, _row_norms
from .parallel import hold, run_indexed
from .sampling import RngSeed

# hard cap on retained draws; full sorted samples are kept for quantiles/KS
MAX_DRAWS = 10**6
# rows of a block: its normals come from their own stream, and one worker
# computes its product and norms
_ROWS = 264
# blocks whose normals are drawn ahead while a source's W is not known yet
_AHEAD = 16


@dataclass
class EmpiricalDistribution:
    """Sorted nonnegative draws of a norm statistic, with source metadata."""

    samples: np.ndarray
    meta: dict

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("need at least one sample")
        if np.any(s < 0.0) or not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite and nonnegative")
        self.samples = np.sort(s)

    def __len__(self) -> int:
        return self.samples.size


def _seed_label(rng: RngSeed) -> str:
    return str(rng.master) + "".join(f".{i}" for i in rng.stream_path)


class _Rows(NamedTuple):
    """A row source for the kernel whose W is not known yet: rows z @ W of
    `bound` coordinates for rows z of i.i.d. standard normals. prepare()
    returns W, at most `bound` rows by `bound`; the kernel calls it once,
    while the first blocks' normals are drawn at width `bound`, so a source
    can leave whatever W needs (an estimate, a factorization) to prepare. A
    source whose W is known is W itself."""

    bound: int
    prepare: Callable[[], np.ndarray]


def _norm_draws(source, p_list, B: int, rng: RngSeed) -> dict:
    """B draws of ||V||_p for every p in p_list, from Gaussian rows V = Z W
    of the source (W itself, or a _Rows that prepares it), so single-p
    output equals multi-p output draw-for-draw.

    Block j is rows j * _ROWS up to (j + 1) * _ROWS (the last block fewer):
    its normals Z are rng.child(j).generator().standard_normal(rows * rank),
    and one worker computes its product Z @ W, its absolute values in place
    and one norm pass for every p into the output. So block j's draws are
    the norms of mvn_sample(F, rows, rng.child(j)) (for gmb, of the
    multipliers' product), whichever worker computes them, and memory is one
    block's normals and product (plus one scratch array where several finite
    p share the norm pass) per worker. Where W is known the blocks run in
    order on the calling thread, with no pool.

    A _Rows source is one run_indexed(step, 2 + blocks, 2): index 0 runs
    prepare while index 1 draws the first _AHEAD blocks' normals ahead, each
    block whole at width bound with one request into its region of one
    buffer, looking before each block whether W is known and stopping once
    it is. Every later index is a block: it waits for W, then multiplies the
    prefix of its region (Philox normals are prefix-stable: the first N of a
    longer request are a request of N). A block of the buffer that index 1
    did not draw waits for index 1 to return, as index 1 may be drawing it
    still, then draws it into its region itself if index 1 stopped before
    it, so no block is drawn twice; a later block draws its own normals.
    Run serially (inside a pool's worker, or while another thread holds the
    pool) index 0 runs first, and index 1 draws nothing."""
    B = _integer(B, "B", 1, MAX_DRAWS)
    W = source if isinstance(source, np.ndarray) else None
    qs = [p.resolve(source.bound if W is None else W.shape[1]) for p in p_list]
    out = {p: np.empty(B) for p in p_list}
    blocks = (B - 1) // _ROWS + 1
    lead = 0 if W is not None else min(blocks, _AHEAD)  # blocks with a region in the buffer
    drawn = 0  # of them, the ones index 1 drew ahead

    def block(j: int) -> None:
        lo, hi = j * _ROWS, min((j + 1) * _ROWS, B)
        size = (hi - lo) * W.shape[0]
        if j < lead:
            normals = ahead[j * width:j * width + size]
            if j >= drawn:
                stopped.wait()  # index 1 may be drawing it still
                if j >= drawn:  # index 1 stopped before it
                    rng.child(j).generator().standard_normal(out=normals)
        else:
            normals = rng.child(j).generator().standard_normal(size)
        V = normals.reshape(hi - lo, W.shape[0]) @ W
        for p, norms in zip(p_list, _row_norms(np.abs(V, out=V), qs)):
            out[p][lo:hi] = norms

    if W is not None:
        for j in range(blocks):
            block(j)
        return out
    width = _ROWS * source.bound
    ahead = np.empty(min(B, _AHEAD * _ROWS) * source.bound)  # made and freed by the caller
    known, stopped = threading.Event(), threading.Event()  # prepare ended; index 1 ended

    def step(i: int) -> None:
        nonlocal W, drawn
        if i == 0:
            try:
                W = source.prepare()
            finally:
                known.set()
        elif i == 1:
            try:
                for j in range(lead):
                    if known.is_set():
                        return
                    rng.child(j).generator().standard_normal(out=ahead[j * width:(j + 1) * width])
                    drawn = j + 1
            finally:
                stopped.set()
        else:
            known.wait()
            if W is not None:  # else prepare raised, and index 0 re-raises it
                block(i - 2)

    run_indexed(step, 2 + blocks, 2)
    return out


def _mvn_rows(S: CovMatrix):
    """Row source for the kernel: rows of N(0, S), W the transpose of S's PSD
    factor, known where S caches its factor; else a _Rows whose prepare
    factorizes S."""
    if S._factor is not None:
        return S._factor.factor.T
    return _Rows(S.dim, lambda: S.factor().factor.T)


def _multiplier_rows(X: np.ndarray) -> np.ndarray:
    """Row source for the kernel: rows n^{-1/2} sum_i g_i (X_i - Xbar) with
    i.i.d. standard normal multipliers g_i, W = (X - Xbar) / sqrt(n)."""
    Xc = X - X.mean(axis=0)
    Xc /= math.sqrt(X.shape[0])
    return Xc


def _distribution(engine: str, rows, p: LpExponent, B: int, rng: RngSeed) -> EmpiricalDistribution:
    """The engine's draws of ||V||_p, computed under lpboot's hold (one BLAS
    thread; lpboot.parallel says why)."""
    with hold():
        draws = _norm_draws(rows, (p,), B, rng)[p]
    return EmpiricalDistribution(draws, {"engine": engine, "p": p.label, "seed": _seed_label(rng)})


def gpb_draws(Sigma_hat: CovMatrix | _Rows, p: LpExponent, B: int,
              rng: RngSeed) -> EmpiricalDistribution:
    """Draws of ||V||_p with V ~ N(0, Sigma_hat). Sigma_hat may also be given
    as a _Rows of dimension `bound` whose prepare returns the transpose of
    its PSD factor, as run_test does to estimate it beside the normals."""
    rows = Sigma_hat if isinstance(Sigma_hat, _Rows) else _mvn_rows(Sigma_hat)
    return _distribution("gpb", rows, p, B, rng)


def proxy_draws(Sigma_true: CovMatrix, p: LpExponent, B: int, rng: RngSeed) -> EmpiricalDistribution:
    """Oracle variant of gpb_draws using the true covariance."""
    return _distribution("proxy", _mvn_rows(Sigma_true), p, B, rng)


def gmb_draws(X: np.ndarray, p: LpExponent, B: int, rng: RngSeed) -> EmpiricalDistribution:
    """Draws of ||n^{-1/2} sum_i g_i (X_i - Xbar)||_p with g_i ~ N(0,1).

    Conditionally on X this law equals N(0, Sigma_naive) pushed through the
    norm, the law gpb_draws samples for the sample covariance.
    """
    X = np.asarray(X, dtype=float)
    _check_data(X)
    return _distribution("gmb", _multiplier_rows(X), p, B, rng)


def empirical_quantile(D: EmpiricalDistribution, alpha: float | Fraction) -> float:
    """Order statistic at 1-based index ceil(alpha * B): the inf-form quantile.

    The index is exact for the decimal a float alpha was written as, or for
    alpha given as a Fraction; a float product alpha * B can land just above
    an integer and pick the next order statistic.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    idx = math.ceil(Fraction(str(alpha)) * len(D))
    return float(D.samples[idx - 1])


def critical_value(D: EmpiricalDistribution, alpha: float) -> float:
    """Upper-alpha critical value: the quantile at the exact level 1 - alpha
    (the float 1 - alpha can exceed it, e.g. 1 - 0.059 > 0.941); an alpha
    outside (0, 1), NaN too, goes to empirical_quantile's check as it is."""
    return empirical_quantile(D, 1 - Fraction(str(alpha)) if 0.0 < alpha < 1.0 else alpha)


def ks_distance(A: EmpiricalDistribution, B: EmpiricalDistribution) -> float:
    """Exact sup-gap of the two empirical CDFs over the merged support."""
    a, b = A.samples, B.samples
    support = np.concatenate([a, b])
    fa = np.searchsorted(a, support, side="right") / a.size
    fb = np.searchsorted(b, support, side="right") / b.size
    return float(np.abs(fa - fb).max())
