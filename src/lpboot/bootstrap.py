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

from .covariance import CovMatrix
from .lp import LpExponent, _row_norms
from .parallel import hold, run_indexed
from .sampling import RngSeed

# hard cap on retained draws; full sorted samples are kept for quantiles/KS
MAX_DRAWS = 10**6
_CHUNK = 4096
# standard normals drawn between two looks at whether the source's W is known
_BLOCK = 8192
# rows of a chunk whose product and norms one worker computes at a time: a
# multiple of 24, so each block's rows come out in the bytes one product over
# the chunk gives them (OpenBLAS's gemm computes a product's rows in groups
# that 24 rows align with; 256-row blocks changed the last bits wherever
# d > 192 was not a multiple of 8)
_ROWS = 264


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
    """A row source for the kernel whose W is not known yet: rows z @ W for
    rows z of i.i.d. standard normals. prepare() returns W, at most `bound`
    rows by d; the kernel calls it once, beside the first chunk's normals, so
    a source can leave whatever W needs (an estimate, a factorization) to
    prepare. A source whose W is known is W itself."""

    bound: int
    prepare: Callable[[], np.ndarray]


class _Chunk:
    """One chunk of the kernel over its m rows, in blocks of _ROWS rows.

    While W is unknown the chunk is a two-index run_indexed pipeline. Index
    0 runs the source's prepare, then takes the blocks whose normals are
    already drawn, and never waits. Index 1 draws the chunk's normals from
    its one generator, in order, _BLOCK at a time: up to m * bound while W is
    unknown, and m * rank once it is. It waits for prepare if it has to, then
    takes the blocks that are left. Where W is known, index 1 alone is the
    chunk: it draws m * rank normals and takes every block. A block is
    Z[lo:hi] @ W, its absolute values in place and their norms into the
    output. Philox normals are prefix-stable (the first N of a longer or
    blocked request are a request of N), and every block writes only its own
    rows, so the bytes do not depend on which index takes a block. Run
    serially (inside a pool's worker, or while another thread holds the pool)
    index 0 runs first: W is known before any normal is drawn, and index 1
    then draws m * rank normals and takes every block."""

    def __init__(self, source, W, m: int, seed: RngSeed, qs, outs):
        self.source, self.W, self.m, self.qs, self.outs = source, W, m, qs, outs
        self.gen = seed.generator()
        self.normals = np.empty(m * (source.bound if W is None else W.shape[0]))
        self.filled = 0  # normals drawn, in order
        self.taken = 0  # blocks started
        self.lock = threading.Lock()
        self.ready = threading.Event()  # prepare has ended: W is set unless it raised
        if W is not None:
            self.ready.set()

    def __call__(self, i: int) -> None:
        if i == 0:
            try:
                self.W = self.source.prepare()
            finally:
                self.ready.set()
            self._take()
            return
        limit = self.normals.size
        while True:
            if self.ready.is_set():
                if self.W is None:  # prepare raised, and index 0 re-raises it
                    return
                limit = self.m * self.W.shape[0]
            if self.filled >= limit:
                break
            end = min(self.filled + _BLOCK, limit)
            self.gen.standard_normal(out=self.normals[self.filled:end])
            self.filled = end
        self.ready.wait()
        if self.W is not None:
            self._take()

    def _take(self) -> None:
        """Blocks in order, while the next one's normals are drawn."""
        rank = self.W.shape[0]
        # numpy multiplies a single row by gemv, not gemm, in other bytes, so
        # a last block of one row joins the block before it
        blocks = max(1, (self.m - 2) // _ROWS + 1)
        while True:
            with self.lock:
                j = self.taken
                hi = self.m if j == blocks - 1 else (j + 1) * _ROWS
                if j == blocks or hi * rank > self.filled:
                    return
                self.taken = j + 1
            self._block(j * _ROWS, hi, rank)

    def _block(self, lo: int, hi: int, rank: int) -> None:
        """Rows lo:hi: a method, so that a worker's product is freed before
        its next block's is made."""
        V = self.normals[lo * rank:hi * rank].reshape(hi - lo, rank) @ self.W
        for out, norms in zip(self.outs, _row_norms(np.abs(V, out=V), self.qs)):
            out[lo:hi] = norms


def _norm_draws(source, p_list, B: int, rng: RngSeed, d: int) -> dict:
    """B draws of ||V||_p for every p in p_list, all read from one stream of
    Gaussian rows V = Z W of the source (W itself, or a _Rows that prepares
    it): chunk k has at most _CHUNK rows, its normals Z drawn from
    rng.child(k), so memory stays bounded and single-p output equals multi-p
    output draw-for-draw. One norm pass per block of _ROWS rows serves every
    p.

    Each chunk is a _Chunk. While W is unknown, that is in the first chunk
    of a _Rows source, the chunk is a two-index run_indexed pipeline: the
    source's prepare runs beside the chunk's normals, and then both workers
    take blocks. Every other chunk runs on the calling thread, with no pool.
    A chunk holds its normals, and per worker one block's product (plus one
    scratch array where several finite p share the norm pass): a block's
    product is overwritten with its absolute values and then the norm pass's
    ratios. With _ROWS a multiple of 24 the draws are the bytes of one
    product per chunk (mvn_sample's, for _mvn_rows): so measured with
    OpenBLAS 0.3.31's SkylakeX kernels at every d up to 1024."""
    if not 1 <= B <= MAX_DRAWS:
        raise ValueError(f"B must lie in [1, {MAX_DRAWS}]")
    qs = [p.resolve(d) for p in p_list]
    out = {p: np.empty(B) for p in p_list}
    W = source if isinstance(source, np.ndarray) else None
    for k, pos in enumerate(range(0, B, _CHUNK)):
        m = min(_CHUNK, B - pos)
        chunk = _Chunk(source, W, m, rng.child(k), qs, [out[p][pos:pos + m] for p in p_list])
        if W is None:
            run_indexed(chunk, 2, 2)
            W = chunk.W
        else:
            chunk(1)
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


def _distribution(engine: str, rows, p: LpExponent, B: int, rng: RngSeed,
                  d: int) -> EmpiricalDistribution:
    """The engine's draws of ||V||_p, computed under lpboot's hold (one BLAS
    thread; lpboot.parallel says why)."""
    with hold():
        draws = _norm_draws(rows, (p,), B, rng, d)[p]
    return EmpiricalDistribution(draws, {"engine": engine, "p": p.label, "seed": _seed_label(rng)})


def gpb_draws(Sigma_hat: CovMatrix | _Rows, p: LpExponent, B: int,
              rng: RngSeed) -> EmpiricalDistribution:
    """Draws of ||V||_p with V ~ N(0, Sigma_hat). Sigma_hat may also be given
    as a _Rows of dimension `bound` whose prepare returns the transpose of
    its PSD factor, as run_test does to estimate it beside the normals."""
    if isinstance(Sigma_hat, _Rows):
        return _distribution("gpb", Sigma_hat, p, B, rng, Sigma_hat.bound)
    return _distribution("gpb", _mvn_rows(Sigma_hat), p, B, rng, Sigma_hat.dim)


def proxy_draws(Sigma_true: CovMatrix, p: LpExponent, B: int, rng: RngSeed) -> EmpiricalDistribution:
    """Oracle variant of gpb_draws using the true covariance."""
    return _distribution("proxy", _mvn_rows(Sigma_true), p, B, rng, Sigma_true.dim)


def gmb_draws(X: np.ndarray, p: LpExponent, B: int, rng: RngSeed) -> EmpiricalDistribution:
    """Draws of ||n^{-1/2} sum_i g_i (X_i - Xbar)||_p with g_i ~ N(0,1).

    Conditionally on X this law equals N(0, Sigma_naive) pushed through the
    norm, the law gpb_draws samples for the sample covariance.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two observations")
    return _distribution("gmb", _multiplier_rows(X), p, B, rng, X.shape[1])


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
    (the float 1 - alpha can exceed it, e.g. 1 - 0.059 > 0.941)."""
    return empirical_quantile(D, 1 - Fraction(str(alpha)))


def ks_distance(A: EmpiricalDistribution, B: EmpiricalDistribution) -> float:
    """Exact sup-gap of the two empirical CDFs over the merged support."""
    a, b = A.samples, B.samples
    support = np.concatenate([a, b])
    fa = np.searchsorted(a, support, side="right") / a.size
    fb = np.searchsorted(b, support, side="right") / b.size
    return float(np.abs(fa - fb).max())
