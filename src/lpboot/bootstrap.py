"""Bootstrap engines for lp-statistics of scaled sums.

Two resampling schemes — drawing from a centered normal with an estimated
covariance, and multiplying centered observations by standard normal
weights — plus the oracle that uses the true covariance, empirical
quantiles, and the Kolmogorov-Smirnov distance between draw sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .covariance import CovMatrix
from .lp import LpExponent, _row_norms
from .sampling import RngSeed, mvn_sample

# hard cap on retained draws; full sorted samples are kept for quantiles/KS
MAX_DRAWS = 10**6
_CHUNK = 4096


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


def _norm_draws(rows, p_list, B: int, rng: RngSeed, d: int) -> dict:
    """B draws of ||V||_p for every p in p_list, all read from one stream of
    Gaussian rows V: chunk k has at most _CHUNK rows, made by rows(m,
    rng.child(k)), so memory stays bounded and single-p output equals
    multi-p output draw-for-draw. One norm pass per chunk serves every p."""
    if not 1 <= B <= MAX_DRAWS:
        raise ValueError(f"B must lie in [1, {MAX_DRAWS}]")
    qs = [p.resolve(d) for p in p_list]
    out = {p: np.empty(B) for p in p_list}
    for k, pos in enumerate(range(0, B, _CHUNK)):
        V = rows(min(_CHUNK, B - pos), rng.child(k))
        for p, norms in zip(p_list, _row_norms(V, qs)):
            out[p][pos:pos + V.shape[0]] = norms
    return out


def _mvn_rows(S: CovMatrix):
    """Row source for the kernel: m rows of N(0, S)."""
    factor = S.factor()
    return lambda m, seed: mvn_sample(factor, m, seed)


def _multiplier_rows(X: np.ndarray):
    """Row source for the kernel: m rows n^{-1/2} sum_i g_i (X_i - Xbar) with
    i.i.d. standard normal multipliers g_i."""
    n = X.shape[0]
    Xc = (X - X.mean(axis=0)) / math.sqrt(n)
    return lambda m, seed: seed.generator().standard_normal((m, n)) @ Xc


def _distribution(engine: str, rows, p: LpExponent, B: int, rng: RngSeed,
                  d: int) -> EmpiricalDistribution:
    draws = _norm_draws(rows, (p,), B, rng, d)[p]
    return EmpiricalDistribution(draws, {"engine": engine, "p": p.label, "seed": _seed_label(rng)})


def gpb_draws(Sigma_hat: CovMatrix, p: LpExponent, B: int, rng: RngSeed) -> EmpiricalDistribution:
    """Draws of ||V||_p with V ~ N(0, Sigma_hat)."""
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
