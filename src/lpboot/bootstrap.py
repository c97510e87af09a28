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

from .covariance import CovMatrix, sample_covariance
from .lp import LpExponent, lp_norm_rows
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

    def to_csv(self, path: str) -> None:
        """One-column CSV; the header names the engine, p, B, and seed."""
        m = self.meta
        header = f"draw_{m.get('engine', 'unknown')}_p{m.get('p', '?')}_B{len(self)}_seed{m.get('seed', '?')}"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            np.savetxt(fh, self.samples, fmt="%.17g")


def _seed_label(rng: RngSeed) -> str:
    return str(rng.master) + "".join(f".{i}" for i in rng.stream_path)


def _norm_draws(factor, p: LpExponent, B: int, rng: RngSeed, d: int) -> np.ndarray:
    """B draws of ||V||_p with V ~ N(0, L L'), chunked to bound memory."""
    out = np.empty(B)
    pos = 0
    chunk_index = 0
    while pos < B:
        m = min(_CHUNK, B - pos)
        V = mvn_sample(factor, m, rng.child(chunk_index))
        out[pos:pos + m] = lp_norm_rows(V, p, d_context=d)
        pos += m
        chunk_index += 1
    return out


def gpb_draws(Sigma_hat: CovMatrix, p: LpExponent, B: int, rng: RngSeed) -> EmpiricalDistribution:
    """Draws of ||V||_p with V ~ N(0, Sigma_hat)."""
    if not 1 <= B <= MAX_DRAWS:
        raise ValueError(f"B must lie in [1, {MAX_DRAWS}]")
    draws = _norm_draws(Sigma_hat.factor(), p, B, rng, Sigma_hat.dim)
    return EmpiricalDistribution(draws, {"engine": "gpb", "p": p.label, "seed": _seed_label(rng)})


def proxy_draws(Sigma_true: CovMatrix, p: LpExponent, B: int, rng: RngSeed) -> EmpiricalDistribution:
    """Oracle variant of gpb_draws using the true covariance."""
    if not 1 <= B <= MAX_DRAWS:
        raise ValueError(f"B must lie in [1, {MAX_DRAWS}]")
    draws = _norm_draws(Sigma_true.factor(), p, B, rng, Sigma_true.dim)
    return EmpiricalDistribution(draws, {"engine": "proxy", "p": p.label, "seed": _seed_label(rng)})


def gmb_draws(X: np.ndarray, p: LpExponent, B: int, rng: RngSeed,
              exact: bool = True) -> EmpiricalDistribution:
    """Draws of ||n^{-1/2} sum_i g_i (X_i - Xbar)||_p with g_i ~ N(0,1).

    Conditionally on X this law equals N(0, Sigma_naive) pushed through the
    norm, so with exact=False the draws are generated through that
    factorization instead of fresh multipliers (same law, O(d) per draw).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two observations")
    if not 1 <= B <= MAX_DRAWS:
        raise ValueError(f"B must lie in [1, {MAX_DRAWS}]")
    if not exact:
        S = sample_covariance(X)
        draws = _norm_draws(S.factor(), p, B, rng, S.dim)
        return EmpiricalDistribution(draws, {"engine": "gmb", "p": p.label, "seed": _seed_label(rng)})
    n, d = X.shape
    Xc = (X - X.mean(axis=0)) / math.sqrt(n)
    out = np.empty(B)
    pos = 0
    chunk_index = 0
    while pos < B:
        m = min(_CHUNK, B - pos)
        g = rng.child(chunk_index).generator().standard_normal((m, n))
        out[pos:pos + m] = lp_norm_rows(g @ Xc, p, d_context=d)
        pos += m
        chunk_index += 1
    return EmpiricalDistribution(out, {"engine": "gmb", "p": p.label, "seed": _seed_label(rng)})


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
