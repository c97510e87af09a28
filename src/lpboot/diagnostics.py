"""Empirical probes of the two distributional tools behind the bootstrap
theory: Levy concentration of Gaussian lp-norms and the Kolmogorov-Smirnov
comparison bound between lp-norms under two covariances.

Both probes check direction only (estimate <= C * bound with C = 10); the
underlying absolute constants are unspecified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import MAX_DRAWS, ks_distance, proxy_draws
from .covariance import CovMatrix, _integer, cov_error
from .lp import LpExponent, lp_norm
from .sampling import RngSeed

C = 10.0


@dataclass
class ProbeReport:
    name: str
    estimate: float
    bound: float
    C: float
    n_mc: int
    passed: bool


def _omega(p: LpExponent, d: int, r: int) -> float:
    """Concentration scale: sqrt(p r^(1/p)) for finite p, sqrt(log d) at the
    log-dimension/sup-norm end (the two branches agree within a factor e at
    the seam p = log d)."""
    if p.kind == "finite":
        return math.sqrt(p.p * r ** (1.0 / p.p))
    return math.sqrt(math.log(d))


def levy_concentration(S: CovMatrix, p: LpExponent, eps: float, n_mc: int,
                       rng: RngSeed) -> ProbeReport:
    """Largest probability mass of ||X||_p, X ~ N(0, S), in any interval of
    width eps * ||sigma||_p / omega_p(d, r); passes when <= C * eps."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    n_mc = _integer(n_mc, "n_mc", 1000, MAX_DRAWS)
    d = S.dim
    sigma = np.sqrt(np.diag(S.values))
    width = eps * lp_norm(sigma, p, d_context=d) / _omega(p, d, max(S.factor().rank, 1))
    # sorted draws from the bootstrap kernel; a zero covariance gives all-zero
    # draws and width 0, so one window holds all the mass
    draws = proxy_draws(S, p, n_mc, rng).samples
    # exact sup over windows anchored at sample points, O(n_mc) two-pointer
    hi = np.searchsorted(draws, draws + width, side="right")
    estimate = float((hi - np.arange(n_mc)).max()) / n_mc
    return ProbeReport("levy", estimate, eps, C, n_mc, estimate <= C * eps)


def comparison_ks(Sx: CovMatrix, Sy: CovMatrix, p: LpExponent, n_mc: int,
                  rng: RngSeed) -> ProbeReport:
    """KS distance between Monte Carlo lp-norm laws under Sx and Sy, against
    the covariance-difference bound (plus KS sampling noise)."""
    if Sx.dim != Sy.dim:
        raise ValueError("dimension mismatch")
    n_mc = _integer(n_mc, "n_mc", 1000, MAX_DRAWS)
    d = Sx.dim
    Dx = proxy_draws(Sx, p, n_mc, rng.child(0))
    Dy = proxy_draws(Sy, p, n_mc, rng.child(1))
    estimate = ks_distance(Dx, Dy)
    err = cov_error(Sx, Sy, p if p.kind == "finite" else LpExponent.infinity())
    if p.kind == "finite":
        q = p.p
        delta_p = next(iter(err.delta_p.values()))
        sides = []
        for S in (Sx, Sy):
            r = max(S.factor().rank, 1)
            snorm = lp_norm(np.sqrt(np.diag(S.values)), p, d_context=d)
            if snorm > 0.0:  # 0 where delta_p is, not inf * 0 where q * q overflows
                sides.append(math.sqrt(q * q * d ** (1.0 / q) * r ** (1.0 / q) * delta_p) / snorm
                             if delta_p else 0.0)
        bound = min(sides) if sides else math.inf
    else:
        delta_inf = next(iter(err.delta_p.values()))
        delta_op = err.delta_op
        denom = max(float(np.diag(Sx.values).max()), float(np.diag(Sy.values).max()))
        denom = math.sqrt(denom)
        bound = math.inf if denom == 0.0 else math.log(d) * math.sqrt(min(delta_op, delta_inf)) / denom
    # same-law instances sit at pure sampling noise; the two-sample KS scale
    noise = 1.36 * math.sqrt(2.0 / n_mc)
    passed = estimate <= C * bound + noise
    return ProbeReport("comparison_ks", estimate, bound, C, n_mc, passed)
