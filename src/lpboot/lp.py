"""lp-norm evaluation for all exponent regimes, smooth surrogates, and
closed-form partial derivatives of the norm on the positive orthant.

Exponents are represented by :class:`LpExponent`, which covers finite
p >= 1, the dimension-coupled value log(d), and infinity.  All norm
evaluations factor out the largest entry so that large exponents
(log d, or user-chosen p of 50+) do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp


@dataclass(frozen=True)
class LpExponent:
    """Norm exponent: finite p >= 1, log(d) coupled to the dimension, or infinity."""

    kind: str  # "finite" | "logdim" | "inf"
    p: float = math.nan

    @classmethod
    def finite(cls, p: float) -> "LpExponent":
        p = float(p)
        if not math.isfinite(p) or p < 1.0:
            raise ValueError(f"finite exponent requires p >= 1, got {p}")
        return cls("finite", p)

    @classmethod
    def log_dim(cls) -> "LpExponent":
        return cls("logdim")

    @classmethod
    def infinity(cls) -> "LpExponent":
        return cls("inf", math.inf)

    @classmethod
    def parse(cls, text: str) -> "LpExponent":
        """Parse 'inf', 'logd', or a finite number (CSV/CLI representation)."""
        t = text.strip().lower()
        if t in ("inf", "infinity", "max"):
            return cls.infinity()
        if t in ("logd", "logdim", "log_d"):
            return cls.log_dim()
        return cls.finite(float(t))

    def resolve(self, d: int) -> float:
        """Numeric exponent for vectors of length d."""
        if self.kind == "finite":
            return self.p
        if self.kind == "inf":
            return math.inf
        if d < 3:
            raise ValueError(f"log-dimension exponent requires d >= 3, got d={d}")
        return math.log(d)

    @property
    def label(self) -> str:
        if self.kind == "logdim":
            return "logd"
        if self.kind == "inf":
            return "inf"
        return format(self.p, "g")

    def __str__(self) -> str:
        return self.label


def _check_vector(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def _pnorm(absx: np.ndarray, q: float) -> float:
    """Norm of a nonnegative vector at numeric exponent q, max-factored."""
    if math.isinf(q):
        return float(absx.max())
    m = float(absx.max())
    if m == 0.0:
        return 0.0
    return m * float(((absx / m) ** q).sum() ** (1.0 / q))


def _row_norms(X: np.ndarray, qs) -> list:
    """Row-wise norms of X at each numeric exponent in qs, max-factored; the
    absolute values, row maxima and max-scaled ratios are computed once and
    shared by every finite exponent."""
    absx = np.abs(X)
    m = absx.max(axis=1)
    if all(math.isinf(q) for q in qs):
        return [m] * len(qs)
    safe = np.where(m > 0.0, m, 1.0)
    ratio = absx / safe[:, None]
    # a zero row has ratio 0, so its norm comes out 1.0 * 0.0 = 0.0
    return [m if math.isinf(q) else safe * (ratio ** q).sum(axis=1) ** (1.0 / q) for q in qs]


def lp_norm(x: np.ndarray, p: LpExponent, d_context: int | None = None) -> float:
    """lp-norm of x; for log-dimension exponents d_context defaults to len(x)."""
    x = _check_vector(x)
    d = len(x) if d_context is None else int(d_context)
    return _pnorm(np.abs(x), p.resolve(d))


def lp_norm_rows(X: np.ndarray, p: LpExponent, d_context: int | None = None) -> np.ndarray:
    """Row-wise lp-norms of a 2-d array (vectorized form of :func:`lp_norm`)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("expected a 2-d array with nonempty rows")
    d = X.shape[1] if d_context is None else int(d_context)
    return _row_norms(X, [p.resolve(d)])[0]


def smooth_norm(x: np.ndarray, p: int, eta: float) -> float:
    """Smooth surrogate (eta^p + sum |x_j|^p)^(1/p); within eta above the lp-norm."""
    x = _check_vector(x)
    if not (isinstance(p, (int, np.integer)) and p >= 2 and p % 2 == 0):
        raise ValueError(f"smooth_norm requires an even integer p >= 2, got {p}")
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    a = np.abs(x)
    m = max(float(a.max()), eta)
    s = (eta / m) ** p + ((a / m) ** p).sum()
    return m * s ** (1.0 / p)


def smooth_max(x: np.ndarray, beta: float) -> float:
    """Log-sum-exp smooth maximum at the log-dimension exponent p = log d,
    d = len(x):
    d^{1/p} * beta^{-1} * log(sum_k exp(beta x_k d^{-1/p}) + exp(-beta x_k d^{-1/p})),
    with d^{1/p} = e.

    Sandwich: ||x||_inf <= smooth_max(x, beta) <= ||x||_p + e * log(2d) / beta
    for every p >= log d.  No single scalar surrogate can replace the lower
    bound by ||x||_p for all such p simultaneously: for flat vectors
    ||x||_{log d} approaches e * ||x||_inf, which exceeds any additive slack.
    """
    x = _check_vector(x)
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    z = beta * x / math.e  # d^{-1/log d} = 1/e
    return math.e * float(logsumexp(np.concatenate([z, -z]))) / beta


def _positive_vector(x: np.ndarray) -> np.ndarray:
    x = _check_vector(x)
    if np.any(x <= 0.0):
        raise ValueError("derivatives are defined on the strictly positive orthant")
    return x


def mp_gradient(x: np.ndarray, p: float) -> np.ndarray:
    """Gradient of the lp-norm at a strictly positive point.

    The conjugate-norm identity holds exactly: ||g||_q = 1 with q = p/(p-1).
    """
    x = _positive_vector(x)
    if not p > 1.0:
        raise ValueError("gradient requires p > 1")
    m = float(_pnorm(x, p))
    return (x / m) ** (p - 1.0)


@dataclass
class LpDerivatives:
    """Closed-form second and third partial derivatives of the lp-norm."""

    second: np.ndarray       # d x d Hessian
    third_diag3: np.ndarray  # d vector of d^3/dx_k^3
    third_kkl: np.ndarray    # d x d, entry (k, l) = d^3/dx_k^2 dx_l; diagonal holds third_diag3
    third_klm: object        # callback (k, l, m distinct) -> d^3/dx_k dx_l dx_m


def mp_higher_derivatives(x: np.ndarray, p: float) -> LpDerivatives:
    """Second and third partial derivatives of the lp-norm at a positive point.

    For p < 3 the pure third derivative contains x_k^(p-3) and blows up as
    any coordinate approaches 0; callers must keep x bounded away from 0.
    """
    x = _positive_vector(x)
    if not p > 1.0:
        raise ValueError("derivatives require p > 1")
    m = float(_pnorm(x, p))
    u = x / m  # u_k^p sums to 1

    g = u ** (p - 1.0)  # gradient entries
    second = -(p - 1.0) / m * np.outer(g, g)
    diag2 = (p - 1.0) / m * (u ** (p - 2.0) - u ** (2.0 * p - 2.0))
    np.fill_diagonal(second, diag2)

    third_diag3 = (
        (p - 1.0) * (p - 2.0) * u ** (p - 3.0)
        - 3.0 * (p - 1.0) ** 2 * u ** (2.0 * p - 3.0)
        + (2.0 * p - 1.0) * (p - 1.0) * u ** (3.0 * p - 3.0)
    ) / m**2

    kk = u ** (p - 2.0)
    third_kkl = (
        -((p - 1.0) ** 2) * np.outer(kk, g)
        + (2.0 * p - 1.0) * (p - 1.0) * np.outer(kk * u**p, g)
    ) / m**2
    np.fill_diagonal(third_kkl, third_diag3)

    def third_klm(k: int, l: int, mm: int) -> float:
        return float((2.0 * p - 1.0) * (p - 1.0) * g[k] * g[l] * g[mm] / m**2)

    return LpDerivatives(second=second, third_diag3=third_diag3,
                         third_kkl=third_kkl, third_klm=third_klm)
