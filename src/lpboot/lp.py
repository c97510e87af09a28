"""lp-norm evaluation for all exponent regimes, smooth surrogates, and
closed-form partial derivatives of the norm on the positive orthant.

Exponents are represented by :class:`LpExponent`, which covers finite
p >= 1, log(d) for a vector of length d, and infinity.  All norm
evaluations factor out the largest entry so that large exponents
(log d, or user-chosen p of 50+) do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp


def _exact_text(value: float) -> str:
    """value as short text that reads back as value: its %g text where that
    is exact (so 2, 0.05, 1e-06), else its repr (2.0000001, 0.0123456789)."""
    text = format(value, "g")
    return text if float(text) == value else repr(value)


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
        return _exact_text(self.p)

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
    m = float(absx.max())
    if math.isinf(q) or m == 0.0:
        return m
    return m * float(((absx / m) ** q).sum() ** (1.0 / q))


def _row_norms(absx: np.ndarray, qs) -> list:
    """Row-wise norms at each numeric exponent in qs of the rows whose absolute
    values absx holds, max-factored. absx is overwritten: it becomes the
    max-scaled ratios, computed once and shared by every finite exponent, and
    the last finite exponent raises them to its power in place. Each earlier
    finite exponent uses one scratch array, so a call holds at most two arrays
    of absx's size. The ufuncs and their order are those of
    (absx / max) ** q, so the bytes are too."""
    m = absx.max(axis=1)
    finite = [i for i, q in enumerate(qs) if not math.isinf(q)]
    if not finite:
        return [m] * len(qs)
    safe = np.where(m > 0.0, m, 1.0)
    ratio = np.divide(absx, safe[:, None], out=absx)
    scratch = np.empty_like(ratio) if len(finite) > 1 else None
    norms = [m] * len(qs)
    for i in finite:
        if i == finite[-1]:
            power = ratio
        else:
            power = scratch
            power[...] = ratio
        # **= keeps numpy's scalar-power fast paths (q = 1 copies, q = 2
        # squares), which np.power(..., out=) may not take
        power **= qs[i]
        # a zero row has ratio 0, so its norm comes out 1.0 * 0.0 = 0.0
        norms[i] = safe * power.sum(axis=1) ** (1.0 / qs[i])
    return norms


def lp_norm(x: np.ndarray, p: LpExponent) -> float:
    """lp-norm of x; a log-dimension exponent is log(len(x))."""
    x = _check_vector(x)
    return _pnorm(np.abs(x), p.resolve(len(x)))


def lp_norm_rows(X: np.ndarray, p: LpExponent) -> np.ndarray:
    """Row-wise lp-norms of a 2-d array (vectorized form of :func:`lp_norm`).

    X is left unchanged: the norm pass overwrites a fresh array of its
    absolute values."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("expected a 2-d array with nonempty rows")
    if not np.all(np.isfinite(X)):
        raise ValueError("vector entries must be finite")
    return _row_norms(np.abs(X), [p.resolve(X.shape[1])])[0]


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
