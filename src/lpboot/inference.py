"""Hypothesis tests for linear restrictions on high-dimensional means,
simultaneous confidence sets, and lp-ball volumes.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from .bootstrap import (MAX_DRAWS, EmpiricalDistribution, _Rows, critical_value,
                        gpb_draws)
from .covariance import (CovMatrix, _integer, _rescale_exponent, band,
                         correlation_threshold, cv_select_lambda, psd_project,
                         sample_covariance, threshold)
from .lp import LpExponent, _exact_text, lp_norm
from .parallel import hold
from .sampling import RngSeed


@dataclass(frozen=True)
class EstimatorSpec:
    """Covariance estimator descriptor: naive sample covariance, hard
    thresholding at a fixed level, cross-validated correlation thresholding,
    or banding."""

    kind: str  # "naive" | "hard" | "corr_cv" | "band"
    lam: float = 0.0          # hard-threshold level
    ell: int = 0              # band width
    cv_folds: int = 10
    cv_grid: tuple = tuple(np.linspace(0.0, 1.0, 40))

    def __post_init__(self):
        if self.kind not in ("naive", "hard", "corr_cv", "band"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("threshold level must be finite and nonnegative")
        object.__setattr__(self, "ell", _integer(self.ell, "band width", 0))
        object.__setattr__(self, "cv_folds", _integer(self.cv_folds, "folds", 1))
        if not self.cv_grid or not all(0.0 <= g <= 1.0 for g in self.cv_grid):
            raise ValueError("cv_grid must be nonempty and lie in [0, 1]")

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        """naive, corr_cv (or cv, corr-cv, thresholded), hard, hard(<level>),
        band or band(<width>); the whole label must match."""
        t = text.strip().lower()
        if t == "naive":
            return cls("naive")
        if t in ("corr_cv", "cv", "corr-cv", "thresholded"):
            return cls("corr_cv")
        match = re.fullmatch(r"(hard|band)(?:\(([^()]*)\))?", t)
        if match is None:
            raise ValueError(f"unknown estimator {text!r}")
        kind, arg = match.groups()
        try:
            if kind == "hard":
                return cls("hard", lam=0.1 if arg is None else float(arg))
            return cls("band", ell=1 if arg is None else int(arg))
        except ValueError as exc:
            raise ValueError(f"bad estimator {text!r}: {exc}") from exc

    @property
    def label(self) -> str:
        if self.kind == "hard":
            return f"hard({_exact_text(self.lam)})"
        if self.kind == "band":
            return f"band({self.ell})"
        return self.kind


def estimate_covariance(X: np.ndarray, spec: EstimatorSpec, cv_seed: RngSeed) -> CovMatrix:
    """Sample covariance regularized per spec; PSD-projected where needed.

    cv_seed is the stream corr_cv draws its folds from: fold k permutes the
    rows with cv_seed.child(k). The other kinds use no randomness. Every kind
    holds the pool for the whole call, as run_test does, so its BLAS runs on
    one thread and its bytes do not depend on the BLAS thread count
    (lpboot.parallel says why).

    Sigma_hat is returned in the data's units, so the largest |entry| of X
    must lie in [2^-64, 2^64] (or X be all zero): outside it covariance
    entries can underflow to 0 or overflow. run_test rescales such data.
    """
    X = np.asarray(X, dtype=float)
    if _rescale_exponent(X):
        raise ValueError("the largest |entry| of the data lies outside [2^-64, 2^64], where "
                         "covariance entries can underflow or overflow; rescale it by a "
                         "power of two, as run_test does")
    with hold():
        return _estimator(X, spec, cv_seed)()


def _estimator(X: np.ndarray, spec: EstimatorSpec, cv_seed: RngSeed):
    """spec's estimate of X's covariance as a step to run later: corr_cv
    selects lambda-hat now, so CV's folds may pool, and the returned function
    computes the rest (the sample covariance, its threshold, band or
    correlation threshold, and the PSD projection), so run_test can run it
    beside the draws' normals."""
    if spec.kind == "corr_cv":
        lam_hat, _ = cv_select_lambda(X, list(spec.cv_grid), spec.cv_folds, cv_seed)

    def estimate() -> CovMatrix:
        S = sample_covariance(X)
        if spec.kind == "naive":
            return S
        if spec.kind == "hard":
            return psd_project(threshold(S, spec.lam))
        if spec.kind == "band":
            return psd_project(band(S, spec.ell))
        # corr_cv, the one kind left that EstimatorSpec admits
        return psd_project(correlation_threshold(S, lam_hat))

    return estimate


@dataclass
class TestSpec:
    M: np.ndarray
    m0: np.ndarray
    p: LpExponent
    alpha: float
    estimator: EstimatorSpec
    B: int
    seed: RngSeed

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.m0 = np.asarray(self.m0, dtype=float)
        if self.M.ndim != 2 or self.m0.ndim != 1 or self.M.shape[0] != self.m0.size:
            raise ValueError("restriction map and target dimensions are inconsistent")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        self.B = _integer(self.B, "B", 1, MAX_DRAWS)


@dataclass
class TestResult:
    statistic: float
    critical_value: float
    reject: bool
    p_value: float
    distribution: EmpiricalDistribution


def test_statistic(X: np.ndarray, M: np.ndarray, m0: np.ndarray, p: LpExponent) -> float:
    """||n^{-1/2} sum_i (M X_i - m0)||_p."""
    X, M, m0 = _statistic_inputs(X, M, m0)
    return _restricted_statistic(X, _rescale_exponent(X), M, m0, p)


def _statistic_inputs(X, M, m0) -> tuple:
    """X, M and m0 as float arrays, checked for matching shapes and finite."""
    X = np.asarray(X, dtype=float)
    M = np.asarray(M, dtype=float)
    m0 = np.asarray(m0, dtype=float)
    if X.ndim != 2 or M.shape[1] != X.shape[1] or M.shape[0] != m0.size:
        raise ValueError(f"dimension mismatch: data of shape {X.shape}, restriction "
                         f"map of shape {M.shape}, target of size {m0.size}")
    if not all(np.isfinite(a).all() for a in (X, M, m0)):
        raise ValueError("data, restriction map and target must be finite")
    return X, M, m0


def _restricted_statistic(X: np.ndarray, k: int, M: np.ndarray, m0: np.ndarray,
                          p: LpExponent) -> float:
    """test_statistic of checked inputs, k = _rescale_exponent(X)."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = _column_sum(X, k) @ M.T
    return _statistic(total, X.shape[0], m0, p)


def _column_sum(X: np.ndarray, k: int) -> np.ndarray:
    """sum_i X_i, summed on the data's exact power-of-two rescaling X * 2^-k
    where k = _rescale_exponent(X) is not 0, so no partial sum overflows and
    the sum is inf only where it passes the largest float, whatever the order
    of the rows; data with k = 0 keeps every byte."""
    if not k:
        return X.sum(axis=0)
    with np.errstate(over="ignore"):
        return np.ldexp(np.ldexp(X, -k).sum(axis=0), k)


def _scaled_gap(total: np.ndarray, n: int, m0: np.ndarray) -> np.ndarray:
    """total / sqrt(n) - sqrt(n) m0, inf or NaN where an entry passes the
    largest float."""
    with np.errstate(over="ignore", invalid="ignore"):
        return total / math.sqrt(n) - math.sqrt(n) * m0


def _statistic(total: np.ndarray, n: int, m0: np.ndarray, p: LpExponent) -> float:
    """||total / sqrt(n) - sqrt(n) m0||_p for total = sum_i M X_i, the statistic
    run_test rejects on; a ValueError where it overflows."""
    s = _scaled_gap(total, n, m0)
    if not np.isfinite(s).all():
        raise ValueError("the test statistic overflows: sum_i (M X_i - m0) / sqrt(n) has "
                         "an entry past the largest float")
    return lp_norm(s, p, d_context=m0.size)


def run_test(X: np.ndarray, spec: TestSpec) -> TestResult:
    """Bootstrap test of M mu = m0 at level alpha.

    The covariance of the transformed coordinates is the conjugation
    M Sigma_hat M' of the PSD structured estimate, so sparsity assumptions
    on Sigma keep paying off after the restriction map. Where M is exactly
    the identity it is Sigma_hat itself, with no products.

    Data whose largest |entry| lies outside [2^-64, 2^64] has Sigma_hat
    estimated on its rescaling by the power of two that brings it into
    [1/2, 1), and the draws scaled back (a ValueError where a draw then
    passes the largest float): an exact rescaling, so covariance entries and
    CV risks (fourth powers of the data) neither overflow nor underflow, and
    in-range data keeps every byte. The hard-threshold level is a covariance
    level, so it is rescaled with Sigma_hat (by 2^-2k).

    The call holds the pool for its whole body, whatever the estimator: its
    BLAS runs on one thread, so the output bytes do not depend on the BLAS
    thread count. Every estimate step after CV's lambda-hat (the sample
    covariance, the threshold, band or correlation threshold, the PSD
    projection, the conjugation and the factorization) is the draws' prepare
    step, run beside their first normals (lpboot.parallel,
    bootstrap._norm_draws); the draws are gpb_draws' of M Sigma_hat M'.
    """
    with hold():
        X, M, m0 = _statistic_inputs(X, spec.M, spec.m0)
        k = _rescale_exponent(X)
        stat = _restricted_statistic(X, k, M, m0, spec.p)
        est = spec.estimator
        if k and est.kind == "hard":
            # a level past the largest float lies above every rescaled entry
            with np.errstate(over="ignore"):
                est = replace(est, lam=min(float(np.ldexp(est.lam, -2 * k)), sys.float_info.max))
        X = np.ldexp(X, -k) if k else X
        identity = np.array_equal(spec.M, np.eye(X.shape[1]))
        # every estimate is PSD with ||Sigma_hat||_F <= tr(S), S the sample
        # covariance, so every entry of |M| |Sigma_hat| |M'| is at most
        # max_i ||m_i||^2 tr(S): twice that finite (or tr(S) = 0, where the
        # product is NaN), M Sigma_hat M' is finite
        with np.errstate(over="ignore"):
            if not identity and math.isinf(2.0 * float((spec.M ** 2).sum(axis=1).max())
                                           * float(X.var(axis=0).sum())):
                raise ValueError("the conjugation M Sigma_hat M' overflows: the restriction "
                                 "map's entries are too large for a float")
        estimate = _estimator(X, est, spec.seed.child(1, 0))

        def prepare() -> np.ndarray:
            Sigma = estimate()
            if identity:
                Omega = Sigma  # M Sigma_hat M' = Sigma_hat, without two d^3 products
            else:
                Omega = CovMatrix(spec.M @ Sigma.values @ spec.M.T,
                                  provenance=f"conjugate<-{Sigma.provenance}")
            return Omega.factor().factor.T

        dist = gpb_draws(_Rows(spec.M.shape[0], prepare), spec.p, spec.B, spec.seed.child(2))
        if k:
            with np.errstate(over="ignore"):
                samples = np.ldexp(dist.samples, k)
            if math.isinf(samples[-1]):  # the samples are sorted
                raise ValueError("the bootstrap draws overflow: scaled back to the data's units "
                                 f"by 2^{k}, the largest draw passes the largest float")
            dist = EmpiricalDistribution(samples, dist.meta)
        crit = critical_value(dist, spec.alpha)
        p_value = float((dist.samples >= stat).mean())
        return TestResult(statistic=stat, critical_value=crit,
                          reject=bool(stat > crit), p_value=p_value,
                          distribution=dist)


@dataclass
class ConfidenceSet:
    """Simultaneous lp-ball confidence set for the mean vector.

    confidence_set also keeps the test it is the dual of, as the data's
    column sum, n and the critical value, and contains(mu) evaluates that
    test's statistic: mu lies in the set exactly when run_test of mu accepts.
    A set built from center, radius and p alone is the ball
    ||center - mu||_p <= radius. In both forms a finite mu whose statistic
    or distance passes the largest float lies outside, past the finite
    critical value or radius; a mu that is not finite is a ValueError."""

    center: np.ndarray
    radius: float
    p: LpExponent
    dual: tuple | None = field(default=None, repr=False)  # (column sum, n, critical value)

    def contains(self, mu: np.ndarray) -> bool:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != self.center.shape:
            raise ValueError("dimension mismatch")
        if not np.isfinite(mu).all():
            raise ValueError("mu must be finite")
        if self.dual is not None:
            total, n, crit = self.dual
            s = _scaled_gap(total, n, mu)
            return bool(np.isfinite(s).all()) and not lp_norm(s, self.p, d_context=mu.size) > crit
        with np.errstate(over="ignore"):
            diff = self.center - mu
        if not diff.any():
            return True
        return bool(np.isfinite(diff).all()) and \
            lp_norm(diff, self.p, d_context=self.center.size) <= self.radius


def confidence_set(X: np.ndarray, p: LpExponent, alpha: float,
                   estimator: EstimatorSpec, B: int, seed: RngSeed) -> ConfidenceSet:
    """lp-ball around the sample mean with radius c*(1-alpha)/sqrt(n): the dual
    of run_test with M = I and m0 = 0 on the same seed, so mu lies in the set
    iff that test of mu accepts, and its inputs are checked before compute.
    The column sum stands for the test's sum_i I X_i: multiplying by I is
    exact."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1] if X.ndim == 2 else 0
    res = run_test(X, TestSpec(np.eye(d), np.zeros(d), p, alpha, estimator, B, seed))
    n, crit = X.shape[0], res.critical_value
    return ConfidenceSet(center=X.mean(axis=0), radius=crit / math.sqrt(n), p=p,
                         dual=(_column_sum(X, _rescale_exponent(X)), n, crit))


@dataclass
class BallVolume:
    log_volume: float
    volume: float  # inf when not representable in double precision

    @property
    def representable(self) -> bool:
        return math.isfinite(self.volume)


def lp_ball_volume(d: int, p: float, r: float) -> BallVolume:
    """Volume (2r)^d / (Gamma(1+d/p) / Gamma(1+1/p)^d) of the lp-ball of radius
    r, in that form where it and (2r)^d are normal doubles (so d = 1 gives 2r
    exactly), else exp(log_volume)."""
    d = _integer(d, "d", 1)
    if not p >= 1.0 or not 0.0 < r < math.inf:
        raise ValueError("need d >= 1, p >= 1, 0 < r < inf")
    # log(2r) as log 2 + log r only where 2r passes the largest float
    log_2r = math.log(2.0 * r) if 2.0 * r < math.inf else math.log(2.0) + math.log(r)
    logv = d * log_2r + d * gammaln(1.0 + 1.0 / p) - gammaln(1.0 + d / p)
    side = vol = math.inf  # where a step overflows
    with contextlib.suppress(OverflowError):
        side = math.pow(2.0 * r, d)
        vol = side / (math.gamma(1.0 + d / p) / math.gamma(1.0 + 1.0 / p) ** d)
    if not all(sys.float_info.min <= x < math.inf for x in (side, vol)):
        vol = math.inf
        with contextlib.suppress(OverflowError):
            vol = math.exp(logv)
    return BallVolume(log_volume=float(logv), volume=vol)
