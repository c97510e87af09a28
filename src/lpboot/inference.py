"""Hypothesis tests for linear restrictions on high-dimensional means,
simultaneous confidence sets, and lp-ball volumes.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .bootstrap import (MAX_DRAWS, EmpiricalDistribution, critical_value,
                        gpb_draws)
from .covariance import (CovMatrix, _rescale_exponent, band,
                         correlation_threshold, cv_select_lambda, psd_project,
                         sample_covariance, threshold)
from .lp import LpExponent, lp_norm
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
        if self.ell < 0:
            raise ValueError("band width must be nonnegative")
        if self.cv_folds < 1:
            raise ValueError("folds must be >= 1")
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
            return f"hard({self.lam:g})"
        if self.kind == "band":
            return f"band({self.ell})"
        return self.kind


def estimate_covariance(X: np.ndarray, spec: EstimatorSpec, cv_seed: RngSeed) -> CovMatrix:
    """Sample covariance regularized per spec; PSD-projected where needed.

    cv_seed is the stream corr_cv draws its folds from: fold k permutes the
    rows with cv_seed.child(k). The other kinds use no randomness. With
    corr_cv the call holds the pool for its whole body (lpboot.parallel says
    why), as run_test does.

    Sigma_hat is returned in the data's units, so the largest |entry| of X
    must lie in [2^-64, 2^64] (or X be all zero): outside it covariance
    entries can underflow to 0 or overflow. run_test rescales such data.
    """
    X = np.asarray(X, dtype=float)
    if _rescale_exponent(X):
        raise ValueError("the largest |entry| of the data lies outside [2^-64, 2^64], where "
                         "covariance entries can underflow or overflow; rescale it by a "
                         "power of two, as run_test does")
    with hold(spec.kind == "corr_cv"):
        S = sample_covariance(X)
        if spec.kind == "naive":
            return S
        if spec.kind == "hard":
            return psd_project(threshold(S, spec.lam))
        if spec.kind == "band":
            return psd_project(band(S, spec.ell))
        # corr_cv, the one kind left that EstimatorSpec admits
        lam_hat, _ = cv_select_lambda(X, list(spec.cv_grid), spec.cv_folds, cv_seed)
        return psd_project(correlation_threshold(S, lam_hat))


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
        if not 1 <= self.B <= MAX_DRAWS:
            raise ValueError(f"B must lie in [1, {MAX_DRAWS}]")


@dataclass
class TestResult:
    statistic: float
    critical_value: float
    reject: bool
    p_value: float
    distribution: EmpiricalDistribution


def test_statistic(X: np.ndarray, M: np.ndarray, m0: np.ndarray, p: LpExponent) -> float:
    """||n^{-1/2} sum_i (M X_i - m0)||_p."""
    X = np.asarray(X, dtype=float)
    M = np.asarray(M, dtype=float)
    m0 = np.asarray(m0, dtype=float)
    if X.ndim != 2 or M.shape[1] != X.shape[1] or M.shape[0] != m0.size:
        raise ValueError(f"dimension mismatch: data of shape {X.shape}, restriction "
                         f"map of shape {M.shape}, target of size {m0.size}")
    n = X.shape[0]
    s = X.sum(axis=0) @ M.T / math.sqrt(n) - math.sqrt(n) * m0
    return lp_norm(s, p, d_context=m0.size)


def run_test(X: np.ndarray, spec: TestSpec) -> TestResult:
    """Bootstrap test of M mu = m0 at level alpha.

    The covariance of the transformed coordinates is the conjugation
    M Sigma_hat M' of the PSD structured estimate, so sparsity assumptions
    on Sigma keep paying off after the restriction map. Where M is exactly
    the identity it is Sigma_hat itself, with no products.

    Data whose largest |entry| lies outside [2^-64, 2^64] has Sigma_hat
    estimated on its rescaling by the power of two that brings it into
    [1/2, 1), and the draws scaled back: an exact rescaling, so covariance
    entries and CV risks (fourth powers of the data) neither overflow nor
    underflow, and in-range data keeps every byte. The hard-threshold level
    is a covariance level, so it is rescaled with Sigma_hat (by 2^-2k).
    """
    with hold(spec.estimator.kind == "corr_cv"):
        X = np.asarray(X, dtype=float)
        stat = test_statistic(X, spec.M, spec.m0, spec.p)
        k = _rescale_exponent(X)
        est = spec.estimator
        if k and est.kind == "hard":
            # a level past the largest float lies above every rescaled entry
            with np.errstate(over="ignore"):
                est = replace(est, lam=min(float(np.ldexp(est.lam, -2 * k)), sys.float_info.max))
        Sigma = estimate_covariance(np.ldexp(X, -k) if k else X, est, spec.seed.child(1, 0))
        if np.array_equal(spec.M, np.eye(Sigma.dim)):
            Omega = Sigma  # M Sigma_hat M' = Sigma_hat, without two d^3 products
        else:
            Omega = CovMatrix(spec.M @ Sigma.values @ spec.M.T,
                              provenance=f"conjugate<-{Sigma.provenance}")
        dist = gpb_draws(Omega, spec.p, spec.B, spec.seed.child(2))
        if k:
            dist = EmpiricalDistribution(np.ldexp(dist.samples, k), dist.meta)
        crit = critical_value(dist, spec.alpha)
        p_value = float((dist.samples >= stat).mean())
        return TestResult(statistic=stat, critical_value=crit,
                          reject=bool(stat > crit), p_value=p_value,
                          distribution=dist)


@dataclass
class ConfidenceSet:
    """Simultaneous lp-ball confidence set for the mean vector."""

    center: np.ndarray
    radius: float
    p: LpExponent

    def contains(self, mu: np.ndarray) -> bool:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != self.center.shape:
            raise ValueError("dimension mismatch")
        diff = self.center - mu
        if not diff.any():
            return True
        return lp_norm(diff, self.p, d_context=self.center.size) <= self.radius


def confidence_set(X: np.ndarray, p: LpExponent, alpha: float,
                   estimator: EstimatorSpec, B: int, seed: RngSeed) -> ConfidenceSet:
    """lp-ball around the sample mean with radius c*(1-alpha)/sqrt(n): the dual
    of run_test with M = I and m0 = 0 on the same seed, so mu lies in the set
    iff that test of mu accepts, and its inputs are checked before compute."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1] if X.ndim == 2 else 0
    res = run_test(X, TestSpec(np.eye(d), np.zeros(d), p, alpha, estimator, B, seed))
    return ConfidenceSet(center=X.mean(axis=0),
                         radius=res.critical_value / math.sqrt(X.shape[0]), p=p)


@dataclass
class BallVolume:
    log_volume: float
    volume: float  # inf when not representable in double precision

    @property
    def representable(self) -> bool:
        return math.isfinite(self.volume)


def lp_ball_volume(d: int, p: float, r: float) -> BallVolume:
    """Volume (2r)^d Gamma(1+1/p)^d / Gamma(1+d/p) of the lp-ball of radius r."""
    if d < 1 or not p >= 1.0 or not 0.0 < r < math.inf:
        raise ValueError("need d >= 1, p >= 1, 0 < r < inf")
    logv = d * math.log(2.0 * r) + d * gammaln(1.0 + 1.0 / p) - gammaln(1.0 + d / p)
    try:
        vol = math.exp(logv)
    except OverflowError:
        vol = math.inf
    return BallVolume(log_volume=float(logv), volume=vol)
