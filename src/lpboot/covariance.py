"""Covariance estimation with structure exploitation and diagnostics.

Sample covariance (divisor n), hard/soft entry thresholding, correlation
thresholding with cross-validated tuning, banding, projection onto the PSD
cone, and the rank/variance/error quantities the bootstrap accuracy is
phrased in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .lp import LpExponent, lp_norm

# relative tolerance for the smallest eigenvalue of a matrix accepted as PSD
PSD_CERT_TOL = 1e-8
# relative eigenvalue below which a direction does not count toward the rank
RANK_TOL = 1e-10


@dataclass
class CovMatrix:
    """Symmetric d x d covariance matrix with provenance.

    The matrix is symmetrized on construction.  A PSD factorization is
    cached lazily (see :func:`lpboot.sampling.factorize_psd`).
    """

    values: np.ndarray
    provenance: str = "unspecified"
    _factor: object = field(default=None, repr=False, compare=False)  # PsdFactor

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("covariance matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("covariance matrix entries must be finite")
        self.values = (a + a.T) / 2.0

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def factor(self):
        """PSD factorization, computed once and cached (lazy import avoids a module cycle)."""
        if self._factor is None:
            from .sampling import factorize_psd

            self._factor = factorize_psd(self)
        return self._factor


@dataclass
class CovDiagnostics:
    rank: int
    sigma_min_sq: float
    sigma_max_sq: float
    effective_rank: float


@dataclass
class CovError:
    delta_op: float
    delta_p: dict  # LpExponent -> entrywise lp error of the vectorized difference


def sample_covariance(X: np.ndarray) -> CovMatrix:
    """Sample covariance with divisor n (not n-1); PSD by construction."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two observations")
    if not np.all(np.isfinite(X)):
        raise ValueError("data entries must be finite")
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / X.shape[0]
    return CovMatrix(S, provenance="naive")


def threshold(M: CovMatrix, lam: float, kind: str = "hard") -> CovMatrix:
    """Entrywise hard or soft thresholding at level lam >= 0."""
    if lam < 0.0:
        raise ValueError("threshold level must be nonnegative")
    a = M.values
    if kind == "hard":
        out = np.where(np.abs(a) > lam, a, 0.0)
    elif kind == "soft":
        out = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
    else:
        raise ValueError(f"unknown thresholding kind {kind!r}")
    return CovMatrix(out, provenance=f"{kind}-threshold({lam:g})<-{M.provenance}")


def _check_correlation_level(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError("correlation threshold must lie in [0, 1]")


def _abs_correlation(a: np.ndarray) -> np.ndarray:
    """The matrix |a_jk| / sqrt(a_jj a_kk), where a coordinate with zero
    variance has correlation 0 with every coordinate."""
    d = np.diag(a)
    if np.any(d < 0.0):
        raise ValueError("correlation thresholding requires a nonnegative diagonal")
    sd = np.where(d > 0.0, np.sqrt(d), np.inf)
    return np.abs(a) / np.outer(sd, sd)


def _keep_correlated(a: np.ndarray, corr: np.ndarray, lam: float) -> np.ndarray:
    """a with the off-diagonal entries whose corr is below lam zeroed."""
    out = np.where(corr >= lam, a, 0.0)
    np.fill_diagonal(out, np.diag(a))
    return out


def correlation_threshold(M: CovMatrix, lam: float) -> CovMatrix:
    """Keep entry (j,k) iff |m_jk| / sqrt(m_jj m_kk) >= lam, taking a zero-variance
    coordinate as uncorrelated with the rest; diagonal always kept."""
    _check_correlation_level(lam)
    corr = _abs_correlation(M.values)
    return CovMatrix(_keep_correlated(M.values, corr, lam),
                     provenance=f"corr-threshold({lam:g})<-{M.provenance}")


def band(M: CovMatrix, ell: int) -> CovMatrix:
    """Zero all entries with |j - k| > ell."""
    if ell < 0:
        raise ValueError("band width must be nonnegative")
    d = M.dim
    j, k = np.indices((d, d))
    out = np.where(np.abs(j - k) <= ell, M.values, 0.0)
    return CovMatrix(out, provenance=f"band({ell})<-{M.provenance}")


def _psd_clip(a: np.ndarray) -> np.ndarray:
    """Array body of psd_project for a symmetric a.

    Returns a itself when a Cholesky factorization accepts it as PSD;
    otherwise the eigenvalue clip, symmetrized so that wrapping it in a
    CovMatrix leaves its bytes unchanged.
    """
    scale = max(float(np.abs(np.diag(a)).max(initial=0.0)), 1.0)
    try:
        np.linalg.cholesky(a + (PSD_CERT_TOL * 0.01 * scale) * np.eye(a.shape[0]))
        return a
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(a)
    w = np.where(w > 0.0, w, 0.0)
    out = (V * w) @ V.T
    return (out + out.T) / 2.0


def psd_project(M: CovMatrix) -> CovMatrix:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero.

    A Cholesky fast path accepts already-PSD inputs without a full
    eigendecomposition (the dominant cost inside cross-validation loops).
    """
    return CovMatrix(_psd_clip(M.values), provenance=f"psd<-{M.provenance}")


def cv_select_lambda(X: np.ndarray, grid, folds: int, seed) -> tuple[float, list[float]]:
    """Cross-validated correlation-threshold level.

    Each fold splits the rows into ceil(n/3) vs the rest; the risk at lambda
    is the Frobenius distance between the projected thresholded estimate on
    the small split and the plain sample covariance on the large split.

    The keep-masks {|corr| >= lambda} are nested in lambda, so within a fold
    the number of kept off-diagonal entries identifies the mask.  Each fold
    therefore projects and scores each distinct mask once and adds that risk
    to every grid point producing it, for any grid order and with repeated
    grid values; the risks equal those of scoring every grid point apart.
    Ties break toward the earliest grid point, which is the smallest lambda
    for an ascending grid.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("empty threshold grid")
    for lam in grid:
        _check_correlation_level(lam)
    if folds < 1:
        raise ValueError("folds must be >= 1")
    n1 = math.ceil(n / 3)
    if n1 < 2 or n - n1 < 2:
        raise ValueError(f"n={n} too small to split into {n1} / {n - n1}")
    risks = np.zeros(len(grid))
    for nu in range(folds):
        rng = seed.child(nu).generator()
        perm = rng.permutation(n)
        S1 = sample_covariance(X[perm[:n1]]).values
        S2 = sample_covariance(X[perm[n1:]]).values
        corr = _abs_correlation(S1)
        off = np.sort(corr[np.triu_indices_from(corr, 1)])
        kept = off.size - np.searchsorted(off, grid, side="left")
        mask_risk = {}
        for i, (lam, key) in enumerate(zip(grid, kept.tolist())):
            if key not in mask_risk:
                D = _psd_clip(_keep_correlated(S1, corr, lam)) - S2
                # einsum, unlike the BLAS dot inside np.linalg.norm, sums in
                # the same order for any BLAS thread count
                mask_risk[key] = math.sqrt(float(np.einsum("ij,ij->", D, D)))
            risks[i] += mask_risk[key]
    risks /= folds
    best = int(np.argmin(risks))  # argmin returns the first minimizer
    return grid[best], risks.tolist()


def cov_diagnostics(S: CovMatrix) -> CovDiagnostics:
    """Numerical rank, diagonal extremes, and effective rank (trace / op-norm)."""
    w = np.linalg.eigvalsh(S.values)
    wmax = float(np.abs(w).max(initial=0.0))
    rank = int((w > RANK_TOL * max(wmax, 1e-300)).sum())
    d = np.diag(S.values)
    op = max(wmax, 1e-300)
    return CovDiagnostics(
        rank=rank,
        sigma_min_sq=float(d.min()),
        sigma_max_sq=float(d.max()),
        effective_rank=float(np.trace(S.values)) / op,
    )


def cov_error(est: CovMatrix, truth: CovMatrix,
              p: LpExponent | Iterable[LpExponent]) -> CovError:
    """Operator-norm and entrywise lp errors of est relative to truth."""
    if est.dim != truth.dim:
        raise ValueError("dimension mismatch")
    diff = est.values - truth.values
    delta_op = float(np.linalg.norm(diff, 2))
    ps = [p] if isinstance(p, LpExponent) else list(p)
    vec = diff.ravel()
    delta_p = {q: lp_norm(vec, q, d_context=est.dim) for q in ps}
    return CovError(delta_op=delta_op, delta_p=delta_p)
