"""Covariance estimation with structure exploitation and diagnostics.

Sample covariance (divisor n), hard entry thresholding, correlation
thresholding with cross-validated tuning, banding, projection onto the PSD
cone, and the rank/variance/error quantities the bootstrap accuracy is
phrased in.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .lp import LpExponent, lp_norm
from .parallel import _openblas_function, run_indexed

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
        s = a + a.T  # a may be the caller's, so only the sum is halved in place
        s /= 2.0
        self.values = s

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
    S = Xc.T @ Xc
    S /= X.shape[0]
    return CovMatrix(S, provenance="naive")


def _keep_off_diagonal(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """a with the off-diagonal entries where keep is False zeroed; the
    diagonal is always kept."""
    out = np.where(keep, a, 0.0)
    np.fill_diagonal(out, np.diag(a))
    return out


def threshold(M: CovMatrix, lam: float) -> CovMatrix:
    """Hard thresholding at level lam >= 0: zero the off-diagonal entries with
    |m_jk| <= lam and keep the diagonal (Rothman, Levina & Zhu 2009), so no
    variance is thresholded to zero."""
    if lam < 0.0:
        raise ValueError("threshold level must be nonnegative")
    a = M.values
    return CovMatrix(_keep_off_diagonal(a, np.abs(a) > lam),
                     provenance=f"hard-threshold({lam:g})<-{M.provenance}")


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


def correlation_threshold(M: CovMatrix, lam: float) -> CovMatrix:
    """Keep entry (j,k) iff |m_jk| / sqrt(m_jj m_kk) >= lam, taking a zero-variance
    coordinate as uncorrelated with the rest; diagonal always kept."""
    _check_correlation_level(lam)
    keep = _abs_correlation(M.values) >= lam
    return CovMatrix(_keep_off_diagonal(M.values, keep),
                     provenance=f"corr-threshold({lam:g})<-{M.provenance}")


def band(M: CovMatrix, ell: int) -> CovMatrix:
    """Zero all entries with |j - k| > ell."""
    if ell < 0:
        raise ValueError("band width must be nonnegative")
    j, k = np.indices(M.values.shape)
    return CovMatrix(_keep_off_diagonal(M.values, np.abs(j - k) <= ell),
                     provenance=f"band({ell})<-{M.provenance}")


_LAPACK_COL_MAJOR = 102


def _lapacke_dsyevd():
    """LAPACKE_dsyevd of numpy's bundled OpenBLAS, or None where it is missing."""
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    return _openblas_function("scipy_LAPACKE_dsyevd64_", i64, ctypes.c_int, ctypes.c_char,
                              ctypes.c_char, i64, ptr, i64, ptr)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric a, ascending, bit-equal to np.linalg.eigvalsh(a):
    the same LAPACK routine (dsyevd, values only, lower triangle) of the same
    library, called through ctypes, which releases the GIL, so pool workers
    compute them concurrently. np.linalg.eigvalsh, which holds the GIL, is the
    fallback where the library lacks the routine. Raises LinAlgError where
    LAPACK fails."""
    dsyevd = _lapacke_dsyevd()
    if dsyevd is None:
        return np.linalg.eigvalsh(a)
    work = np.array(a, dtype=float, order="F")  # dsyevd overwrites it
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError("eigenvalues need a square matrix")
    n = work.shape[0]
    w = np.empty(n)
    if dsyevd(_LAPACK_COL_MAJOR, b"N", b"L", n, work.ctypes.data, max(n, 1), w.ctypes.data):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def _psd_accepts(a: np.ndarray) -> bool:
    """Whether a Cholesky factorization of a, shifted by a tiny multiple of its
    largest diagonal entry, succeeds: the probe that accepts a as PSD."""
    diag = np.diag(a)
    shifted = np.array(a, dtype=float)
    # the shift on the diagonal of one copy: the same bytes as a + shift * I
    np.fill_diagonal(shifted, diag + PSD_CERT_TOL * 0.01 * float(np.abs(diag).max(initial=0.0)))
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        return False


def _eigen_clip(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix to a symmetric a (Higham 1988): its negative
    eigenvalues clipped to zero, symmetrized so that wrapping it in a CovMatrix
    leaves its bytes unchanged."""
    w, V = np.linalg.eigh(a)
    w = np.where(w > 0.0, w, 0.0)
    out = (V * w) @ V.T
    return (out + out.T) / 2.0


def psd_project(M: CovMatrix) -> CovMatrix:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero.

    A Cholesky fast path accepts already-PSD inputs without a full
    eigendecomposition (the dominant cost inside cross-validation loops).
    """
    a = M.values
    return CovMatrix(a if _psd_accepts(a) else _eigen_clip(a), provenance=f"psd<-{M.provenance}")


def _rescale_exponent(X: np.ndarray) -> int:
    """k such that X * 2^-k has its largest |entry| in [1/2, 1), or 0 where that
    entry already lies in [2^-64, 2^64], so in-range data keeps every byte, and
    for 0, inf and NaN. On the rescaled data covariance entries, and CV risks
    summed from their squares, neither overflow nor underflow."""
    # max|X| with no temporary array
    top = max(X.max(initial=0.0), -X.min(initial=0.0))
    return 0 if 2.0**-64 <= top <= 2.0**64 else math.frexp(top)[1]


def _cv_split(n: int) -> int:
    """Rows in the small half of a CV split of n rows, ceil(n/3); both halves
    need two rows for a sample covariance."""
    n1 = -(-n // 3)
    if n1 < 2 or n - n1 < 2:
        raise ValueError(f"n={n} too small to split into {n1} / {n - n1}")
    return n1


def _cv_fold(X: np.ndarray, n1: int, seed, nu: int):
    """Fold nu's halves, S1 on the first n1 rows of its permutation and S2 on
    the rest, and |corr(S1)|; built from the fold's own seed, so every call
    returns the same bytes."""
    perm = seed.child(nu).generator().permutation(X.shape[0])
    S1 = sample_covariance(X[perm[:n1]]).values
    S2 = sample_covariance(X[perm[n1:]]).values
    return S1, S2, _abs_correlation(S1)


def _frobenius(D: np.ndarray) -> float:
    # einsum, unlike the BLAS dot inside np.linalg.norm, sums in the same
    # order for any BLAS thread count
    return math.sqrt(float(np.einsum("ij,ij->", D, D)))


def cv_select_lambda(X: np.ndarray, grid, folds: int, seed) -> tuple[float, list[float]]:
    """Cross-validated correlation-threshold level (Bickel & Levina 2008).

    Each fold splits the rows into ceil(n/3) vs the rest; the risk at lambda
    is the Frobenius distance between the projected thresholded estimate on
    the small split and the plain sample covariance on the large split.
    Returns the first grid point with the least fold-averaged risk (the
    smallest lambda for an ascending grid) and the risk list.

    The keep-masks {|corr| >= lambda} are nested in lambda, so within a fold
    the number of kept off-diagonal entries identifies the mask, and each
    distinct mask is scored once, for any grid order and with repeated grid
    values.  A mask A the Cholesky probe accepts is its own projection, so
    its risk U = ||A - S2|| is exact at once.  A failing mask first gets
    bounds from its eigenvalues alone: with g = ||lambda_-(A)||, its distance
    to the PSD cone, the risk is at least U - g (triangle inequality) and at
    most sqrt(U^2 - g^2) (the projection is firmly non-expansive and S2 is
    PSD).  Only grid points whose summed lower bound does not exceed the
    least summed upper bound could still win, so only their failing masks are
    projected by the eigenvalue clip.

    Risk entries are exact, equal to scoring every grid point apart, where
    every fold's mask for that grid point was scored; the other entries are
    NaN, and their risk is above the minimum (730 of the 2560 entries on the
    64 perfbench seed-0 datasets at 10 folds x 40 points).  Both passes run
    their folds on lpboot's one pool (lpboot.parallel), capped at the usable
    cores; the eigenvalues run with the GIL released.

    Data whose largest |entry| lies outside [2^-64, 2^64] is rescaled by the
    power of two that brings it into [1/2, 1) first, so lambda-hat does not
    depend on the data's units, and the risks are returned in those units
    (inf past the largest float).
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
    n1 = _cv_split(n)
    k = _rescale_exponent(X)
    if k:
        X = np.ldexp(X, -k)

    def bound(nu: int):
        """Fold nu's mask key per grid point, its risk (NaN where the mask fails
        the probe), lower and upper bounds on that risk, and the rounding
        slack of those bounds."""
        S1, S2, corr = _cv_fold(X, n1, seed, nu)
        # U and g are rounded relative to ||A|| + ||S2||, and ||A|| <= ||S1||
        # for every mask: d^2 eps covers the d^2 squares summed in U and, by
        # Weyl's inequality, the backward error of dsyevd's eigenvalues in g
        d = S1.shape[0]
        slack = d * d * np.finfo(float).eps * (_frobenius(S1) + _frobenius(S2))
        off = np.sort(corr[np.triu_indices_from(corr, 1)])
        keys = (off.size - np.searchsorted(off, grid, side="left")).tolist()
        exact, lower, upper = {}, {}, {}
        for lam, key in zip(grid, keys):
            if key in upper:
                continue
            A = _keep_off_diagonal(S1, corr >= lam)
            u = _frobenius(A - S2)
            if _psd_accepts(A):
                exact[key] = lower[key] = upper[key] = u
                continue
            try:
                w = _eigvalsh(A)
            except np.linalg.LinAlgError:  # no eigenvalues, no tighter bounds
                lower[key], upper[key] = 0.0, u
                continue
            neg = w[w < 0.0]
            gap = float(np.einsum("i,i->", neg, neg))  # g^2
            lower[key], upper[key] = u - math.sqrt(gap), math.sqrt(max(u * u - gap, 0.0))
        return (keys, np.array([exact.get(k, math.nan) for k in keys]),
                np.array([lower[k] for k in keys]), np.array([upper[k] for k in keys]), slack)

    bounded = run_indexed(bound, folds, folds)
    fold_risks = [b[1] for b in bounded]
    lower = np.sum([b[2] for b in bounded], axis=0)
    upper = np.sum([b[3] for b in bounded], axis=0)
    # the slack keeps near-ties exact whatever the rounding in the bounds: a
    # relative part for the least upper bound and the folds' absolute parts,
    # which matter where that bound is small next to the matrices; a NaN bound
    # compares False, so its grid point stays live
    live = ~(lower > upper.min() * (1.0 + 1e-9) + math.fsum(b[4] for b in bounded))
    todo = [nu for nu in range(folds) if np.isnan(fold_risks[nu][live]).any()]

    def refine(j: int) -> np.ndarray:
        """Fold todo[j]'s risks with its failing masks in live grid points
        projected, masks shared with other grid points included."""
        nu = todo[j]
        keys, risk = bounded[nu][0], fold_risks[nu]
        S1, S2, corr = _cv_fold(X, n1, seed, nu)
        clipped = {}
        for i in np.flatnonzero(live & np.isnan(risk)):
            if keys[i] not in clipped:
                A = _keep_off_diagonal(S1, corr >= grid[i])
                clipped[keys[i]] = _frobenius(_eigen_clip(A) - S2)
        return np.array([clipped.get(k, r) for k, r in zip(keys, risk.tolist())])

    for nu, risk in zip(todo, run_indexed(refine, len(todo), len(todo))):
        fold_risks[nu] = risk
    # summed in fold order, as a serial loop would, whichever thread ran a fold
    risks = np.zeros(len(grid))
    for risk in fold_risks:
        risks += risk
    risks /= folds
    # every live grid point is exact, and every other has a larger risk
    at = np.flatnonzero(live)
    best = int(at[np.argmin(risks[at])])  # argmin returns the first minimizer
    if k:  # risks are covariance distances, so in the data's units by 2^2k
        with np.errstate(over="ignore"):
            risks = np.ldexp(risks, 2 * k)
    return grid[best], risks.tolist()


def cov_diagnostics(S: CovMatrix) -> CovDiagnostics:
    """Numerical rank, diagonal extremes, and effective rank (trace / op-norm)."""
    w = _eigvalsh(S.values)
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
