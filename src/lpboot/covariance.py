"""Covariance estimation with structure exploitation and diagnostics.

Sample covariance (divisor n), hard entry thresholding, correlation
thresholding with cross-validated tuning, banding, projection onto the PSD
cone, and the rank/variance/error quantities the bootstrap accuracy is
phrased in.
"""

from __future__ import annotations

import bisect
import ctypes
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .lp import LpExponent, _exact_text, lp_norm
from .parallel import _openblas_function, hold, run_indexed

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


def _gram(X: np.ndarray) -> np.ndarray:
    """Xc^T Xc / n for the float64 rows X centered by their mean: exactly
    symmetric, since numpy computes the product of a matrix with its own
    transpose by syrk and mirrors the triangle, so CovMatrix's symmetrization
    leaves its bytes as they are. Checks nothing, and pins nothing."""
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc
    S /= X.shape[0]
    return S


def _check_data(X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two observations")
    if not np.all(np.isfinite(X)):
        raise ValueError("data entries must be finite")


def sample_covariance(X: np.ndarray) -> CovMatrix:
    """Sample covariance with divisor n (not n-1); PSD by construction."""
    X = np.asarray(X, dtype=float)
    _check_data(X)
    with hold():  # one BLAS thread, so the bytes do not depend on the count
        S = _gram(X)
    return CovMatrix(S, provenance="naive")


def _keep_off_diagonal(a: np.ndarray, keep: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The float64 array a with the off-diagonal entries where the bool array
    keep is False set to +0.0 and the diagonal kept, written into out (a
    float64 array of a's shape) if given.

    The mask is one product of a's bit patterns, as uint64, by keep: an entry
    keeps its bits times 1 or becomes the bits 0 of +0.0, so every byte
    equals a masked copy's, -0.0, inf and NaN included, and nothing
    branches on an entry.  A masked copy branches on each, and on CV's
    masks, many pairs kept in no pattern, those branches mispredict: at
    d = 200 on one core it takes 8-83 us by density, the product 14-15.  A
    float product a * keep would need a second pass to turn the -0.0 of a
    dropped negative entry into +0.0, which also turns a kept -0.0 into
    +0.0, and would give NaN for a dropped inf."""
    out = np.empty(a.shape) if out is None else out
    np.multiply(a.view(np.uint64), keep, out=out.view(np.uint64))
    np.fill_diagonal(out, np.diag(a))
    return out


def threshold(M: CovMatrix, lam: float) -> CovMatrix:
    """Hard thresholding at level lam >= 0: zero the off-diagonal entries with
    |m_jk| <= lam and keep the diagonal (Rothman, Levina & Zhu 2009), so no
    variance is thresholded to zero."""
    if not lam >= 0.0:  # NaN too
        raise ValueError("threshold level must be nonnegative")
    a = M.values
    return CovMatrix(_keep_off_diagonal(a, np.abs(a) > lam),
                     provenance=f"hard-threshold({_exact_text(lam)})<-{M.provenance}")


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
                     provenance=f"corr-threshold({_exact_text(lam)})<-{M.provenance}")


def _integer(value, name: str, least: int, most: int | None = None) -> int:
    """value as an int, or a ValueError where it is no integer or lies outside
    [least, most]: every count from outside comes here, as 2.5 would run as 2
    but be reported as 2.5, or fail inside numpy once compute has started."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must lie in [{least}, {most}]")
    if value < least:
        raise ValueError(f"{name} must be nonnegative" if least == 0 else
                         f"{name} must be >= {least}")
    return value


def band(M: CovMatrix, ell: int) -> CovMatrix:
    """Zero all entries with |j - k| > ell."""
    ell = _integer(ell, "band width", 0)
    j, k = np.indices(M.values.shape)
    return CovMatrix(_keep_off_diagonal(M.values, np.abs(j - k) <= ell),
                     provenance=f"band({ell})<-{M.provenance}")


_LAPACK_COL_MAJOR = 102
# routine -> (return type, argument types) of its LAPACKE entry point
_LAPACKE = {"ssyevd": (ctypes.c_int64, ctypes.c_int, ctypes.c_char, ctypes.c_char,
                       ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p),
            "dpotrf_work": (ctypes.c_int64, ctypes.c_int, ctypes.c_char, ctypes.c_int64,
                            ctypes.c_void_p, ctypes.c_int64)}


def _lapacke(routine: str):
    """LAPACKE_<routine> of numpy's bundled OpenBLAS, or None where it is
    missing. ctypes serves only the routines numpy has no equal for, and
    releases the GIL while they run: ssyevd (numpy computes a float32 input
    in float64) and dpotrf_work, dpotrf without LAPACKE's scan for NaN
    (np.linalg.cholesky, copying in and out, takes 92 against 70 us at
    d = 200 and 7.4 against 4.3 ms at d = 1000, on one BLAS thread)."""
    return _openblas_function(f"scipy_LAPACKE_{routine}64_", *_LAPACKE[routine])


def _eigvalsh(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Eigenvalues of an exactly symmetric a, ascending, as float64:
    np.linalg.eigvalsh's, except in float32 where the library has ssyevd
    (values only, lower triangle), which takes about 0.7 of dsyevd's time at
    d = 200 on one BLAS thread. It runs on a C-order float32 copy of a scaled
    by the power of two 2^-e (at most 2^1022) that brings its largest |entry|
    into [1/2, 1), since covariance entries reach 2^+-128, past float32's
    range. Read in column-major order that copy is its transpose, equal to
    it as a is symmetric, so LAPACK sees the bytes of the Fortran-order copy,
    which a strided cast writes in about twice the time (13 against 6 us at
    d = 200).
    By Hoffman-Wielandt and the backward error of the Householder reduction
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, s19.3), a
    function of the eigenvalues that is 1-Lipschitz in a in the Frobenius
    norm, such as the distance to the PSD cone, then lies within
    d^2 eps_32 ||a||_F of its exact value; so does float64's. numpy releases
    the GIL too, but two concurrent np.linalg.eigvalsh calls overlap only
    from d of about 500, and ssyevd's at every d; CV takes float64 only above
    d = 512. Raises LinAlgError where LAPACK fails."""
    ssyevd = _lapacke("ssyevd") if dtype == np.float32 else None
    if ssyevd is None:
        return np.linalg.eigvalsh(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("eigenvalues need a square matrix")
    top = max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    e = max(math.frexp(top)[1], -1022)
    work = np.empty((n, n), dtype=np.float32)
    np.multiply(a, 2.0**-e, out=work, casting="same_kind")  # exact before the rounding
    w = np.empty(n, dtype=np.float32)
    if ssyevd(_LAPACK_COL_MAJOR, b"N", b"L", n, work.ctypes.data, max(n, 1), w.ctypes.data):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return np.ldexp(w.astype(float), e)


def _probe_shift(diag: np.ndarray) -> float:
    """The shift the Cholesky probe adds to the diagonal diag: 1e-10 of its
    largest |entry|."""
    return PSD_CERT_TOL * 0.01 * float(np.abs(diag).max(initial=0.0))


def _cholesky_succeeds(work: np.ndarray) -> bool:
    """Whether LAPACK dpotrf factors the square float64 array work, which it
    may overwrite: lower triangle, column-major, so work is in Fortran order
    or symmetric: np.linalg.cholesky's routine on the same bytes, with no
    copy and no exception (_lapacke), and np.linalg.cholesky where it is missing."""
    potrf = _lapacke("dpotrf_work")
    if potrf is None:
        try:
            np.linalg.cholesky(work)
            return True
        except np.linalg.LinAlgError:
            return False
    n = work.shape[0]
    return potrf(_LAPACK_COL_MAJOR, b"L", n, work.ctypes.data, max(n, 1)) == 0


def _psd_accepts(a: np.ndarray) -> bool:
    """Whether a Cholesky factorization of a, shifted by a tiny multiple of its
    largest diagonal entry, succeeds: the probe that accepts a as PSD. It
    calls np.linalg.cholesky, which perfbench's trace counts to report
    psd_project's path; CV's witness rung makes the same decision in place
    with _cholesky_succeeds."""
    diag = np.diag(a)
    shifted = np.array(a, dtype=float)
    # the shift on the diagonal of one copy: the same bytes as a + shift * I
    np.fill_diagonal(shifted, diag + _probe_shift(diag))
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
    with hold():  # as in sample_covariance
        a = M.values if _psd_accepts(M.values) else _eigen_clip(M.values)
    return CovMatrix(a, provenance=f"psd<-{M.provenance}")


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


def _cv_fold(X: np.ndarray, seed, nu: int, second: bool = True):
    """Fold nu's halves, S1 on the first _cv_split(n) of the n rows of its
    permutation and S2 on the rest (None unless `second`), and |corr(S1)|;
    built from the fold's own seed, so every call returns the same bytes.
    Each half is _gram's, the bytes of sample_covariance without its checks
    and its CovMatrix: the caller checks X once."""
    n1 = _cv_split(X.shape[0])
    perm = seed.child(nu).generator().permutation(X.shape[0])
    S1 = _gram(X[perm[:n1]])
    S2 = _gram(X[perm[n1:]]) if second else None
    return S1, S2, _abs_correlation(S1)


def _frobenius(D: np.ndarray) -> float:
    # einsum, unlike the BLAS dot inside np.linalg.norm, sums in the same
    # order for any BLAS thread count
    return math.sqrt(float(np.einsum("ij,ij->", D, D)))


def _witness_gaps(S1: np.ndarray, sq: dict, accepted) -> dict:
    """Upper bounds on the distance to the PSD cone of a fold's thresholded
    masks that fail the Cholesky probe, from PSD matrices the fold already
    has: diag(S1) and the masks in `accepted`.  sq maps each scored mask's key,
    its number of kept off-diagonal pairs, to its squared Frobenius norm;
    returns key -> bound for the keys of sq not in `accepted`.

    The masks are nested, and each keeps the entries of S1 it keeps, so a
    failing mask A lies between the nearest witnesses A_lo and A_hi with
    fewer and more kept pairs (A_lo is diag(S1) where no accepted mask has
    fewer), A - A_lo and A_hi - A have disjoint supports, and with
    x = ||A||^2 - ||A_lo||^2, y = ||A_hi||^2 - ||A||^2 the PSD matrix
    W = (1 - t) A_lo + t A_hi has ||A - W||^2 = (1 - t)^2 x + t^2 y, least at
    xy / (x + y); x itself where no witness lies above A.

    Rounding: each squared norm is a sum of d^2 products of entries of S1,
    within d^2 eps ||S1||^2 of its value whatever the order of the sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, s4.2: any
    order of summing m nonnegative terms is within gamma_{m-1} of their sum,
    and fused multiply-adds only drop the products' rounding), so a blocked
    BLAS ddot is covered as einsum is; x and y are inflated by
    2 d^2 eps ||S1||^2, which also covers the subtraction, and the bound
    increases in both.  A witness the probe accepted is PSD only once
    shifted by the probe's tau and Cholesky's backward error:
    RR^T = W + tau I + E with ||E||_F <= gamma_{d+1} tr(W + tau I) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, Thm 10.3), and
    tr W = tr S1, so every bound adds tau sqrt(d) + gamma_{d+1} (tr S1 + d tau),
    the distance from W to that PSD matrix, for a convex combination too."""
    d = S1.shape[0]
    eps = np.finfo(float).eps
    diag = np.diag(S1)
    tau = _probe_shift(diag)
    gamma = (d + 1) * eps / (1.0 - (d + 1) * eps)
    shift = tau * math.sqrt(d) + gamma * (float(diag.sum()) + d * tau)
    rounding = 2.0 * d * d * eps * float(np.einsum("ij,ij->", S1, S1))
    witness = {0: float(np.einsum("i,i->", diag, diag))}
    witness.update((key, sq[key]) for key in accepted)
    order = sorted(witness)
    gaps = {}
    for key, norm2 in sq.items():
        if key in accepted:
            continue
        j = bisect.bisect_right(order, key)  # order[j - 1] <= key < order[j]
        gap = norm2 - witness[order[j - 1]] + rounding
        if j < len(order):
            y = witness[order[j]] - norm2 + rounding
            gap = gap * y / (gap + y) if gap + y > 0.0 else 0.0
        gaps[key] = math.sqrt(max(gap, 0.0)) + shift
    return gaps


def _masks(S1: np.ndarray, corr: np.ndarray, levels: dict):
    """For each key -> level of levels, yield (key, A), with A the mask
    _keep_off_diagonal(S1, corr >= level): the compare writes one d x d bool
    buffer and the bit-pattern product one d x d float64 buffer, both the
    caller's fold's, so no mask allocates a d x d array (the product's cast
    of the bools goes through numpy's fixed 8192-entry buffer). Every yield
    rebuilds the whole buffer, so a caller may overwrite A."""
    A = np.empty_like(S1)
    keep = np.empty(S1.shape, dtype=bool)
    for key, level in levels.items():
        yield key, _keep_off_diagonal(S1, np.greater_equal(corr, level, out=keep), out=A)


def _witness_rung(S1: np.ndarray, S2: np.ndarray, corr: np.ndarray, levels: dict) -> dict:
    """CV's rung 0 on one fold: each mask A of _masks(S1, corr, levels)
    scored as (risk, lower, upper, U) with U = ||A - S2||_F: exact where the
    Cholesky probe accepts A, [U - g_w, U] with g_w from _witness_gaps
    elsewhere. A - S2 goes into a second d x d buffer, and the probe factors
    the shifted mask in place once U and ||A||^2 are taken: the same
    decision as _psd_accepts. ||A||^2 is BLAS ddot's, on one thread under
    the caller's hold (1.6 against einsum's 10.4 us at d = 200), as only
    _witness_gaps' bounds read it; U stays _frobenius's, as an accepted
    mask reports it as its exact risk."""
    D = np.empty_like(S1)
    diag = np.diag(S1)
    shifted = diag + _probe_shift(diag)
    scored, sq, accepted = {}, {}, set()
    for key, A in _masks(S1, corr, levels):
        np.subtract(A, S2, out=D)
        u = _frobenius(D)
        sq[key] = float(np.vdot(A, A))
        np.fill_diagonal(A, shifted)
        if _cholesky_succeeds(A):  # A is symmetric, as S1 and corr are
            accepted.add(key)
        scored[key] = u, u, u, u
    for key, g in _witness_gaps(S1, sq, accepted).items():
        u = scored[key][3]
        scored[key] = math.nan, u - g, u, u
    return scored


def _eigen_bounds(A: np.ndarray, u: float, dtype) -> tuple[float, float]:
    """(lower, upper) bounds on the risk of a mask A that fails the probe,
    with U = u its distance to S2: [U - g, sqrt(U^2 - g^2)], with g the
    distance of A to the PSD cone, from the eigenvalues of _eigvalsh in
    dtype (triangle inequality; the projection is firmly non-expansive and
    S2 is PSD). A float32 g lies within d^2 eps_32 ||A||_F of the exact g
    and dsyevd's within d^2 eps_64 ||A||_F, so in float32 g is widened to
    [g - delta, g + delta], delta = d^2 (eps_32 + eps_64) ||A||_F, and the
    bounds contain those from dsyevd's g. Where LAPACK fails they are the
    plain [0, U]."""
    try:
        w = _eigvalsh(A, dtype)
    except np.linalg.LinAlgError:
        return 0.0, u
    neg = w[w < 0.0]
    gap = float(np.einsum("i,i->", neg, neg))  # g^2
    g = math.sqrt(gap)
    if dtype == np.float32:  # widen [g, g] to [g - delta, g + delta]
        d = A.shape[0]
        delta = d * d * (np.finfo(np.float32).eps + np.finfo(float).eps) * _frobenius(A)
        gap = max(g - delta, 0.0) ** 2
        g += delta
    return u - g, math.sqrt(max(u * u - gap, 0.0))


def _bound_first(gap: np.ndarray, deficit: np.ndarray, todo: np.ndarray) -> np.ndarray:
    """The entries of todo (folds x grid points) that the selective pass of
    CV's eigenvalue rung bounds: at each grid point, its entries in
    decreasing order of gap up to the shortest prefix whose 3/4 * summed gap
    exceeds the point's deficit, or all of them where none does."""
    first = np.zeros_like(todo)
    for i in np.flatnonzero(todo.any(axis=0)):
        at = np.flatnonzero(todo[:, i])
        at = at[np.argsort(-gap[at, i], kind="stable")]
        k = np.searchsorted(np.cumsum(gap[at, i]) * 0.75, deficit[i], side="right")
        first[at[:k + 1], i] = True
    return first


def cv_select_lambda(X: np.ndarray, grid, folds: int, seed) -> tuple[float, list[float]]:
    """Cross-validated correlation-threshold level (Bickel & Levina 2008).

    Each fold splits the rows into ceil(n/3) vs the rest; the risk at lambda
    is the Frobenius distance between the projected thresholded estimate on
    the small split and the plain sample covariance on the large split.
    Returns the first grid point with the least fold-averaged risk (the
    smallest lambda for an ascending grid) and the risk list.

    The keep-masks {|corr| >= lambda} are nested in lambda, so within a fold
    the number of kept off-diagonal entries identifies the mask, and each
    distinct mask is scored at most once per rung, for any grid order and
    with repeated grid values; every rung builds its masks with _masks.  Each
    pass runs the fold worker over the folds with a mask to score at a live
    grid point, one whose summed lower bound does not exceed the cut, the
    least summed upper bound times 1 + 1e-9 plus the folds' rounding slack,
    so it could still win; liveness is recomputed after each pass.  The
    three rungs, in order:

    - rung 0, the witness rung (_witness_rung), scores every mask: one the
      Cholesky probe accepts is its own projection, so its risk U = ||A - S2||
      is exact, and a failing one gets [U - g_w, U], with g_w at least its
      distance g to the PSD cone (_witness_gaps states why, with rounding);
    - rung 1, the eigenvalue rung, bounds the failing masks at live grid
      points by g (_eigen_bounds), from _eigvalsh in float32 where
      d^2 eps_32 <= 2^-5, that is d <= 512 (above it the widening would reach
      2^-5 ||A||_F and more), in float64 above, and intersects those bounds
      with the ones the mask has, so it never loosens one;
    - rung 2, the clip, makes the failing masks at live grid points exact.

    The eigenvalue rung runs in two passes.  The selective pass
    (_bound_first) takes each live grid point, its deficit, the cut minus
    its summed lower bound, and its failing folds in decreasing order of the
    witness gap U - lower, and bounds only the shortest prefix whose
    3/4 * summed gap exceeds the deficit, or every one where none does.
    Bounded by g, a mask's lower bound rises by g_w - g, at least 3/4 of its
    gap where g_w >= 4g: on the 3423 masks the eigenvalue rung would
    bound at the grid points the witness rung leaves live on the 64
    perfbench seed-0 datasets at 10 folds x 40 points, g_w / g has a 10th
    percentile of 4.9 and a median of 8.0.  The mop-up pass then bounds
    every failing mask at a grid point still live that the selective pass
    left.

    Every rung's interval contains the mask's exact risk, up to the rounding
    the slack covers, so a pruned grid point has a risk above the minimum,
    and after the clip every live grid point is exact: lambda-hat and every
    exact risk equal those of scoring every grid point apart.  Until the
    mop-up pass every bound is at least as wide as one full pass of the
    eigenvalue rung would make it, so the grid point with that pass's least
    summed upper bound stays live, and after it every live grid point has
    that pass's bounds: the live set before the clip, and so every NaN
    position, does not depend on what the selective pass bounds.

    A risk entry is exact, equal to scoring every grid point apart, where
    some rung scored every fold's mask for that grid point exactly; the other
    entries are NaN, and their risk is above the minimum (730 of the 2560
    entries on the 64 perfbench seed-0 datasets at 10 folds x 40 points).
    Each pass runs its folds on lpboot's one pool (lpboot.parallel), capped
    at the usable cores; the probe and the eigenvalues run with the GIL
    released. Every fold writes only its own entries and the risks are summed
    in fold order, so neither the pool nor the order the folds run in changes
    a byte.

    Data whose largest |entry| lies outside [2^-64, 2^64] is rescaled by the
    power of two that brings it into [1/2, 1) first, so lambda-hat does not
    depend on the data's units, and the risks are returned in those units
    (inf past the largest float).
    """
    X = np.asarray(X, dtype=float)
    _check_data(X)
    n, d = X.shape
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("empty threshold grid")
    for lam in grid:
        _check_correlation_level(lam)
    folds = _integer(folds, "folds", 1)
    _cv_split(n)  # a ValueError before any fold runs
    k = _rescale_exponent(X)
    if k:
        X = np.ldexp(X, -k)

    # each fold's (risk, lower bound, upper bound) per grid point, and the
    # distance U of the unprojected mask to S2 that rung 0 computes; NaN unscored
    est = np.full((4, folds, len(grid)), math.nan)
    keys, slack = [None] * folds, [0.0] * folds  # each fold's, recorded by rung 0
    last_rung = np.full((folds, len(grid)), -1)  # the rung that last scored each entry
    live = np.ones(len(grid), dtype=bool)
    # rung 1's precision
    dtype = np.float32 if d * d * np.finfo(np.float32).eps <= 2.0**-5 else np.float64
    upper = np.less.outer(np.arange(d), np.arange(d))  # the strict upper triangle

    def score(nu: int, rung: int, points) -> None:
        """Score fold nu's masks at the grid points `points`, and at every grid
        point that shares one of those masks: rung 0 exactly where the probe
        accepts and by witness bounds elsewhere, rung 1 by eigenvalue bounds
        that it intersects with those the mask has, rung 2 (the clip) exactly."""
        # rung 1 takes U from rung 0, so it needs no S2
        S1, S2, corr = _cv_fold(X, seed, nu, rung != 1)
        if rung == 0:
            # U and g are rounded relative to ||A|| + ||S2||, and ||A|| <= ||S1||
            # for every mask: d^2 eps covers the d^2 squares summed in U and, by
            # Weyl's inequality, the backward error of dsyevd's eigenvalues in g
            slack[nu] = d * d * np.finfo(float).eps * (_frobenius(S1) + _frobenius(S2))
            off = np.sort(corr[upper])
            keys[nu] = (off.size - np.searchsorted(off, grid, side="left")).tolist()
        masks = {keys[nu][i]: i for i in points}
        levels = {key: grid[i] for key, i in masks.items()}
        # mask key -> (risk, lower, upper, U)
        if rung == 0:
            scored = _witness_rung(S1, S2, corr, levels)
        else:
            scored = {}
            for key, A in _masks(S1, corr, levels):
                u = float(est[3, nu, masks[key]])
                if rung == 2:
                    risk = _frobenius(_eigen_clip(A) - S2)
                    scored[key] = risk, risk, risk, u
                else:
                    scored[key] = math.nan, *_eigen_bounds(A, u, dtype), u
        at = [i for i, key in enumerate(keys[nu]) if key in scored]
        new = np.array([scored[keys[nu][i]] for i in at]).T
        if rung == 1:  # never loosen a bound
            new[1] = np.fmax(new[1], est[1, nu, at])
            new[2] = np.fmin(new[2], est[2, nu, at])
        est[:, nu, at] = new
        last_rung[nu, at] = rung

    with hold():  # one BLAS thread for every pass, pooled or serial
        # rung 1 runs twice: the selective pass, then the mop-up pass
        for rung, selective in [(0, False), (1, True), (1, False), (2, False)]:
            todo = live & np.isnan(est[0]) & (last_rung < rung)
            if selective:
                todo = _bound_first(est[3] - est[1], cut - lower, todo)
            todo = [(nu, np.flatnonzero(row)) for nu, row in enumerate(todo) if row.any()]
            run_indexed(lambda j: score(todo[j][0], rung, todo[j][1]), len(todo), len(todo))
            # the slack keeps near-ties exact whatever the rounding in the bounds: a
            # relative part for the least upper bound and the folds' absolute parts,
            # which matter where that bound is small next to the matrices; a NaN
            # bound compares False, so its grid point stays live. After the clip
            # every grid point live before it is exact, so the least upper
            # bound is the least exact risk, and its first minimizer stays live
            lower = est[1].sum(axis=0)
            cut = est[2].sum(axis=0).min() * (1.0 + 1e-9) + math.fsum(slack)
            live = ~(lower > cut)
    # summed in fold order, as a serial loop would, whichever thread ran a fold
    risks = np.zeros(len(grid))
    for risk in est[0]:
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
    with hold():  # as in sample_covariance
        w = _eigvalsh(S.values)
    op = max(float(np.abs(w).max(initial=0.0)), 1e-300)
    rank = int((w > RANK_TOL * op).sum())
    d = np.diag(S.values)
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
    with hold():  # as in sample_covariance
        delta_op = float(np.linalg.norm(diff, 2))
    ps = [p] if isinstance(p, LpExponent) else list(p)
    vec = diff.ravel()
    delta_p = {q: lp_norm(vec, q, d_context=est.dim) for q in ps}
    return CovError(delta_op=delta_op, delta_p=delta_p)
