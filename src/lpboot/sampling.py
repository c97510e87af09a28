"""Reproducible random streams, scalar distributions, PSD factorization,
multivariate normal sampling, and the Gaussian-copula data generator with
block rank-one covariance.
"""

from __future__ import annotations

import ctypes
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .covariance import (_LAPACK_COL_MAJOR, PSD_CERT_TOL, RANK_TOL, CovMatrix, _frobenius,
                         _integer, _lapacke, _rescale_exponent)
from .lp import _exact_text
from .parallel import hold


@dataclass(frozen=True)
class RngSeed:
    """Hierarchical counter-based random stream: master seed + sub-stream path.

    Distinct paths under one master yield independent streams; identical
    (master, path) reproduce the identical sequence under any schedule.
    """

    master: int
    stream_path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "master", _integer(self.master, "seed", 0))
        object.__setattr__(self, "stream_path",
                           tuple(_integer(i, "stream index", 0) for i in self.stream_path))

    def child(self, *indices: int) -> "RngSeed":
        return RngSeed(self.master, self.stream_path + indices)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master, spawn_key=self.stream_path)
        return np.random.Generator(np.random.Philox(ss))


class MarginalKind(enum.Enum):
    UNIFORM_SYM = "uniform"   # uniform on [-1, 1]
    STUDENT_T4 = "t4"
    STANDARD_NORMAL = "normal"

    @classmethod
    def parse(cls, text: str) -> "MarginalKind":
        t = text.strip().lower()
        aliases = {
            "uniform": cls.UNIFORM_SYM, "uniformsym": cls.UNIFORM_SYM,
            "light": cls.UNIFORM_SYM,
            "t4": cls.STUDENT_T4, "studentt4": cls.STUDENT_T4,
            "heavy": cls.STUDENT_T4,
            "normal": cls.STANDARD_NORMAL, "gaussian": cls.STANDARD_NORMAL,
        }
        if t not in aliases:
            raise ValueError(f"unknown marginal kind {text!r}")
        return aliases[t]


def normal_cdf(z):
    """Standard normal CDF, accurate to well below 1e-12 absolute."""
    return special.ndtr(z)


def marginal_quantile(kind: MarginalKind, u):
    """Quantile function of the marginal at u in (0, 1); vectorized."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    if kind is MarginalKind.UNIFORM_SYM:
        out = 2.0 * u - 1.0
    elif kind is MarginalKind.STUDENT_T4:
        # closed form for 4 degrees of freedom
        a = 4.0 * u * (1.0 - u)
        sqa = np.sqrt(a)
        out = np.sign(u - 0.5) * 2.0 * np.sqrt(np.cos(np.arccos(sqa) / 3.0) / sqa - 1.0)
    elif kind is MarginalKind.STANDARD_NORMAL:
        out = special.ndtri(u)
    else:  # pragma: no cover
        raise ValueError(f"unknown marginal kind {kind!r}")
    return out if out.ndim else float(out)


def _rank_floor(d: int, e: int) -> float:
    """d * 2^-1075 in units of 2^2e: rounding each entry of a stored d x d
    matrix moves it by at most half the subnormals' spacing 2^-1074, so its
    eigenvalues by at most d * 2^-1075 (Weyl). No value below can tell a
    direction from rounding. It exceeds RANK_TOL * max|S| only where
    max|S| < d * 2.5e-314, in the subnormals."""
    return math.ldexp(d, -1075 - 2 * e)


def _pivoted_factor(a: np.ndarray) -> np.ndarray | None:
    """factorize_psd's L by LAPACK dpstrf, or None where the library lacks it,
    the matrix has no positive diagonal entry or the certificate fails."""
    pstrf, d = _lapacke("dpstrf"), a.shape[0]
    e = (_rescale_exponent(a) + 1) // 2  # a * 2^-2e has max|entry| in [1/4, 1), or e = 0
    top = float(np.diag(a).max(initial=0.0))
    if pstrf is None or not top > 0.0:
        return None
    work = np.ldexp(a, -2 * e) if e else a.copy()
    top = math.ldexp(top, -2 * e)
    piv, rank = np.empty(d, dtype=np.int64), ctypes.c_int64()
    # column-major U of the symmetric work is, row-major, the lower triangle U^T
    if pstrf(_LAPACK_COL_MAJOR, b"U", d, work.ctypes.data, max(d, 1), piv.ctypes.data,
             ctypes.byref(rank), max(RANK_TOL * top, _rank_floor(d, e))) < 0:
        return None
    r = rank.value
    work[:r, :r][np.tri(r, k=-1, dtype=bool).T] = 0.0  # the input left above U^T's diagonal
    L = np.empty((d, r))
    L[piv - 1] = work[:, :r]  # L = P U^T[:, :r]
    np.matmul(L, L.T, out=work)  # R = L L^T - S in the work copy's memory
    work -= np.ldexp(a, -2 * e) if e else a
    if _frobenius(work) > PSD_CERT_TOL * top:
        return None
    if e:
        np.ldexp(L, e, out=L)
    return L


def factorize_psd(S: CovMatrix) -> np.ndarray:
    """L (d x r) with L @ L.T = S, r the numerical rank of S; ValueError where
    S is not PSD.

    Pivoted Cholesky (LAPACK dpstrf; Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, s10.3) factors S * 2^-2e, the power of two
    that brings max|S| into [1/4, 1) where it lies outside [2^-64, 2^64],
    and L is scaled back by 2^e, exactly. The rank rule: r counts the
    pivots above tol = max(RANK_TOL * max diag, d * 2^-1075 * 2^-2e)
    (_rank_floor). The certificate: with R = S - L L^T computed from S and
    L, Weyl gives lambda_min(S) >= -||R||_F, so L is accepted only where
    ||R||_F <= PSD_CERT_TOL * max diag, and max diag <= max|lambda|, so
    only where the eigen path below accepts S. Where it fails, or the
    library lacks dpstrf, the eigen path decides: eigh, ValueError where
    the smallest eigenvalue is below -PSD_CERT_TOL * max|lambda|, else
    L = V sqrt(w) over the eigenvalues above max(RANK_TOL * max|lambda|,
    d * 2^-1075). Either way L's columns span S's range, so any L gives
    g @ L.T, g standard normal, the law N(0, S)."""
    a = S.values
    with hold():  # one BLAS thread, so the bytes do not depend on the count
        L = _pivoted_factor(a)
        if L is not None:
            return L
        w, V = np.linalg.eigh(a)
    scale = float(np.abs(w).max(initial=0.0))
    if w.min(initial=0.0) < -PSD_CERT_TOL * scale:
        raise ValueError(f"matrix is not positive semi-definite (min eig {w.min():g})")
    keep = w > max(RANK_TOL * scale, _rank_floor(a.shape[0], 0))
    L = V[:, keep]  # a copy, scaled in place
    L *= np.sqrt(w[keep])
    return L


def mvn_sample(S: CovMatrix, count: int, rng: RngSeed) -> np.ndarray:
    """count i.i.d. rows from N(0, S): g @ L.T, g standard normal and L = S.factor()."""
    count = _integer(count, "count", 1)
    L = S.factor()
    with hold():  # as in factorize_psd
        return rng.generator().standard_normal((count, L.shape[1])) @ L.T


def build_block_covariance(d: int, block: int, decay: float = 0.8,
                           perm_seed: RngSeed | None = None) -> CovMatrix:
    """Block-diagonal rank-one blocks decay^(j+k-2), rows/columns permuted.

    The permutation is drawn once from perm_seed (identity when None);
    rank of the result is d / block.
    """
    d, block = _integer(d, "d", 1), _integer(block, "block", 1)
    if d % block != 0:
        raise ValueError("block size must divide d")
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in (0, 1)")
    v = decay ** np.arange(block)
    lam = np.outer(v, v)
    S = np.zeros((d, d))
    for b in range(d // block):
        sl = slice(b * block, (b + 1) * block)
        S[sl, sl] = lam
    if perm_seed is not None:
        perm = perm_seed.generator().permutation(d)
        S = S[np.ix_(perm, perm)]
    return CovMatrix(S, provenance=f"block({block},{_exact_text(decay)})")


def copula_covariance(S: CovMatrix, kind: MarginalKind) -> CovMatrix:
    """Covariance of the copula-transformed vector X = F^{-1}(Phi(Y / sd(Y))).

    Expands the scalar transform in the orthonormal Hermite basis; by
    Mehler's formula E[h(Z_1)h(Z_2)] = sum_m a_m^2 rho^m for standard
    bivariate normal (Z_1, Z_2) with correlation rho, so the covariance is a
    polynomial in the Hadamard powers of the latent correlation matrix.
    """
    sd = np.sqrt(np.diag(S.values))
    if np.any(sd <= 0.0):
        raise ValueError("latent covariance needs a strictly positive diagonal")
    R = S.values / np.outer(sd, sd)
    np.fill_diagonal(R, 1.0)
    terms = 60  # Hermite terms kept in the expansion
    nodes, weights = np.polynomial.hermite_e.hermegauss(160)
    weights = weights / math.sqrt(2.0 * math.pi)  # N(0,1) expectation weights
    # orthonormal Hermite values at the quadrature nodes
    phi = np.empty((terms, nodes.size))
    phi[0] = 1.0
    phi[1] = nodes
    for m in range(2, terms):
        phi[m] = (nodes * phi[m - 1] - math.sqrt(m - 1) * phi[m - 2]) / math.sqrt(m)
    h = marginal_quantile(kind, np.clip(normal_cdf(nodes), 1e-16, 1.0 - 1e-16))
    coef = (phi @ (weights * h)) ** 2  # a_m^2, shared by every coordinate
    C = np.zeros_like(R)
    Rm = np.ones_like(R)
    for m in range(1, terms):
        Rm = Rm * R
        C += coef[m] * Rm
    # the mean term a_0 cancels in the covariance; CovMatrix symmetrizes C
    return CovMatrix(C, provenance=f"copula({kind.value})<-{S.provenance}")


def copula_sample(S: CovMatrix, kind: MarginalKind, n: int, rng: RngSeed) -> np.ndarray:
    """Gaussian-copula draws: X_ij = F^{-1}(Phi(Y_ij / sd_j)) with Y rows ~ N(0, S).

    Each Y coordinate is divided by its standard deviation first so the
    marginals of X are exactly F; all three marginals have mean zero, so no
    further centering is applied.
    """
    n = _integer(n, "n", 1)
    sd = np.sqrt(np.diag(S.values))
    if np.any(sd <= 0.0):
        raise ValueError("latent covariance needs a strictly positive diagonal")
    U = mvn_sample(S, n, rng)
    U /= sd
    U = normal_cdf(U)  # frees the normals before the quantiles are computed
    np.clip(U, 1e-16, 1.0 - 1e-16, out=U)
    return np.asarray(marginal_quantile(kind, U))
