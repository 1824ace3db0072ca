"""Dense complex matrix helpers: spectra, the two norms, Hadamard products.

All functions are pure.  Arrays are validated once, by :func:`as_complex_matrix`,
where they enter (``PairXY``, ``PcpDecomposition``, ``cldui``'s dense readers);
the tests, spectra and norms take them as given.  A stack of pairs or columns that
the package builds itself is checked once for the whole stack instead (see the
comparison split in ``construct``).  Spectra and the trace norm come
from LAPACK in real arithmetic whenever the imaginary part is exactly zero, at
about half the cost for n = 100; the rule is :func:`_lapack_operand`.
Everything targets desk-scale dense matrices, n up to ~100.
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
    PcpkitError,
)


NOT_FINITE = "matrix entries must be finite (no NaN or Inf)"


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise PcpkitError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise PcpkitError(NOT_FINITE)
    return arr


def as_complex_vector(a) -> np.ndarray:
    """Coerce ``a`` to a finite 1-D complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 1:
        raise PcpkitError(f"expected a 1-D vector, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise PcpkitError("vector entries must be finite (no NaN or Inf)")
    return arr


def _lapack_operand(A: np.ndarray) -> np.ndarray:
    """A's real part when its imaginary part is exactly zero, else A: what the
    eigenvalue and singular value routines factorize."""
    return A.real if A.dtype.kind == "c" and not np.count_nonzero(A.imag) else A


def require_square(A: np.ndarray) -> np.ndarray:
    A = as_complex_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise NotSquareError(f"matrix must be square, got shape {A.shape}")
    return A


def hermiticity_defect(A: np.ndarray) -> float:
    return float(np.abs(A - A.conj().T).max()) if A.size else 0.0


def is_hermitian(A: np.ndarray) -> bool:
    """True iff A is square with Hermiticity defect within ``STRUCTURE`` of its largest entry."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    amax = float(np.abs(A).max()) if A.size else 0.0
    return hermiticity_defect(A) <= tol.STRUCTURE * tol.scale(amax)


def hermitian_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, real and sorted in decreasing order.

    Raises ``NotHermitianError`` when the Hermiticity defect exceeds the
    entry-scaled tolerance; the spectrum always comes from the dedicated
    Hermitian eigensolver, never from a general one.
    """
    A = require_square(A)
    if not is_hermitian(A):
        raise NotHermitianError(f"matrix is not Hermitian (defect {hermiticity_defect(A):.3e})")
    return np.linalg.eigvalsh(_lapack_operand(A))[::-1]


def psd_spectrum(w: np.ndarray):
    """The PSD judgement of eigenvalues ``w`` (last axis): whether the lowest clears
    ``-tolerances.psd_floor``, and the lowest (inf for an empty spectrum)."""
    lowest = w.min(axis=-1, initial=math.inf)
    return lowest >= -tol.psd_floor(w), lowest


# the largest n for which a successful Cholesky factorization certifies the PSD floor
_CHOLESKY_MAX_N = math.isqrt(int(tol.PSD / (4.0 * np.finfo(float).eps)))


def cholesky_certifies_psd(A: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor L of the Hermitian matrix A when the factorization
    succeeds, which certifies that :func:`is_psd` passes A; None proves nothing.

    The factorization reads A's lower triangle, as ``eigvalsh`` does, in real
    arithmetic when :func:`_lapack_operand` allows.  One that succeeds computes L with
    L L* = A + E and |E| <= gamma_{n+1} |L| |L*|, gamma_k = k u / (1 - k u) for the unit
    round-off u (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 10).  Since || |L| |L*| ||_2 <= ||L||_F^2 <= n ||A + E||_2, the backward error
    is ||E||_2 <= n gamma_{n+1} ||A||_2 / (1 - n gamma_{n+1}), about n^2 u ||A||_2, and
    A = L L* - E has no eigenvalue below -||E||_2.  The PSD floor is
    ``tolerances.PSD`` times the sum of |eigenvalues|, at least ``PSD * ||A||_2``, so
    the floor holds with a margin of 4 for complex round-off whenever
    n^2 eps <= PSD / 4 (n up to about 1000); a larger A is never certified.
    The factor is returned read-only, for every reader of it shares it.
    """
    if A.shape[0] > _CHOLESKY_MAX_N:
        return None
    try:
        L = np.linalg.cholesky(_lapack_operand(A))
    except np.linalg.LinAlgError:
        return None
    L.flags.writeable = False
    return L


def is_psd(A: np.ndarray) -> bool:
    """True iff A is Hermitian (within tolerance) with a spectrum passing :func:`psd_spectrum`.

    This is the spectral judgement, and it always diagonalizes a Hermitian A.
    Condition (a) of ``pairs.check_necessary`` tries :func:`cholesky_certifies_psd`
    first and, when the factorization fails, judges the spectrum of X as this does."""
    if not is_hermitian(A):
        return False
    return bool(psd_spectrum(np.linalg.eigvalsh(_lapack_operand(np.asarray(A))))[0])


def trace_norm(A: np.ndarray) -> float:
    """Sum of singular values.

    Computed by direct SVD: squaring into a Gram matrix first would halve the
    working precision near vanishing singular values, which the norm-gap
    comparisons cannot afford.
    """
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(_lapack_operand(A), compute_uv=False).sum())


def entrywise_one_norm(A: np.ndarray) -> float:
    """Sum of entry magnitudes."""
    return float(np.abs(A).sum())


def hadamard(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entrywise product of two arrays of identical shape."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"shape mismatch {u.shape} vs {v.shape}")
    return u * v


def phase_normalize_columns(M: np.ndarray) -> np.ndarray:
    """Rotate each column by a global phase so its first non-negligible entry is positive real.

    Zero columns are left untouched.  Useful when comparing factorizations that
    are only defined up to a per-column phase.
    """
    M = as_complex_matrix(M).copy()
    for j in range(M.shape[1]):
        col = M[:, j]
        mags = np.abs(col)
        if not mags.any():
            continue
        lead = col[mags > tol.ZERO * mags.max()][0]
        M[:, j] = col * (abs(lead) / lead)
    return M
