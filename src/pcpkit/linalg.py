"""Dense complex matrix helpers: spectra, the two norms, Hadamard products.

All functions are pure and act on plain numpy arrays, coerced to complex128.
The spectra and the trace norm come from LAPACK in real arithmetic whenever
the matrix's imaginary part is exactly zero, which at n = 100 costs about half
as much as complex arithmetic; the rule is :func:`_lapack_operand`.
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


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise PcpkitError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise PcpkitError("matrix entries must be finite (no NaN or Inf)")
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
    """True iff the Hermiticity defect is within ``tolerances.STRUCTURE`` of the largest entry."""
    A = require_square(A)
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


def psd_test(A: np.ndarray) -> tuple[bool, float, np.ndarray | None]:
    """Whether A is Hermitian (within tolerance) with spectrum >= -``tolerances.psd_floor``,
    its smallest eigenvalue (nan when A is not Hermitian, inf when A is empty),
    and its eigenvalues in ascending order (None when A is not Hermitian)."""
    if not is_hermitian(A):
        return False, math.nan, None
    w = np.linalg.eigvalsh(_lapack_operand(np.asarray(A)))
    lowest = float(w.min()) if w.size else math.inf
    return bool(lowest >= -tol.psd_floor(w)), lowest, w


def is_psd(A: np.ndarray) -> bool:
    """True iff A is positive semidefinite as :func:`psd_test` judges it."""
    return psd_test(A)[0]


def trace_norm(A: np.ndarray) -> float:
    """Sum of singular values.

    Computed by direct SVD: squaring into a Gram matrix first would halve the
    working precision near vanishing singular values, which the norm-gap
    comparisons cannot afford.
    """
    A = as_complex_matrix(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(_lapack_operand(A), compute_uv=False).sum())


def entrywise_one_norm(A: np.ndarray) -> float:
    """Sum of entry magnitudes."""
    A = as_complex_matrix(A)
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
