"""Independent correctness checks, written with plain numpy.

Nothing here calls pcpkit: every certificate is re-multiplied from its
vectors, every entanglement label is re-derived from the generated matrices,
and every failing spectrum is confirmed by an explicit basis in which the
partial transpose has a negative eigenvalue.  A change to pcpkit's own
verification code therefore cannot hide a wrong answer from the benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-8


def pair_residual(V: np.ndarray, W: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """Relative residual of the pair rebuilt from V, W (columns are the terms).

    X = sum_k (v_k . w_k)(v_k . w_k)*,  Y = |V|^2 |W|^2^T, measured in
    Frobenius norm against max(1, ||X||_F, ||Y||_F).
    """
    A = V * W
    rx = np.linalg.norm(A @ A.conj().T - X)
    ry = np.linalg.norm((np.abs(V) ** 2) @ (np.abs(W) ** 2).T - Y)
    scale = max(1.0, float(np.linalg.norm(X)), float(np.linalg.norm(Y)))
    return float(max(rx, ry) / scale)


def certificate_holds(V, W, X, Y) -> bool:
    V = np.asarray(V, dtype=complex)
    W = np.asarray(W, dtype=complex)
    return V.shape == W.shape and V.shape[0] == X.shape[0] and \
        pair_residual(V, W, X, Y) <= RESIDUAL_TOL


def _scalar(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def read_matrix(rows) -> np.ndarray:
    return np.array([[_scalar(v) for v in row] for row in rows], dtype=complex)


def read_pair_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    doc = json.loads(Path(path).read_text())
    return read_matrix(doc["X"]), read_matrix(doc["Y"])


def read_certificate_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The V, W of a certificate file, one column per stored term."""
    doc = json.loads(Path(path).read_text())
    V = np.array([[_scalar(z) for z in v] for v in doc["vs"]], dtype=complex).T
    W = np.array([[_scalar(z) for z in w] for w in doc["ws"]], dtype=complex).T
    return V, W


def condition_d_violated(X: np.ndarray, Y: np.ndarray) -> bool:
    """Some |x_ij|^2 exceeds y_ij y_ji by more than round-off."""
    lhs = np.abs(X) ** 2
    rhs = (Y * Y.T).real
    return bool((lhs - rhs > 1e-9 * max(1.0, float(rhs.max()))).any())


def norm_gap(A: np.ndarray) -> float:
    """Entrywise 1-norm minus trace norm."""
    return float(np.abs(A).sum() - np.linalg.svd(A, compute_uv=False).sum())


def ordering_basis(slots, n: int) -> np.ndarray:
    """Orthogonal basis attached to an ordering of the n^2 products.

    Column c holds the c-th largest eigenvalue and belongs to the slot with
    the c-th smallest product: ("square", k) -> e_k (x) e_k, and ("plus" or
    "minus", k, l) -> (e_k (x) e_l +- e_l (x) e_k) / sqrt 2.
    """
    nn = n * n
    U = np.zeros((nn, nn))
    for m, slot in enumerate(slots):
        col = nn - 1 - m
        if slot[0] == "square":
            U[slot[1] * (n + 1), col] = 1.0
        else:
            k, l = slot[1], slot[2]
            U[k * n + l, col] = 1.0 / np.sqrt(2.0)
            U[l * n + k, col] = (1.0 if slot[0] == "plus" else -1.0) / np.sqrt(2.0)
    return U


def rotated_partial_transpose(U: np.ndarray, lambdas: np.ndarray, n: int) -> np.ndarray:
    rho = (U * lambdas) @ U.T
    return rho.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)


def spectrum_fails_in_basis(U: np.ndarray, lambdas: np.ndarray, n: int) -> bool:
    """The partial transpose of U diag(lambdas) U^T has a negative eigenvalue."""
    w = np.linalg.eigvalsh(rotated_partial_transpose(U, lambdas, n))
    return bool(w.min() < -1e-12)


def rotated_pair(U: np.ndarray, lambdas: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient pair of the partially transposed state in the basis U."""
    sigma = rotated_partial_transpose(U, lambdas, n)
    idx = np.arange(n)
    X = sigma[np.ix_(idx * (n + 1), idx * (n + 1))].astype(complex)
    flat = idx[:, None] * n + idx[None, :]
    Y = sigma[flat, flat].astype(complex)
    return X, Y


def inside_gurvits_barnum_ball(lambdas: np.ndarray) -> bool:
    """Purity at most 1/(d-1): every state with this spectrum is separable."""
    lam = np.asarray(lambdas, dtype=float)
    return float(lam @ lam) <= 1.0 / (lam.size - 1) * (1.0 + 1e-12)
