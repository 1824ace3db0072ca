"""Spectra that stay PPT under every global unitary, and separable witnesses.

For alpha_1 >= ... >= alpha_n > 0, consider the n^2 products
{alpha_k^2} u {alpha_k alpha_l} u {-alpha_k alpha_l} (k < l).  Each strict
ordering of these products that is realizable by some alpha gives one linear
test matrix: a spectrum lambda_1 >= ... >= lambda_{n^2} >= 0 is absolutely PPT
iff the test matrix of every realizable ordering is positive semidefinite
(Hildebrand, "Positive partial transpose from spectra", PRA 76, 052325, 2007).

The realizable orderings are fixed data.  With x = log alpha, an ordering is
an order of the n(n+1)/2 linear forms x_k + x_l (k <= l): the square and plus
products follow that order, and the minus products follow in reverse order of
the plus products.  ``scripts/ordering_tables.py`` enumerates these orders
exactly (depth-first search pruned by a feasibility LP) and stores each one,
with a log-space witness, in ``ordering_data``; ``enumerate_orderings`` only
decodes them.  A slot is one of

    ("square", k)      the product alpha_k^2
    ("plus", k, l)     the product alpha_k alpha_l        (k < l, 0-based)
    ("minus", k, l)    the product -alpha_k alpha_l

and an ordering is the tuple of slots from largest to smallest product.  The
test matrix reads the spectrum backwards into the slots: the smallest
eigenvalues land on the largest products.

Each ordering also determines one distinguished eigenbasis (columns indexed by
eigenvalue rank, built from e_k (x) e_k and the symmetric/antisymmetric pair
combinations).  For a spectrum passing an ordering's test, diagonalizing in
that basis and partially transposing lands inside the invariant family of
``cldui`` with non-positive off-diagonal X, where the comparison split of
``construct`` produces an explicit separability certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import ordering_data
from . import tolerances as tol
from .construct import ConstructorOutcome, comparison_split
from .pairs import PairXY
from .errors import (
    ConstructionError,
    DimensionMismatchError,
    InvalidOrderingError,
    NotSortedError,
    PcpkitError,
    UnsupportedDimensionError,
)

Slot = tuple
_TAG_RANK = {"square": 0, "plus": 1, "minus": 2}


@dataclass(frozen=True)
class OrderingTable:
    """One realizable product ordering, with an alpha vector witnessing it."""

    n: int
    slots: tuple[Slot, ...]
    witness: np.ndarray

    def __post_init__(self):
        if len(self.slots) != self.n * self.n:
            raise InvalidOrderingError(
                f"ordering for n = {self.n} needs {self.n * self.n} slots, got {len(self.slots)}"
            )
        object.__setattr__(self, "witness", np.asarray(self.witness, dtype=float))

    def sort_key(self) -> tuple:
        return tuple((_TAG_RANK[s[0]],) + tuple(s[1:]) for s in self.slots)

    @cached_property
    def positions(self) -> np.ndarray:
        """Position in ``slots`` of each slot: squares, then plus pairs, then minus pairs."""
        pos = _slot_positions(self)
        return np.array([pos[s] for s in _slot_list(self.n)])


def _slot_list(n: int) -> list[Slot]:
    slots = [("square", k) for k in range(n)]
    slots += [("plus", k, l) for k in range(n) for l in range(k + 1, n)]
    slots += [("minus", k, l) for k in range(n) for l in range(k + 1, n)]
    return slots


def decode_ordering(n: int, code: str, log_witness) -> OrderingTable:
    """The ordering whose square and plus products follow the forms listed in ``code``.

    ``code`` holds one base-36 digit per form x_k + x_l, indexing the row-major
    list of pairs k <= l, from largest to smallest; ``log_witness`` is an x
    realizing that order, so the witness is exp(x).
    """
    forms = [(k, l) for k in range(n) for l in range(k, n)]
    positive = [("square", k) if k == l else ("plus", k, l)
                for k, l in (forms[int(c, 36)] for c in code)]
    minus = [("minus",) + s[1:] for s in reversed(positive) if s[0] == "plus"]
    return OrderingTable(n, tuple(positive + minus), np.exp(log_witness))


def enumerate_orderings(n: int) -> list[OrderingTable]:
    """Every realizable product ordering for local dimension n (2 <= n <= 5).

    Decoded from the stored exact tables (1, 2, 10 and 114 orderings for
    n = 2..5), listed canonically: squares before plus before minus, then by
    indices.
    """
    if n not in ordering_data.TABLES:
        raise UnsupportedDimensionError(f"ordering tables are stored for 2 <= n <= 5, got {n}")
    tables = []
    for line in ordering_data.TABLES[n].strip().splitlines():
        code, *x = line.split()
        tables.append(decode_ordering(n, code, [float(v) for v in x]))
    return tables


def _slot_positions(ordering: OrderingTable) -> dict[Slot, int]:
    positions = {slot: m for m, slot in enumerate(ordering.slots)}
    if len(positions) != len(ordering.slots):
        raise InvalidOrderingError("ordering contains repeated slots")
    return positions


def _check_spectrum(lambdas, size: int) -> np.ndarray:
    """The spectrum, which must be sorted and non-negative up to ``tolerances.ZERO``
    times its largest entry, as a float array with round-off negatives clamped to zero."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size != size:
        raise DimensionMismatchError(f"spectrum must have length {size}, got shape {lam.shape}")
    if not np.isfinite(lam).all():
        raise PcpkitError("spectrum entries must be finite")
    scale = tol.scale(float(np.abs(lam).max()))
    if np.any(lam[:-1] - lam[1:] < -tol.ZERO * scale):
        raise NotSortedError("spectrum must be sorted in non-increasing order")
    if lam.min() < -tol.ZERO * scale:
        raise PcpkitError(f"spectrum has a negative entry ({lam.min():.3e})")
    return np.clip(lam, 0.0, None)


def _test_matrices(n: int, orderings, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacked test matrices of ``orderings`` for a sorted spectrum, and the
    slot values they are built from: one row per ordering, the n squares, then
    the plus pairs, then the minus pairs (row-major k < l)."""
    if any(t.n != n for t in orderings):
        raise DimensionMismatchError(f"every ordering must be for n = {n}")
    p = n * (n - 1) // 2
    mu = lam[::-1]                       # mu[m] = lambda_{n^2 - m}, 0-based
    vals = mu[np.array([t.positions for t in orderings], dtype=int).reshape(-1, n * n)]
    d = np.arange(n)
    k, l = np.triu_indices(n, 1)
    Z = np.zeros((vals.shape[0], n, n))
    Z[:, d, d] = 2.0 * vals[:, :n]
    Z[:, k, l] = Z[:, l, k] = vals[:, n:n + p] - vals[:, n + p:]
    return Z, vals


def l_map_matrix(ordering: OrderingTable, lambdas) -> np.ndarray:
    """The n x n test matrix of one ordering for a sorted, non-negative spectrum.

    The reversed spectrum is laid into the slots (slot m takes the m-th
    smallest eigenvalue); the matrix has 2*value on the diagonal squares and
    plus-value minus minus-value on the off-diagonal positions.
    """
    n = ordering.n
    lam = _check_spectrum(lambdas, n * n)
    pos = _slot_positions(ordering)
    mu = lam[::-1]                       # mu[m] = lambda_{n^2 - m}, 0-based
    Z = np.zeros((n, n))
    for k in range(n):
        Z[k, k] = 2.0 * mu[pos[("square", k)]]
        for l in range(k + 1, n):
            val = mu[pos[("plus", k, l)]] - mu[pos[("minus", k, l)]]
            Z[k, l] = Z[l, k] = val
    return Z


def ordering_min_eigenvalues(n: int, lambdas, *,
                             orderings: list[OrderingTable] | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of every ordering's test matrix, and which matrices pass.

    All test matrices are built by one gather and diagonalized by one batched
    ``eigvalsh`` call.  Each matrix is judged exactly as ``linalg.is_psd``
    judges it: in real arithmetic, as the matrix is real, passing when its
    smallest eigenvalue clears ``-tolerances.psd_floor``.  Entries of the
    spectrum may dip below zero by ``tolerances.ZERO`` times the largest entry
    and are clamped; it is sorted internally.
    """
    if orderings is None:
        orderings = enumerate_orderings(n)
    lam = _check_spectrum(-np.sort(-np.atleast_1d(np.asarray(lambdas, dtype=float))), n * n)
    w = np.linalg.eigvalsh(_test_matrices(n, orderings, lam)[0])
    return w[:, 0], w[:, 0] >= -tol.psd_floor(w)


def abs_ppt_check(n: int, lambdas, *,
                  orderings: list[OrderingTable] | None = None) -> tuple[bool, int | None]:
    """Decide whether a spectrum stays PPT under every global unitary.

    Returns ``(True, None)`` when the test matrix of every realizable ordering
    is positive semidefinite, else ``(False, index_of_first_failure)`` in the
    canonical listing order.  Entries may dip below zero by
    ``tolerances.ZERO`` times the largest entry and are clamped; the spectrum
    is sorted internally.
    """
    _, passing = ordering_min_eigenvalues(n, lambdas, orderings=orderings)
    failing = np.flatnonzero(~passing)
    return (False, int(failing[0])) if failing.size else (True, None)


def special_unitary(ordering: OrderingTable) -> np.ndarray:
    """The distinguished real orthogonal eigenbasis attached to one ordering.

    Column m (holding the (m+1)-th largest eigenvalue) corresponds to the slot
    with the (m+1)-th smallest product: squares map to e_k (x) e_k, plus and
    minus slots to the normalized symmetric and antisymmetric combinations of
    e_k (x) e_l and e_l (x) e_k.  Every column's first non-zero entry is
    positive.
    """
    n = ordering.n
    nn = n * n
    pos = _slot_positions(ordering)
    U = np.zeros((nn, nn))
    for slot, m in pos.items():
        col = nn - 1 - m                 # slot with m-th smallest product holds rank col
        tag = slot[0]
        if tag == "square":
            k = slot[1]
            U[k * n + k, col] = 1.0
        else:
            k, l = slot[1], slot[2]
            U[k * n + l, col] = 1.0 / np.sqrt(2.0)
            U[l * n + k, col] = (1.0 if tag == "plus" else -1.0) / np.sqrt(2.0)
    if not np.allclose(U.T @ U, np.eye(nn), atol=tol.ZERO):
        raise ConstructionError("distinguished basis is not orthonormal")
    return U


def certify_special_separable(ordering: OrderingTable, lambdas) -> ConstructorOutcome:
    """Build a separability certificate for a spectrum passing one ordering's test.

    The spectrum diagonalized in the ordering's distinguished basis and
    partially transposed is the invariant state of the pair read from the slot
    values: X = Z / 2 for the test matrix Z, diag Y = diag X, and
    y_kl = y_lk = (plus + minus) / 2.  Conditions (a)-(d) hold by
    construction: (a) is the ordering's test, and (b)-(d) follow from the
    non-negative slot values.  So the comparison split of ``construct`` runs
    without the necessary-condition gate, and its comparison matrix is X
    itself, whose off-diagonal entries are non-positive for a realizable
    ordering.  Returns the split's ``not-applicable`` when that matrix is not
    positive semidefinite; ``info["min_eigenvalue"]`` is then the smallest
    eigenvalue of X = Z / 2, half that of the test matrix.
    """
    n = ordering.n
    lam = _check_spectrum(lambdas, n * n)
    (Z,), (vals,) = _test_matrices(n, [ordering], lam)
    k, l = np.triu_indices(n, 1)
    X = Z / 2.0
    Y = X.copy()
    Y[k, l] = Y[l, k] = (vals[n:n + k.size] + vals[n + k.size:]) / 2.0
    pair = PairXY(X, Y)
    out = comparison_split(pair)
    return replace(out, method="abs-ppt-comparison", info={**out.info, "pair": pair})
