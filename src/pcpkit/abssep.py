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

import functools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, ordering_data
from . import tolerances as tol
from .construct import (
    ConstructorOutcome,
    _comparison_splits,
    _read_only,
    _Split,
    _split_outcome,
    _upper_pairs,
)
from .pairs import PairXY, _assembled
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
        pos = {slot: m for m, slot in enumerate(self.slots)}
        if len(pos) != len(self.slots):
            raise InvalidOrderingError("ordering contains repeated slots")
        try:
            return _read_only(np.array([pos[s] for s in _slot_list(self.n)]))[0]
        except KeyError as exc:                 # n^2 distinct slots, but not the n^2 named ones
            raise InvalidOrderingError(f"ordering lacks the slot {exc.args[0]}") from None


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
    indices.  The tables are decoded once per n and shared, with read-only
    arrays; each call returns a new list of them.
    """
    if n not in ordering_data.TABLES:
        raise UnsupportedDimensionError(f"ordering tables are stored for 2 <= n <= 5, got {n}")
    return list(_stored(n)[0])


@functools.cache
def _stored(n: int) -> tuple[tuple[OrderingTable, ...], np.ndarray, dict[bytes, int]]:
    """The stored orderings of n, decoded on the first call for n, with their
    ``positions``, one row each in listing order, and each row's index keyed by its
    bytes (no orderings when n has no tables)."""
    tables = []
    for line in ordering_data.TABLES.get(n, "").strip().splitlines():
        code, *x = line.split()
        tables.append(decode_ordering(n, code, [float(v) for v in x]))
        _read_only(tables[-1].witness)
    positions = _read_only(_positions(n, tables))[0]
    return tuple(tables), positions, {row.tobytes(): m for m, row in enumerate(positions)}


def _check_spectrum(lambdas, size: int) -> np.ndarray:
    """The spectrum, which must be sorted and non-negative up to ``tolerances.ZERO``
    times its largest entry and at most :func:`_spectrum_bound`, as a read-only float
    array with round-off negatives clamped to zero."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size != size:
        raise DimensionMismatchError(f"spectrum must have length {size}, got shape {lam.shape}")
    if not np.isfinite(lam).all():
        raise PcpkitError("spectrum entries must be finite")
    scale = tol.scale(float(np.abs(lam).max()))
    # a step between entries of opposite sign may overflow to +-inf, which still compares
    # right: +inf is a sorted step, -inf an unsorted one
    with np.errstate(over="ignore"):
        unsorted = np.any(lam[:-1] - lam[1:] < -tol.ZERO * scale)
    if unsorted:
        raise NotSortedError("spectrum must be sorted in non-increasing order")
    if lam.min() < -tol.ZERO * scale:
        raise PcpkitError(f"spectrum has a negative entry ({lam.min():.3e})")
    if scale > (bound := _spectrum_bound(size)):
        raise PcpkitError(f"spectrum entries above {bound:.3e} would overflow the test matrices")
    return _read_only(np.clip(lam, 0.0, None))[0]


def _spectrum_bound(size: int) -> float:
    """The largest spectrum entry lambda_1 at which every number the test and the
    certificates form stays finite: the largest float over 2 n^2, for n^2 = ``size``.

    A test matrix Z has 2 lambda_i on its diagonal and plus - minus off it, so its row
    sums, and ||Z||_2, are at most (n + 1) lambda_1, and the PSD floor's sum of
    |eigenvalues| at most n (n + 1) lambda_1, which 2 n^2 covers with room for round-off
    (at n = 1 the one eigenvalue is 2 lambda_1, exactly).  The certificates' pairs have
    entries up to lambda_1 (Z / 2, and the slot sums (plus + minus) / 2) and row sums
    up to n lambda_1.  A spectrum under the bound is left as it is."""
    return float(np.finfo(float).max) / (2.0 * size)


class _Spectrum:
    """The record of one spectrum for the stored orderings of n, given as the bytes
    ``data`` of a float array of ``shape``: the checked spectrum ``lam``, the test
    matrices Z with their plus and minus slot values (``slots``), the ``eigenvalues`` of
    every Z and, computed on first use, the certificate ``batch``."""

    def __init__(self, n: int, shape: tuple, data: bytes):
        self.lam = _check_spectrum(np.frombuffer(data).reshape(shape), n * n)
        self.slots = _slot_matrices(n, _stored(n)[1], self.lam)
        self.eigenvalues = np.linalg.eigvalsh(self.slots[0])

    @cached_property
    def batch(self) -> tuple[np.ndarray, np.ndarray, list[_Split]]:
        return _split_batch(*self.slots, self.eigenvalues / 2.0)   # those of X = Z / 2


# the last spectrum's record, keyed by its bytes: an array edited in place is checked afresh
_spectrum_record = functools.lru_cache(maxsize=1)(_Spectrum)


def _slot_matrices(n: int, positions: np.ndarray, lam: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The test matrices Z, one per row of ``positions``, for a sorted spectrum, with the
    plus and minus slot values beside them (row-major k < l).  One gather lays the
    reversed spectrum into the slots: the n squares, then the plus pairs, then the minus
    pairs."""
    k, l = _upper_pairs(n)
    p = k.size
    vals = lam[::-1][positions]          # lam[::-1][m] = lambda_{n^2 - m}, 0-based
    plus, minus = vals[:, n:n + p], vals[:, n + p:]
    d = np.arange(n)
    Z = np.zeros((vals.shape[0], n, n))
    Z[:, d, d] = 2.0 * vals[:, :n]
    Z[:, k, l] = Z[:, l, k] = plus - minus
    return Z, plus, minus


def _positions(n: int, orderings) -> np.ndarray:
    """The ``positions`` of ``orderings``, one row each."""
    if any(t.n != n for t in orderings):
        raise DimensionMismatchError(f"every ordering must be for n = {n}")
    return np.array([t.positions for t in orderings], dtype=int).reshape(-1, n * n)


def l_map_matrix(ordering: OrderingTable, lambdas) -> np.ndarray:
    """The n x n test matrix of one ordering for a sorted, non-negative spectrum.

    The reversed spectrum is laid into the slots (slot m takes the m-th
    smallest eigenvalue); the matrix has 2*value on the diagonal squares and
    plus-value minus minus-value on the off-diagonal positions.
    """
    n = ordering.n
    return _slot_matrices(n, _positions(n, [ordering]), _check_spectrum(lambdas, n * n))[0][0]


def ordering_min_eigenvalues(n: int, lambdas, *,
                             orderings: list[OrderingTable] | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of every ordering's test matrix, and which matrices pass.

    All test matrices are built by one gather and diagonalized by one batched
    ``eigvalsh`` call.  Each matrix is judged exactly as ``linalg.is_psd``
    judges it: in real arithmetic, as the matrix is real, by
    ``linalg.psd_spectrum``.  Entries of the spectrum may dip below zero by
    ``tolerances.ZERO`` times the largest entry and are clamped; it is sorted
    internally.  When ``orderings`` are the stored orderings of n, the same objects
    in their listing order (as :func:`enumerate_orderings` returns them), the
    eigenvalues are those of the spectrum's record, which the certificates of the
    same spectrum share: whichever of the two runs first builds it.
    """
    if orderings is None:
        orderings = enumerate_orderings(n)
    lam = -np.sort(-np.atleast_1d(np.asarray(lambdas, dtype=float)))
    stored = _stored(n)[0]
    if len(orderings) == len(stored) and all(map(operator.is_, orderings, stored)):
        w = _spectrum_record(n, lam.shape, lam.tobytes()).eigenvalues
    else:
        lam = _check_spectrum(lam, n * n)
        w = np.linalg.eigvalsh(_slot_matrices(n, _positions(n, orderings), lam)[0])
    passes, lowest = linalg.psd_spectrum(w)
    return lowest, passes


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
    col = nn - 1 - ordering.positions    # the slot at position m of ``slots`` has rank nn - 1 - m
    k, l = _upper_pairs(n)
    h = 1.0 / np.sqrt(2.0)
    U = np.zeros((nn, nn))
    # ``positions`` lists the squares (k, k), then the plus pairs (k, l), then the minus
    # pairs (k, l), k < l: one scatter per basis vector entry
    U[np.arange(n) * (n + 1), col[:n]] = 1.0                            # e_k (x) e_k
    U[np.tile(k * n + l, 2), col[n:]] = h                               # e_k (x) e_l
    U[np.tile(l * n + k, 2), col[n:]] = np.repeat([h, -h], k.size)      # +-e_l (x) e_k
    if not np.allclose(U.T @ U, np.eye(nn), atol=tol.ZERO):
        raise ConstructionError("distinguished basis is not orthonormal")
    return U


def certify_special_separable(ordering: OrderingTable, lambdas) -> ConstructorOutcome:
    """Build a separability certificate for a spectrum passing one ordering's test.

    The spectrum diagonalized in the ordering's distinguished basis and
    partially transposed is the invariant state of the pair read from the slot
    values (gathered by ``ordering.positions``): X = Z / 2 for the test matrix
    Z, diag Y = diag X, and y_kl = y_lk = (plus + minus) / 2.  Conditions (a)-(d) hold by
    construction: (a) is the ordering's test, and (b)-(d) follow from the
    non-negative slot values.  So the comparison split of ``construct`` runs
    without the necessary-condition gate, and its comparison matrix is X
    itself, whose off-diagonal entries are non-positive for a realizable
    ordering.  Returns the split's ``not-applicable`` when that matrix is not
    positive semidefinite; ``info["min_eigenvalue"]`` is then the smallest
    eigenvalue of X = Z / 2, half that of the test matrix.

    Every ordering of a spectrum is certified at once, from the spectrum's record,
    which whichever of this function and :func:`abs_ppt_check` (over the stored
    orderings) runs first builds.  The first certificate adds the batch to it: the
    pairs of all the stored orderings of n, split as one stack by
    ``construct._comparison_splits`` with half of the record's eigenvalues of the test
    matrices.  Each call copies its own pair and columns into fresh read-only arrays
    and judges its item's residuals at ``tolerances.VERIFY``, so the certificates are
    the same in any call order, and an item that raises does so only for its own
    ordering.  A lone call pays the whole batch.  An ordering
    outside the stored ones (found by its ``positions``) runs as a stack of one.
    """
    n, lam = ordering.n, np.asarray(lambdas, dtype=float)
    m = _stored(n)[2].get(ordering.positions.tobytes())
    if m is None:
        X, Y, splits = _split_batch(*_slot_matrices(n, ordering.positions[None],
                                                    _check_spectrum(lam, n * n)))
        m = 0
    else:
        X, Y, splits = _spectrum_record(n, lam.shape, lam.tobytes()).batch
    pair = _assembled(PairXY, X=X[m], Y=Y[m])
    return _split_outcome(splits[m], "abs-ppt-comparison", {"pair": pair})


def _split_batch(Z: np.ndarray, plus: np.ndarray, minus: np.ndarray, w: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, list[_Split]]:
    """The pairs (X, Y) of the test matrices Z with their plus and minus slot values (as
    :func:`_slot_matrices` returns them), and their verified comparison splits.
    X = Z / 2 exactly, diag Y = diag X, and y_kl = y_lk = (plus + minus) / 2.  ``w`` may
    hold the eigenvalues of each X."""
    X = Z / 2.0
    Y = X.copy()
    k, l = _upper_pairs(Z.shape[-1])
    Y[:, k, l] = Y[:, l, k] = (plus + minus) / 2.0
    return X, Y, _comparison_splits(X, Y, w)
