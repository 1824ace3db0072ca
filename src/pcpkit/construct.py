"""Constructive decomposition routes for matrix pairs.

Each construction is a function returning a :class:`ConstructorOutcome`.  The
general routes and the criteria that refute a pair are written once, in order of
cost, in :data:`ROUTES` and :data:`CRITERIA`: :func:`decompose_auto`,
``cldui.separability_verdict`` and ``pcpkit decompose --method`` read them there.
``decompose_isotropic`` handles the two-parameter family (aI + bJ, bI + aJ) by
mixing closed-form decompositions of the two extreme members.

Each general route is gated on the pair's necessary conditions, which it
reads from ``pair.report``: a pair evaluates (a)-(e) once, however many
routes and criteria read them.

A constructor never raises on an unsuitable pair; it reports why it does not
apply.  Raised errors are reserved for malformed input and for internal
inconsistencies (``ConstructionError``), which indicate a bug rather than an
undecidable pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from . import linalg
from . import tolerances as tol
from .errors import (
    ComparisonNotPsdError,
    ConstructionError,
    PcpkitError,
    WrongDimensionError,
)
from .pairs import (
    PairXY,
    PcpDecomposition,
    Residuals,
    _assembled,
    _finite_items,
    _residual_stack,
    residuals,
)

DECOMPOSED = "decomposed"
NOT_APPLICABLE = "not-applicable"
CONDITIONS_VIOLATED = "conditions-violated"

# the comparison route's decline when the comparison matrix of X fails the PSD floor
_NOT_PSD = "comparison matrix of X is not positive semidefinite"


@dataclass(frozen=True)
class ConstructorOutcome:
    """Result of one construction attempt.

    ``status`` is one of ``decomposed``, ``not-applicable``,
    ``conditions-violated``.  A ``decomposed`` outcome always carries a
    decomposition verified against the input pair at ``tolerances.VERIFY``,
    and in ``residuals`` the :func:`~pcpkit.pairs.residuals` of that one check.
    """

    status: str
    method: str
    decomposition: PcpDecomposition | None = None
    permutation: tuple[int, ...] | None = None
    reason: str | None = None
    info: dict[str, Any] = field(default_factory=dict)
    residuals: Residuals | None = None

    @property
    def ok(self) -> bool:
        return self.status == DECOMPOSED


def _violated(method: str, pair: PairXY, conditions: str) -> ConstructorOutcome | None:
    """The ``conditions-violated`` outcome when one of ``conditions`` fails, else None."""
    report = pair.report
    which = [c for c in report.failing() if c in conditions]
    if not which:
        return None
    return ConstructorOutcome(
        status=CONDITIONS_VIOLATED,
        method=method,
        reason=f"necessary conditions {which} fail",
        info={"report": report},
    )


def _verified(pair: PairXY, method: str, dec: PcpDecomposition,
              **fields) -> ConstructorOutcome | None:
    """The ``decomposed`` outcome of ``dec`` if it verifies against ``pair``, else None."""
    res = residuals(dec, pair)
    if not res.within():
        return None
    return ConstructorOutcome(DECOMPOSED, method, dec, residuals=res, **fields)


def _decomposed(pair: PairXY, method: str, V, W, **extra) -> ConstructorOutcome:
    out = _verified(pair, method, PcpDecomposition(V, W), info=extra)
    if out is None:
        raise ConstructionError(f"{method} construction failed verification")
    return out


def _zero_term(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((n, 1), complex), np.zeros((n, 1), complex)


def _rowwise_passes(X: np.ndarray, Y: np.ndarray, x_max: float, y_max: float, exhaustive: bool,
                    factor: np.ndarray | None = None):
    """The row-by-row elimination under every simultaneous ordering of the
    indices (only the identity unless ``exhaustive``), in lexicographic order.

    Yields ``(order, V, W, None)`` per completed pass, column k holding the k-th
    pivot's term over the original indices, and ``(order, None, None, witness)``
    per failed step: the failing position (1-based, in the ordering's coordinates)
    and what went wrong.  Orderings with a common prefix share its steps, and a
    failed step rules them all out.

    A pass is one recurrence on two sides.  On the X side, column k of A = V . W
    is the Cholesky column of the ordering: a = num / sqrt(num_i), for the
    residual column num of X at the k-th pivot i, so the terms' X part is A A*.
    On the Y side, column k of R is the pivot's radicand row, the residual of
    row i of Y, y_i - sum_t (|a_i^t|^2 / R[i, t]) R[:, t] over the earlier
    terms t: one product per step, with column t of C holding the coefficients
    |a^t|^2 / R[:, t] (0 where a term does not reach).  V and W are formed once
    per completed pass: w = sqrt(R[:, k] / d_k) and v = a / w (0 where w is), d_k
    being the pivot's own radicand, so |v_i|^2 |w_j|^2 = C[i, k] R[j, k].
    With ``factor``, the lower Cholesky factor of X, an identity pass reads its
    columns instead of forming them, as long as every radicand so far is positive
    and no pivot vanishes; from the first step that is not, it forms its columns
    per step from those before.  The search forms every column per step.

    A step that fails with a negative radicand also ends the node it was tried at:
    none of the pivots still untried there is stepped.  At a prefix P the radicands
    of row i are y_ij - sum_t |v_i^t|^2 |w_j^t|^2 over P's terms t, and every further
    pivot only subtracts more non-negative terms, so one below -ZERO y_max stays
    below it (up to the sums' round-off) in every ordering that starts with P,
    which fails when it reaches i.
    Once a step has failed, the search also looks ahead.  A step that succeeds and
    leaves two or more indices forms the radicand rows of all of them at its new
    node, with one product; if one is below -ZERO y_max, the node and its subtree are
    dropped, since every ordering below it fails when it reaches that row.  The
    dropped node is yielded as one failed item: a negative radicand of its lowest
    such index, taken as the node's next pivot, with that row formed as its own step
    would form it.  The look-ahead starts only after the first failure, so a search
    whose first ordering completes pays nothing for it.
    The pruned orderings hold no completed pass, so the completed passes and the
    first failure are those of the unpruned search.  An identity pass tries one
    pivot per node and stops at its first failure, so neither rule skips anything
    there.

    Each threshold reads one matrix's largest entry (``x_max``, ``y_max``): a radicand,
    a residual of row i of Y, against Y; a residual column of X and the pivot, the
    residual of x_ii = y_ii read as radicand and as numerator, against X.  Only a
    radicand of exactly zero after the round-off clamp makes a zero denominator.

    A step is whole-vector array code: the indices not yet pivoted are a boolean
    mask, and no Python loop visits them.  The products with earlier terms are
    ``R[:, :k] @ C[i, :k]`` (real) and ``A[:, :k] @ A[i, :k].conj()`` (complex), and a
    search agrees bitwise with a pass on the permuted pair only where such a product
    rounds each entry the same wherever its row sits.  That is not promised by BLAS:
    with OpenBLAS 0.3.31 (Haswell kernel, one thread) the real product under a row
    permutation kept its bits for n = 2..8 and for n a multiple of 4, but not at
    n = 9, 10, 11, 13, ... (2 of 720 entries differed at n = 9, 285 of 8700 at n = 30,
    over 10 random products per k); the complex product showed no difference.  The
    agreement is relied on only for n <= 8, where the search runs.  A factor-seeded
    pass agrees with the per-step pass in its items, not in its bits.
    """
    n = X.shape[0]
    Yr = Y.real
    seeded = factor is not None and not exhaustive
    A = np.array(factor, complex) if seeded else np.zeros((n, n), complex)
    square = np.square(np.abs(A)) if seeded else None     # |a|^2 of the factor's columns
    R, C = np.zeros((n, n)), np.zeros((n, n))
    d = np.ones(n)                              # each pivot's own radicand, positive
    y_zero, y_res = tol.ZERO * y_max, tol.RESIDUAL * y_max
    x_zero, x_res = tol.ZERO * x_max, tol.RESIDUAL * x_max
    order: list[int] = []
    unpivoted = np.ones(n, bool)                # every index not in ``order``

    def fail(k: int, m: int, radicand: float, reason: str) -> dict[str, Any]:
        return {"position": (k + 1, m + 1), "radicand": float(radicand), "reason": reason}

    def step(k: int, i: int, rest: list[int]) -> dict[str, Any] | None:
        """Eliminate index i as the k-th pivot, ahead of ``rest``; a witness on failure.

        ``unpivoted`` masks i and ``rest``.  ``rest`` is ascending, so the first
        of its indices to fail is the lowest failing one in the mask.  A step
        that succeeds writes its columns whole, since columns >= k may hold an
        earlier ordering's steps.
        """
        nonlocal seeded
        rad = Yr[i] - R[:, :k] @ C[i, :k]              # y_{i,j} - sum_t C[i,t] R[j,t] over j
        lowest = np.minimum.reduce(rad)
        if lowest < -y_zero:
            ranked = rad[order + [i] + rest]
            m = int(ranked.argmin())
            return fail(k, m, ranked[m], "negative radicand")
        seeded = seeded and lowest > 0.0 and min(rad[i], square[k, k]) > x_zero
        if seeded:
            R[:, k], d[k] = rad, rad[i]
            np.divide(square[:, k], rad, out=C[:, k])
            return None
        if lowest < 0.0:                                # round-off below zero
            np.maximum(rad, 0.0, out=rad)
        num = X[:, i] - A[:, :k] @ A[i, :k].conj()      # x_{j,i} - c_{j,i} over j
        pivot = num[i].real
        if min(rad[i], pivot) <= x_zero:
            # Row i already exhausted: admissible only if nothing is left of it.
            if rad.max() <= y_res and np.abs(num[unpivoted]).max() <= x_res:
                A[:, k] = R[:, k] = C[:, k] = 0.0
                return None
            return fail(k, k, rad[i], "vanishing pivot with unexhausted row")
        live = unpivoted
        if lowest <= 0.0:                               # some radicand may be exactly zero
            zero = rad == 0.0                           # never i's: it exceeds x_zero
            live = unpivoted & ~zero
            bad = np.flatnonzero(unpivoted & zero & (np.abs(num) > x_res))
            if bad.size:
                j = int(bad[0])
                return fail(k, k + 1 + rest.index(j), rad[j],
                            "zero denominator under a non-zero residual")
        a = np.multiply(num, 1.0 / math.sqrt(pivot), out=np.zeros(n, complex), where=live)
        A[:, k], R[:, k], d[k] = a, rad, rad[i]
        C[:, k] = np.divide(np.square(np.abs(a)), rad, out=np.zeros(n), where=live)
        return None

    def negative_row(rest: list[int]) -> tuple | None:
        """The failed item of the lowest index of ``rest`` whose radicand row at the node
        ``order`` is already negative, or None.  One product forms every row; the
        reported row is formed again as its own step would form it."""
        k = len(order)
        bad = np.minimum.reduce(Yr - C[:, :k] @ R[:, :k].T, axis=1) < -y_zero
        bad &= unpivoted
        if not bad.any():
            return None
        r = int(bad.argmax())
        ordering = order + [r] + [j for j in rest if j != r]
        ranked = (Yr[r] - R[:, :k] @ C[r, :k])[ordering]
        m = int(ranked.argmin())
        return tuple(ordering), None, None, fail(k, m, ranked[m], "negative radicand")

    stack = [(list(range(n)), list(range(n)) if exhaustive else [0])]   # (unpivoted, untried)
    backtracked = False
    while stack:
        left, untried = stack[-1]
        if not untried:
            stack.pop()
            if order:
                unpivoted[order.pop()] = True
            continue
        i = untried.pop(0)
        p = left.index(i)
        rest = left[:p] + left[p + 1:]
        witness = step(len(order), i, rest)
        if witness is not None:
            backtracked = True
            if witness["reason"] == "negative radicand":
                untried.clear()                 # every ordering extending ``order`` fails at i
            yield tuple(order + [i] + rest), None, None, witness
        elif not rest:
            W = np.sqrt(R / d)                  # 0, as is V, in an exhausted pivot's column
            yield tuple(order + [i]), np.divide(A, W, out=np.zeros_like(A), where=W > 0.0), W, None
        else:
            order.append(i)
            unpivoted[i] = False
            stack.append((rest, rest[:] if exhaustive else rest[:1]))
            if backtracked and len(rest) > 1 and (dropped := negative_row(rest)):
                stack[-1][1].clear()            # every ordering extending ``order`` fails
                yield dropped


def decompose_recursive(pair: PairXY, search_permutations: bool = False) -> ConstructorOutcome:
    """Row-by-row elimination with upper-triangular v-vectors.

    A pass is a Cholesky factorization of X (the terms' X part, A = V . W) run
    beside one recurrence on the residual rows of Y, which fixes how each column
    of A splits into v and w (see :func:`_rowwise_passes`).  An identity pass
    reads A from the Cholesky factor that settled condition (a), kept by the
    pair's report, in both orientations; a singular X has none, and its pass
    forms each column per step, as the search does.

    The elimination can fail on a decomposable pair for ordering reasons
    alone, so with ``search_permutations`` the same pass is retried on
    (PXP*, PYP*) for every simultaneous permutation P (lexicographic order,
    identity first, first success wins).  The search is exhaustive only for
    n <= 8; beyond that only the identity is attempted.  A negative radicand of
    row i at a prefix stays negative under every extension of that prefix (each
    pivot only subtracts non-negative terms), so such a failure prunes all the
    orderings that share the prefix.  After the first failed step, the search
    also tests each prefix it then extends to a node with two or more indices
    left: if the radicand row of one of them is already negative there, the node
    is dropped with every ordering below it.  Neither rule drops an ordering that
    would complete, so the first success and the first failure are unchanged.
    When every pass fails, the search runs on (X, Y^T), whose decomposition
    (V, W) is (W, V) for (X, Y); ``info["transposed"]`` records which orientation
    succeeded.  Both orientations share the largest entries of X and Y that the
    thresholds read.  ``info["attempts"]`` counts the failed steps reached, the
    dropped nodes and the completed passes, over both orientations.
    """
    method = "recursive"
    if violated := _violated(method, pair, "abcd"):
        return violated

    n = pair.n
    capped = search_permutations and n > 8
    x_max, y_max = (tol.scale(float(np.abs(M).max())) for M in (pair.X, pair.Y))
    first_witness = None
    attempts = 0
    for transposed in (False, True):
        Y = pair.Y.T if transposed else pair.Y
        for perm, V, W, witness in _rowwise_passes(pair.X, Y, x_max, y_max,
                                                   search_permutations and not capped,
                                                   pair.report._factor):
            attempts += 1
            if witness is not None:
                first_witness = first_witness or witness
                continue
            if transposed:
                V, W = W, V
            # exhausted rows leave dead all-zero terms; drop them
            live = (np.abs(V).max(axis=0) > 0.0) & (np.abs(W).max(axis=0) > 0.0)
            V, W = (V[:, live], W[:, live]) if live.any() else _zero_term(n)
            out = _verified(pair, method, PcpDecomposition(V, W), permutation=tuple(perm),
                            info={"attempts": attempts, "transposed": transposed})
            if out is not None:
                return out
            first_witness = first_witness or {"reason": "completed pass failed verification"}

    info: dict[str, Any] = {"attempts": attempts, "witness": first_witness}
    if capped:
        info["note"] = "permutation search is exhaustive only for n <= 8; tried identity only"
    return ConstructorOutcome(
        status=NOT_APPLICABLE,
        method=method,
        reason="row-by-row elimination failed for every ordering tried",
        info=info,
    )


def comparison_matrix(A: np.ndarray) -> np.ndarray:
    """Entrywise comparison matrix, real: keep |diagonal|, negate all off-diagonal magnitudes.
    A stack of matrices (the last two axes) gives the stack of their comparison matrices."""
    return np.abs(A) * _comparison_signs(np.shape(A)[-1])


@functools.cache
def _comparison_signs(n: int) -> np.ndarray:
    """The n x n matrix of +1 on the diagonal and -1 off it."""
    return _read_only(2.0 * np.eye(n) - 1.0)[0]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, made read-only: the cached values that every caller shares."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, the index pairs k < l in row-major order, kept per n."""
    return _read_only(*np.triu_indices(n, 1))


def _graph_components(adjacency: np.ndarray) -> list[np.ndarray]:
    """The vertex sets of the connected components of a symmetric adjacency matrix, by
    squaring reachability until it stops growing (one product for a complete graph)."""
    n = adjacency.shape[0]
    reach = adjacency | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):      # until 2^k edges cover the longest path, n - 1
        f = reach.astype(float)
        grown = (f @ f) > 0.0
        if np.array_equal(grown, reach):
            break
        reach = grown
    # label each vertex by the lowest-numbered vertex it reaches
    first = np.where(reach, np.arange(n), n).min(axis=1, initial=n)
    return [np.flatnonzero(first == f) for f in np.unique(first)]


def _perron_vector(M: np.ndarray) -> np.ndarray:
    """Positive eigenvectors, largest entry 1, for the lowest eigenvalues of a stack of real
    symmetric M whose off-diagonal entries are non-positive with connected support: the
    Perron vector of the non-negative alpha I - M, read off M itself.  One ``eigh`` serves
    the stack; only an item whose lowest eigenvalue is near-degenerate runs a second."""
    v = np.linalg.eigh(M)[1][..., 0]
    v = np.where(v[:, :1] > 0.0, v, -v)
    top = v.max(axis=1)
    simple = v.min(axis=1) > tol.ZERO * top
    for b in (~simple).nonzero()[0]:
        # A near-degenerate lowest eigenvalue gets a second try: subtracting a
        # small multiple of J restores a simple Perron pair.
        shift = tol.PERTURBATION * tol.scale(float(np.abs(M[b]).max()))
        v[b] = np.abs(np.linalg.eigh(M[b] - shift)[1][:, 0])
        top[b] = v[b].max()
    return v / top[:, None]


def _perron_scalings(X: np.ndarray, w: np.ndarray | None = None) -> tuple:
    """:func:`perron_scaling` of each item of a real or complex stack X (B, n, n): per item
    the error that ``perron_scaling`` raises for it, or None, and, unless every item fails
    (then None each), the scalings d (B, n), dd = d d^T, the rescaled dd * X and its
    magnitudes.  ``w`` may hold the eigenvalues of every X (ascending, one row per item);
    they stand for those of the comparison matrices only when the stack is its own
    comparison matrix bit for bit, which a +0 off a diagonal is not."""
    M = comparison_matrix(X)
    if w is None or M.tobytes() != X.tobytes():
        w = np.linalg.eigvalsh(M)
    psd, lowest = linalg.psd_spectrum(w)
    passing = psd.tolist()
    errors: list[PcpkitError | None] = [
        None if ok else ComparisonNotPsdError("comparison matrix is not positive semidefinite", low)
        for ok, low in zip(passing, lowest.tolist())]
    if not any(passing):
        return errors, None, None, None, None
    n = X.shape[-1]
    support = M < 0.0                           # the off-diagonal support of X
    complete = psd & (support.sum(axis=(1, 2)) == n * (n - 1))
    d = np.ones(X.shape[:-1])
    full = complete.nonzero()[0]
    if full.size:
        d[full] = _perron_vector(M[full])
    for b in (psd ^ complete).nonzero()[0]:     # passing, with an incomplete support
        for comp in _graph_components(support[b]):
            if comp.size > 1:
                d[b, comp] = _perron_vector(M[b][np.ix_(comp, comp)][None])[0]
    dd = d[:, :, None] * d[:, None, :]
    Xs = dd * X
    scaled = np.abs(Xs)
    slack = tol.RESIDUAL * tol.scales(scaled.max(axis=(1, 2)))
    # each row's shortfall from dominance; the split reuses dd * X and its magnitudes
    short = scaled.sum(axis=2) - 2.0 * scaled.diagonal(0, 1, 2) - slack[:, None]
    for b in (psd & (short > 0.0).any(axis=1)).nonzero()[0]:
        # M d = lowest d leaves row i short by -lowest d_i^2: M passed only within its floor
        if np.all(short[b] <= -lowest[b] * d[b] * d[b]):
            errors[b] = ComparisonNotPsdError("comparison matrix too far below PSD",
                                              float(lowest[b]))
        else:
            errors[b] = ConstructionError("Perron rescaling did not reach diagonal dominance")
    return errors, d, dd, Xs, scaled


def perron_scaling(X: np.ndarray) -> np.ndarray:
    """Positive diagonal d such that diag(d) X diag(d) is diagonally dominant.

    X must be Hermitian, so its comparison matrix M (real) is symmetric; one ``eigvalsh``
    of M must pass ``linalg.psd_spectrum``, and a decline costs just that.  Then d is M's
    lowest eigenvector: from one ``eigh`` of M when every off-diagonal entry of X is
    non-zero (a connected support), else per connected component of the support graph.
    X runs as a stack of one through the scaling of :func:`_comparison_splits`.
    """
    errors, d, *_ = _perron_scalings(np.asarray(X)[None])
    if errors[0] is not None:
        raise errors[0]
    return d[0]


def decompose_comparison(pair: PairXY) -> ConstructorOutcome:
    """Comparison-matrix route: gated on (a)-(d), then :func:`comparison_split`."""
    if violated := _violated("comparison", pair, "abcd"):
        return violated
    return comparison_split(pair)


class _Split(NamedTuple):
    """One item of a stacked comparison split: the rescaled-back columns with the core
    count, the scaling and their residuals against the item's pair; or the lowest
    eigenvalue of a decline; or the error that the item raises, as its type and message."""

    V: np.ndarray | None = None
    W: np.ndarray | None = None
    core_columns: int = 0
    scaling: tuple[float, ...] = ()
    residuals: Residuals | None = None
    min_eigenvalue: float | None = None
    error: tuple[type[PcpkitError], str] | None = None


# the split of an item whose pair or columns are not finite
_NOT_FINITE_SPLIT = _Split(error=(PcpkitError, linalg.NOT_FINITE))


def _comparison_splits(X: np.ndarray, Y: np.ndarray, w: np.ndarray | None = None
                       ) -> list[_Split]:
    """The comparison split of every pair of the real or complex stacks X, Y (B, n, n),
    with the residuals of its columns; ``w`` may hold the eigenvalues of every X (see
    :func:`_perron_scalings`).

    This is the one code path of :func:`comparison_split`, a stack of one, and of the
    batch that splits every ordering of a spectrum at once (``abssep``).  One
    ``eigvalsh`` judges every comparison matrix (none when ``w`` stands for them) and
    one ``eigh`` scales the passing items whose support is complete; the near-degenerate
    Perron retry, the components of an incomplete support and a dominance shortfall run
    per item, only where needed.  Each item is judged alone, so its split is the one its
    pair gets alone: the PSD floor of its comparison matrix, the flush of |x_ij| against
    its own largest entry of X, the slack flush, the dominance slack, the shortfall that
    declines it or raises for it only, and the verification of its columns.  The pairs,
    and then the columns, are checked for finite entries once per stack, and an item
    that is not finite raises ``NOT_FINITE`` for itself, as ``PairXY`` or
    ``PcpDecomposition`` would.  The columns are laid out over every index pair and
    every row, and each item keeps the ones it uses, in the order a split of that pair
    alone emits them.  The items that keep the same number of columns are verified in
    one stacked pass (see :func:`~pcpkit.pairs.residuals`), with the norms of their pairs.
    """
    Xr = linalg._lapack_operand(X)              # X real on real data
    errors, d, dd, Xs, absXs = _perron_scalings(Xr, w)
    splits: list[_Split | None] = [
        _NOT_FINITE_SPLIT if not ok else None if err is None
        else _Split(min_eigenvalue=err.min_eigenvalue) if isinstance(err, ComparisonNotPsdError)
        else _Split(error=(type(err), str(err)))
        for ok, err in zip(_finite_items(X, Y).tolist(), errors)]
    kept = [b for b, s in enumerate(splits) if s is None]
    if not kept:
        return splits
    if len(kept) < len(errors):
        X, Xr, Y, d, dd, Xs, absXs = (a[kept] for a in (X, Xr, Y, d, dd, Xs, absXs))
    B, n = X.shape[0], X.shape[-1]
    k, l = _upper_pairs(n)
    p, c, i = k.size, np.arange(k.size), np.arange(n)
    Ys = np.maximum((dd * Y).real, 0.0)         # the split reads only Y's real part
    # round-off entries of X count as zero and their Y mass moves into the slack;
    # X's threshold follows the rescaling by d_i d_j
    absXs[absXs <= (tol.FLUSH * tol.scales(np.abs(Xr).max(axis=(1, 2))))[:, None, None] * dd] = 0.0
    # the clamp keeps the off-diagonal slack non-negative
    rootY = np.sqrt(Ys)
    rootYT = rootY.swapaxes(1, 2)
    absXs = np.minimum(absXs, rootY * rootYT)
    absXs[:, i, i] = 0.0

    # y'_ij = |x_ij| sqrt(y_ij / y_ji) off the diagonal (y_ji > 0 after the clamp),
    # and the row sums of |x_ij| on it
    Yp = absXs * np.divide(rootY, rootYT, out=np.zeros_like(Ys), where=absXs > 0.0)
    Yp[:, i, i] = absXs.sum(axis=2)
    P = Ys - Yp
    # each slack entry is what Yp leaves of a Y entry, so its round-off is relative to that entry
    P[P <= tol.FLUSH * Ys] = 0.0

    # core column c for index pair (k_c, l_c) when Yp couples it, then slack column p + i
    # for row i when P leaves it non-zero
    Yp_kl, Yp_lk = Yp[:, k, l], Yp[:, l, k]
    live = np.concatenate([np.maximum(Yp_kl, Yp_lk) != 0.0, (P > 0.0).any(axis=2)], axis=1)
    q_kl, q_lk = Yp_kl ** 0.25, Yp_lk ** 0.25
    V = np.zeros((B, n, p + n), complex)
    W = np.zeros_like(V)
    V[:, k, c] = np.exp(1j * np.angle(Xs[:, k, l])) * q_kl
    V[:, l, c] = W[:, k, c] = q_lk
    W[:, l, c] = q_kl
    V[:, i, p + i] = 1.0
    W[:, :, p:] = np.sqrt(P).swapaxes(1, 2)
    unscale = (1.0 / np.sqrt(d))[:, :, None]
    V *= unscale
    W *= unscale

    cores, scalings, terms = live[:, :p].sum(axis=1).tolist(), d.tolist(), live.sum(axis=1)
    counts = set(terms.tolist())
    groups = []
    for m in counts:
        items = np.flatnonzero(terms == m)
        group = items if len(counts) > 1 else slice(None)   # one count: the whole stack, uncopied
        cols = live[group]
        if not m:
            Vg = Wg = np.zeros((items.size, n, 1), complex)
        elif (cols == cols[0]).all():               # one pattern (a lone pair, no ties): compress
            Vg, Wg = V[group].compress(cols[0], axis=2), W[group].compress(cols[0], axis=2)
        else:                                       # ties: each item's own live columns
            Vg, Wg = (np.array([A[b].compress(c, axis=1) for b, c in zip(items, cols)])
                      for A in (V, W))
        groups.append((items, group, Vg, Wg))
    # free the full layout before the verification allocates temporaries as large: kept,
    # it made a dense n = 100 split take 41 ms instead of 28 ms (one BLAS thread, 2 CPUs)
    del V, W
    for items, group, Vg, Wg in groups:
        ok = _finite_items(Vg, Wg)
        sel = slice(None) if ok.all() else ok       # columns that are not finite get no residuals
        res = iter(_residual_stack(Vg[sel], Wg[sel], X[group][sel], Y[group][sel]))
        for b, Vb, Wb, fin in zip(items.tolist(), Vg, Wg, ok.tolist()):
            splits[kept[b]] = (_Split(Vb, Wb, cores[b], tuple(scalings[b]), next(res))
                               if fin else _NOT_FINITE_SPLIT)
    return splits


def _split_outcome(split: _Split, method: str = "comparison",
                   extra: dict[str, Any] | None = None) -> ConstructorOutcome:
    """The outcome of one item of :func:`_comparison_splits`: its columns, judged by their
    residuals at ``tolerances.VERIFY``; ``extra`` joins the outcome's fresh ``info``."""
    extra = extra or {}
    if split.error is not None:
        kind, message = split.error
        raise kind(message)
    if split.V is None:
        return ConstructorOutcome(
            status=NOT_APPLICABLE,
            method=method,
            reason=_NOT_PSD,
            info={"min_eigenvalue": split.min_eigenvalue, **extra},
        )
    if not split.residuals.within():
        return ConstructorOutcome(NOT_APPLICABLE, method,
                                  reason="comparison split failed verification", info=dict(extra))
    info = {"core_columns": split.core_columns, "scaling": split.scaling, **extra}
    dec = _assembled(PcpDecomposition, V=split.V, W=split.W)
    return ConstructorOutcome(DECOMPOSED, method, dec, info=info, residuals=split.residuals)


def comparison_split(pair: PairXY) -> ConstructorOutcome:
    """The comparison route on a pair already known to satisfy (b)-(d).

    Declines (``not-applicable``, with ``info["min_eigenvalue"]`` of the
    comparison matrix) unless the comparison matrix of X is positive
    semidefinite, which implies (a); a decline is that one ``eigvalsh``.
    :func:`perron_scaling` (one ``eigh`` on a connected support) rescales the
    pair so X becomes diagonally dominant, and it is split into a core part
    (one column per unordered index pair, carrying the off-diagonal entries
    of X) and a non-negative slack part (one column per row: v = e_i, w =
    sqrt of row i of the slack, which puts the slack's diagonal entry in X
    and its row in Y), and the columns are rescaled back.  The core columns
    come first in the result; ``info["core_columns"]`` records how many.

    Conditions (c) and (d) hold only up to their slacks, so |x_ij| is clamped
    to sqrt(y_ij y_ji) and negative slack is dropped; the verification judges
    what that leaves out, and a split that fails it declines.  The pair runs as
    a stack of one through :func:`_comparison_splits`.
    """
    (split,) = _comparison_splits(pair.X[None], pair.Y[None])
    return _split_outcome(split)


def isotropic_constants(n: int) -> tuple[float, float]:
    """The two coupling constants used at the b = -a/n extreme of the isotropic family."""
    disc = math.sqrt(n**4 - 2 * n**3 + n**2 + 4 * n)
    c_plus = math.sqrt((n * n - n + 2 + disc) / 2.0)
    c_minus = math.sqrt((n * n - n + 2 - disc) / 2.0)
    return c_plus, c_minus


def isotropic_pair(n: int, a: float, b: float) -> PairXY:
    """The pair (aI + bJ, bI + aJ) of the isotropic two-parameter family."""
    if n < 1:
        raise WrongDimensionError(f"need n >= 1, got {n}")
    eye = np.eye(n)
    ones = np.ones((n, n))
    return PairXY(a * eye + b * ones, b * eye + a * ones)


def decompose_isotropic(n: int, a: float, b: float) -> ConstructorOutcome:
    """Decompose (aI + bJ, bI + aJ); possible exactly when a >= 0 and -a/n <= b <= a.

    Both extreme members have closed-form n-term decompositions; interior
    values of b are reached by concatenating the two with fourth-root weights.
    """
    method = "isotropic"
    if n < 1:
        raise WrongDimensionError(f"need n >= 1, got {n}")
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise PcpkitError("a and b must be finite")
    pair = isotropic_pair(n, a, b)

    slack = tol.ZERO * tol.scale(abs(a), abs(b))
    if a < -slack or b > a + slack or b < -a / n - slack:
        return ConstructorOutcome(
            status=CONDITIONS_VIOLATED,
            method=method,
            reason=f"(a, b) = ({a:g}, {b:g}) is outside a >= 0, -a/n <= b <= a",
        )
    a = max(a, 0.0)
    b = min(max(b, -a / n), a)

    if a == 0.0:
        V, W = _zero_term(n)
        return _decomposed(pair, method, V, W, mixture=0.0)

    s = a / n
    t = (n - b * n / a) / (n + 1.0)        # weight of the b = -a/n extreme
    t = min(max(t, 0.0), 1.0)
    c_plus, c_minus = isotropic_constants(n)

    # each member has n terms, term k (column k) singling out entry k
    eye = np.eye(n, dtype=bool)
    Vs, Ws = [], []
    if t > 0.0:
        weight = (t * s) ** 0.25
        Vs.append(weight * np.where(eye, c_plus, np.ones((n, n), complex)) / math.sqrt(n))
        Ws.append(weight * np.where(eye, c_minus, -np.ones((n, n), complex)))
    if t < 1.0:
        weight = ((1.0 - t) * s) ** 0.25
        gamma = math.sqrt(n / (n + 2.0 + 2.0 * math.sqrt(n + 1.0)))
        root = np.sqrt(np.where(eye, gamma * (2.0 + math.sqrt(n + 1.0)), gamma)).astype(complex)
        Vs.append(weight * root)
        Ws.append(weight * root)
    return _decomposed(pair, method, np.hstack(Vs), np.hstack(Ws),
                       mixture=t, c_plus=c_plus, c_minus=c_minus)


# The criteria whose failure refutes a pair, each with the condition it reads from the
# pair's report (the partial transpose is PSD exactly when (d) holds, and realignment
# passes exactly when (e) holds), and the general routes, each run as
# (pair, search_permutations) -> ConstructorOutcome.  Both are in the order they are
# tried.  A route looks its function up on this module when it runs, so a rebinding
# of ``decompose_recursive`` or ``decompose_comparison`` here is what runs.
CRITERIA = {"ppt": "d", "realignment": "e"}
ROUTES = {
    "comparison": lambda pair, search_permutations: decompose_comparison(pair),
    "recursive": lambda pair, search_permutations: decompose_recursive(
        pair, search_permutations=search_permutations),
}


def _comparison_refuted(pair: PairXY) -> bool:
    """Whether the report of a pair meeting (a)-(e) proves that the comparison route
    declines it as :data:`_NOT_PSD`, read off O(n) numbers: s = sum |x_ii| and the
    report's ``x_gap``.  False proves nothing.

    Let M be the comparison matrix of X and o = sum_{i != j} |x_ij|, so 1^T M 1 = s - o
    and lambda_min(M) <= (s - o) / n.  Any matrix has ||X||_tr >= s (take the trace
    against diagonal phases), so o = ||X||_1 - s >= ||X||_1 - ||X||_tr = gap(X), and
    gap(X) > s makes M indefinite.  The route declines when the lowest computed
    eigenvalue of M is below -PSD * sum |eigenvalues|, a floor at most
    PSD * ||M||_tr <= PSD * ||M||_1 = PSD * ||X||_1 (triangle inequality over the
    entries).  So it declines when, up to round-off, gap(X) - s > n PSD ||X||_1.
    Then:

    * ``x_gap`` is ||X||_1 less ``x_trace``, which is tr X when a Cholesky factorization
      settled (a), else sum |eigenvalues| of X, at least sum |Re x_ii| by Schur-Horn.
      Either falls short of s by at most sum |Im x_ii|, which the Hermiticity test
      bounds by n STRUCTURE max|x_ij| / 2.
    * ``eigvalsh`` reads M's lower triangle, whose 1^T M 1 may differ from s - o by
      n^2 STRUCTURE max|x_ij| / 2, for |x_ij| and |x_ji| agree within the Hermiticity
      test; a PSD X (within its floor) has max|x_ij| <= s (1 + 2 n PSD).
    * ``x_trace`` <= s (1 + 2 n PSD), since X passed its own floor, so
      ||X||_1 <= (x_gap + s)(1 + 2 n PSD).
    * The eigenvalues of M and the sums behind ``x_gap`` and s are off by at most about
      n^2 u ||X||_1 for the unit round-off u, below PSD ||X||_1 / 8 for n up to
      ``linalg._CHOLESKY_MAX_N``; a larger pair is never refuted.

    So gap(X) - s > n (4 PSD (x_gap + s) + n STRUCTURE s) covers the floor with the
    round-off, and the Hermiticity defects, each at least twice over.  The same
    1^T M 1 bounds the equilibrated S M S, S = diag(M)^(-1/2), at the vector S^(-1) 1:
    lambda_min(S M S) <= 1 - o / s.
    """
    n = pair.n
    if n > linalg._CHOLESKY_MAX_N:
        return False
    s = float(np.abs(pair.X.diagonal()).sum())
    gap = pair.report.x_gap
    return gap - s > n * (4.0 * tol.PSD * (gap + s) + n * tol.STRUCTURE * s)


def decompose_auto(pair: PairXY, search_permutations: bool = True) -> ConstructorOutcome:
    """Try the :data:`ROUTES` in order; first success wins.

    A pair failing any of (a)-(e) is ``conditions-violated`` before any route
    runs, as :func:`~pcpkit.cldui.separability_verdict` has it.  When nothing
    applies, the per-route reasons are collected in ``info["methods"]``.

    The comparison route is refuted from the report, with no eigensolve, when
    :func:`_comparison_refuted` proves the comparison matrix of X indefinite (gap(X) >
    tr X, with a margin for its PSD floor and the round-off).  The route is then
    recorded with its usual decline reason, so ``info["methods"]`` reads as if it had
    run.
    """
    if violated := _violated("auto", pair, "abcde"):
        return violated
    attempts: dict[str, str] = {}
    for name, route in ROUTES.items():
        if name == "comparison" and _comparison_refuted(pair):
            attempts[name] = _NOT_PSD
            continue
        out = route(pair, search_permutations)
        if out.ok:
            return out
        attempts[out.method] = out.reason or out.status
    return ConstructorOutcome(
        status=NOT_APPLICABLE,
        method="auto",
        reason="no construction route applied",
        info={"methods": attempts},
    )
