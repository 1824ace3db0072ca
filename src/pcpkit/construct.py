"""Constructive decomposition routes for matrix pairs.

Two sufficient constructions, each packaged as a function returning a
:class:`ConstructorOutcome`:

* ``decompose_comparison``  -- comparison-matrix route: Perron rescaling to a
                               diagonally dominant X, then an explicit
                               pair-of-columns factorization plus a diagonal
                               slack term.
* ``decompose_recursive``   -- row-by-row elimination, optionally retried under
                               simultaneous row/column permutations.

``decompose_isotropic`` handles the two-parameter family (aI + bJ, bI + aJ)
by mixing closed-form decompositions of the two extreme members, and
``decompose_auto`` tries the general routes in order of cost.

Each general route takes a keyword-only ``report``, the pair's
:func:`~pcpkit.pairs.check_necessary` result, and evaluates (a)-(e) itself
only when it is omitted.

A constructor never raises on an unsuitable pair; it reports why it does not
apply.  Raised errors are reserved for malformed input and for internal
inconsistencies (``ConstructionError``), which indicate a bug rather than an
undecidable pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any

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
    NecessaryReport,
    PairXY,
    PcpDecomposition,
    Residuals,
    check_necessary,
    residuals,
)

DECOMPOSED = "decomposed"
NOT_APPLICABLE = "not-applicable"
CONDITIONS_VIOLATED = "conditions-violated"


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


def _violated(method: str, pair: PairXY, report: NecessaryReport | None,
              conditions: str) -> ConstructorOutcome | None:
    """The ``conditions-violated`` outcome when one of ``conditions`` fails, else None."""
    if report is None:
        report = check_necessary(pair)
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


def _rowwise_passes(X: np.ndarray, Y: np.ndarray, scale: float, exhaustive: bool):
    """The row-by-row elimination under every simultaneous ordering of the
    indices (only the identity unless ``exhaustive``), in lexicographic order.

    Yields ``(order, V, W, None)`` per completed pass, column k holding the k-th
    pivot's term over the original indices (valid until the next item), and
    ``(order, None, None, witness)`` per failed one: the failing position
    (1-based, in the ordering's coordinates) and what went wrong.  Orderings
    with a common prefix share its steps, and a failed step rules them all out.

    A step is whole-vector array code: the indices not yet pivoted are a boolean
    mask, and no Python loop visits them.  The products with earlier terms stay
    row-dot products ``M[:, :k] @ x``, which round each entry the same wherever
    it sits, so a search and a pass on the permuted pair agree bitwise.
    """
    n = X.shape[0]
    V = np.zeros((n, n), complex)
    W = np.zeros((n, n), complex)
    # |V|^2, |W|^2 and V.W, filled in one column per step
    absV, absW, A = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n), complex)
    neg_tol = tol.ZERO * scale
    res_tol = tol.RESIDUAL * scale
    pivot_tol = tol.ZERO * math.sqrt(scale)     # pivots are square roots of Y entries
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
        rad = Y[i].real - absW[:, :k] @ absV[i, :k]     # y_{i,j} - d_{i,j} over j
        lowest = np.minimum.reduce(rad)
        if lowest < -neg_tol:
            ranked = rad[order + [i] + rest]
            m = int(ranked.argmin())
            return fail(k, m, ranked[m], "negative radicand")
        if lowest < 0.0:                                # round-off below zero
            np.maximum(rad, 0.0, out=rad)
        num = X[:, i] - A[:, :k] @ A[i, :k].conj()      # x_{j,i} - c_{j,i} over j
        root = np.sqrt(rad)
        s = float(root[i])
        vkk = num[i] / s if s >= pivot_tol else 0.0
        if abs(vkk) < pivot_tol:
            # Row i already exhausted: admissible only if nothing is left of it.
            if s < pivot_tol and rad.max() <= res_tol and np.abs(num[unpivoted]).max() <= res_tol:
                V[:, k] = W[:, k] = absV[:, k] = absW[:, k] = A[:, k] = 0.0
                return None
            return fail(k, k, rad[i], "vanishing pivot with unexhausted row")
        live = unpivoted
        small = root < pivot_tol                        # not i, whose root is s
        if np.count_nonzero(small):
            live = unpivoted & ~small
            bad = np.flatnonzero(unpivoted & small & (np.abs(num) > res_tol))
            if bad.size:
                j = int(bad[0])
                return fail(k, k + 1 + rest.index(j), rad[j],
                            "zero denominator under a non-zero residual")
        v = np.divide(num, root, out=np.zeros(n, complex), where=live)    # v[i] = vkk
        w = root / vkk
        V[:, k], W[:, k], A[:, k] = v, w, v * w
        absV[:, k] = np.square(np.abs(v))
        absW[:, k] = np.square(np.abs(w))
        return None

    stack = [(list(range(n)), list(range(n)) if exhaustive else [0])]   # (unpivoted, untried)
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
            yield tuple(order + [i] + rest), None, None, witness
        elif not rest:
            yield tuple(order + [i]), V, W, None
        else:
            order.append(i)
            unpivoted[i] = False
            stack.append((rest, rest[:] if exhaustive else rest[:1]))


def decompose_recursive(pair: PairXY, search_permutations: bool = False, *,
                        report: NecessaryReport | None = None) -> ConstructorOutcome:
    """Row-by-row elimination with upper-triangular v-vectors.

    The elimination can fail on a decomposable pair for ordering reasons
    alone, so with ``search_permutations`` the same pass is retried on
    (PXP*, PYP*) for every simultaneous permutation P (lexicographic order,
    identity first, first success wins).  The search is exhaustive only for
    n <= 7; beyond that only the identity is attempted.  When every pass fails,
    the search runs on (X, Y^T), whose decomposition (V, W) is (W, V) for
    (X, Y); ``info["transposed"]`` records which orientation succeeded.
    """
    method = "recursive"
    if violated := _violated(method, pair, report, "abcd"):
        return violated

    n = pair.n
    capped = search_permutations and n > 7
    first_witness = None
    attempts = 0
    for transposed in (False, True):
        Y = pair.Y.T if transposed else pair.Y
        for perm, V, W, witness in _rowwise_passes(pair.X, Y, pair.scale,
                                                   search_permutations and not capped):
            attempts += 1
            if witness is not None:
                if first_witness is None:
                    first_witness = witness
                continue
            if transposed:
                V, W = W, V
            # exhausted rows leave dead all-zero terms; drop them
            live = (np.abs(V).max(axis=0) > 0.0) & (np.abs(W).max(axis=0) > 0.0)
            if live.any():
                V, W = V[:, live], W[:, live]
            else:
                V, W = _zero_term(n)
            out = _verified(pair, method, PcpDecomposition(V, W), permutation=tuple(perm),
                            info={"attempts": attempts, "transposed": transposed})
            if out is not None:
                return out
            if first_witness is None:
                first_witness = {"reason": "completed pass failed verification"}

    info: dict[str, Any] = {"attempts": attempts}
    if first_witness is not None:
        info["witness"] = first_witness
    if capped:
        info["note"] = "permutation search is exhaustive only for n <= 7; tried identity only"
    return ConstructorOutcome(
        status=NOT_APPLICABLE,
        method=method,
        reason="row-by-row elimination failed for every ordering tried",
        info=info,
    )


def comparison_matrix(A: np.ndarray) -> np.ndarray:
    """Entrywise comparison matrix: keep |diagonal|, negate all off-diagonal magnitudes."""
    A = linalg.require_square(A)
    M = -np.abs(A)
    np.fill_diagonal(M, np.abs(np.diag(A)))
    return M


def _graph_components(adjacency: np.ndarray) -> list[np.ndarray]:
    """The vertex sets of the connected components of a symmetric adjacency matrix."""
    n = adjacency.shape[0]
    reach = (adjacency | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):      # paths of up to 2^k edges after k squarings
        reach = ((reach @ reach) > 0.0).astype(float)
    # label each vertex by the lowest-numbered vertex it reaches
    first = np.where(reach > 0.0, np.arange(n), n).min(axis=1, initial=n)
    return [np.flatnonzero(first == f) for f in np.unique(first)]


def _perron_vector(P: np.ndarray) -> np.ndarray:
    """Positive eigenvector for the largest eigenvalue of a symmetric non-negative matrix."""
    # A near-degenerate top eigenvalue gets a second try: a strictly
    # positive perturbation restores a simple Perron pair.
    for shift in (0.0, tol.PERTURBATION * tol.scale(float(P.max()))):
        _, U = np.linalg.eigh(P + shift)
        v = U[:, -1]
        lead = np.sign(v[np.argmax(np.abs(v))])
        v = v * (lead if lead != 0 else 1.0)
        if v.min() > tol.ZERO * max(v.max(), 0.0):
            break
    v = np.abs(v)
    if v.max() <= 0.0:
        raise ConstructionError("degenerate component vector in Perron rescaling")
    return v / v.max()


def perron_scaling(X: np.ndarray) -> np.ndarray:
    """Positive diagonal d such that diag(d) X diag(d) is diagonally dominant.

    Requires the comparison matrix of X to be positive semidefinite.  The
    scaling is assembled per connected component of the off-diagonal support
    graph, from the top eigenvector of the non-negative part.
    """
    M = comparison_matrix(X)
    psd, lowest, _ = linalg.psd_test(M)
    if not psd:
        raise ComparisonNotPsdError("comparison matrix is not positive semidefinite", lowest)
    n = M.shape[0]
    alpha = float(np.diag(M).max()) if n else 0.0
    P = alpha * np.eye(n) - M
    off = P.copy()
    np.fill_diagonal(off, 0.0)
    d = np.zeros(n)
    for comp in _graph_components(off > 0.0):
        if comp.size == 1:
            d[comp] = 1.0
        else:
            d[comp] = _perron_vector(P[np.ix_(comp, comp)])
    scaled = np.abs(d[:, None] * X * d[None, :])
    row_off = scaled.sum(axis=1) - np.diag(scaled)
    slack = tol.RESIDUAL * tol.scale(float(scaled.max())) if n else 0.0
    if np.any(np.diag(scaled) + slack < row_off):
        raise ConstructionError("Perron rescaling did not reach diagonal dominance")
    return d


def decompose_comparison(pair: PairXY, *,
                         report: NecessaryReport | None = None) -> ConstructorOutcome:
    """Comparison-matrix route: gated on (a)-(d), then :func:`comparison_split`."""
    if violated := _violated("comparison", pair, report, "abcd"):
        return violated
    return comparison_split(pair)


def comparison_split(pair: PairXY) -> ConstructorOutcome:
    """The comparison route on a pair already known to satisfy (b)-(d).

    Declines (``not-applicable``, with ``info["min_eigenvalue"]`` of the
    comparison matrix) unless the comparison matrix of X is positive
    semidefinite, which implies (a).  The pair is rescaled so X becomes
    diagonally dominant, split into a core part (one column per unordered
    index pair, carrying the off-diagonal entries of X) and a non-negative
    slack part (one column per row: v = e_i, w = sqrt of row i of the slack,
    which puts the slack's diagonal entry in X and its row in Y), and the
    columns are rescaled back.  The core columns come first in the result;
    ``info["core_columns"]`` records how many there are.

    Conditions (c) and (d) hold only up to their slacks, so |x_ij| is clamped
    to sqrt(y_ij y_ji) and negative slack is dropped; the verification judges
    what that leaves out, and a split that fails it declines.
    """
    method = "comparison"
    n = pair.n
    try:
        d = perron_scaling(pair.X)
    except ComparisonNotPsdError as err:
        return ConstructorOutcome(
            status=NOT_APPLICABLE,
            method=method,
            reason="comparison matrix of X is not positive semidefinite",
            info={"min_eigenvalue": err.min_eigenvalue},
        )
    dd = np.outer(d, d)
    Xs = dd * pair.X
    Ys = np.clip((dd * pair.Y).real, 0.0, None)
    absXs = np.abs(Xs)
    # round-off entries of X count as zero and their Y mass moves into the slack;
    # X's threshold follows the rescaling by d_i d_j
    absXs[absXs <= tol.FLUSH * tol.scale(float(np.abs(pair.X).max())) * dd] = 0.0
    # the clamp keeps the off-diagonal slack non-negative
    rootY = np.sqrt(Ys)
    absXs = np.minimum(absXs, rootY * rootY.T)
    np.fill_diagonal(absXs, 0.0)

    # y'_ij = |x_ij| sqrt(y_ij / y_ji) off the diagonal (y_ji > 0 after the clamp),
    # and the row sums of |x_ij| on it
    Yp = absXs * np.divide(rootY, rootY.T, out=np.zeros_like(Ys), where=absXs > 0.0)
    np.fill_diagonal(Yp, absXs.sum(axis=1))
    P = Ys - Yp
    # each slack entry is what Yp leaves of a Y entry, so its round-off is relative to that entry
    P[P <= tol.FLUSH * Ys] = 0.0

    k, l = np.nonzero(np.triu(np.maximum(Yp, Yp.T), 1))
    rows = np.flatnonzero((P > 0.0).any(axis=1))
    core = k.size
    cols = np.arange(core)
    sgn = np.exp(1j * np.angle(Xs[k, l]))
    q = Yp ** 0.25
    V = np.zeros((n, core + rows.size), complex)
    W = np.zeros_like(V)
    V[k, cols], V[l, cols] = sgn * q[k, l], q[l, k]
    W[k, cols], W[l, cols] = q[l, k], q[k, l]
    V[rows, core + np.arange(rows.size)] = 1.0
    W[:, core:] = np.sqrt(P[rows]).T
    if not V.shape[1]:
        V, W = _zero_term(n)

    unscale = (1.0 / np.sqrt(d))[:, None]
    info = {"core_columns": core, "scaling": tuple(float(x) for x in d)}
    return _verified(pair, method, PcpDecomposition(V * unscale, W * unscale), info=info) or \
        ConstructorOutcome(NOT_APPLICABLE, method, reason="comparison split failed verification")


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

    vs, ws = [], []
    if t > 0.0:
        weight = (t * s) ** 0.25
        for k in range(n):
            v = np.ones(n, complex)
            v[k] = c_plus
            w = -np.ones(n, complex)
            w[k] = c_minus
            vs.append(weight * v / math.sqrt(n))
            ws.append(weight * w)
    if t < 1.0:
        weight = ((1.0 - t) * s) ** 0.25
        gamma = math.sqrt(n / (n + 2.0 + 2.0 * math.sqrt(n + 1.0)))
        for k in range(n):
            u = gamma * np.ones(n)
            u[k] = gamma * (2.0 + math.sqrt(n + 1.0))
            root = np.sqrt(u).astype(complex)
            vs.append(weight * root)
            ws.append(weight * root)
    return _decomposed(pair, method, np.column_stack(vs), np.column_stack(ws),
                       mixture=t, c_plus=c_plus, c_minus=c_minus)


def decompose_auto(pair: PairXY, search_permutations: bool = True, *,
                   report: NecessaryReport | None = None) -> ConstructorOutcome:
    """Try every general-purpose route in order of cost; first success wins.

    Order: the comparison route, which covers every diagonal X and every n = 2
    pair meeting (a)-(d) (their comparison matrices are PSD), then the
    row-by-row elimination (with permutation retries).  When nothing applies,
    the per-method reasons are collected in ``info["methods"]``.  Conditions
    (a)-(e) are evaluated once, or read from ``report`` when given, and that
    one report is passed to every route.
    """
    if report is None:
        report = check_necessary(pair)
    attempts: dict[str, str] = {}
    routes = [decompose_comparison,
              functools.partial(decompose_recursive, search_permutations=search_permutations)]
    for route in routes:
        out = route(pair, report=report)
        if out.ok:
            return out
        attempts[out.method] = out.reason or out.status

    # a failing necessary condition settles the question even when the
    # individual routes only reported themselves inapplicable
    if not report.all_hold:
        return ConstructorOutcome(
            status=CONDITIONS_VIOLATED,
            method="auto",
            reason=f"necessary conditions {report.failing()} fail",
            info={"methods": attempts, "report": report},
        )
    return ConstructorOutcome(
        status=NOT_APPLICABLE,
        method="auto",
        reason="no construction route applied",
        info={"methods": attempts},
    )
