"""Constructive decomposition routes for matrix pairs.

Four sufficient constructions, each packaged as a function returning a
:class:`ConstructorOutcome`:

* ``decompose_diagonal_x``  -- X diagonal: one term per matrix position.
* ``decompose_2x2``         -- closed form for n = 2 under conditions (a)-(d).
* ``decompose_recursive``   -- row-by-row elimination, optionally retried under
                               simultaneous row/column permutations.
* ``decompose_comparison``  -- comparison-matrix route: Perron rescaling to a
                               diagonally dominant X, then an explicit
                               pair-of-columns factorization plus a diagonal
                               slack term.

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

import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import linalg
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
    check_necessary,
    verify_decomposition,
)

DECOMPOSED = "decomposed"
NOT_APPLICABLE = "not-applicable"
CONDITIONS_VIOLATED = "conditions-violated"


@dataclass(frozen=True)
class ConstructorOutcome:
    """Result of one construction attempt.

    ``status`` is one of ``decomposed``, ``not-applicable``,
    ``conditions-violated``.  A ``decomposed`` outcome always carries a
    decomposition that has been verified against the input pair at 1e-8.
    """

    status: str
    method: str
    decomposition: PcpDecomposition | None = None
    permutation: tuple[int, ...] | None = None
    reason: str | None = None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == DECOMPOSED


def _violated(method: str, report: NecessaryReport, which: list[str]) -> ConstructorOutcome:
    return ConstructorOutcome(
        status=CONDITIONS_VIOLATED,
        method=method,
        reason=f"necessary conditions {which} fail",
        info={"report": report},
    )


def _decomposed(pair: PairXY, method: str, V, W, **extra) -> ConstructorOutcome:
    dec = PcpDecomposition(V, W)
    if not verify_decomposition(dec, pair, 1e-8):
        raise ConstructionError(f"{method} construction failed verification at 1e-8")
    perm = extra.pop("permutation", None)
    return ConstructorOutcome(
        status=DECOMPOSED,
        method=method,
        decomposition=dec,
        permutation=perm,
        info=extra,
    )


def _zero_term(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((n, 1), complex), np.zeros((n, 1), complex)


def _position_columns(Y: np.ndarray, drop_zero: bool) -> tuple[np.ndarray, np.ndarray]:
    """Columns v = e_i, w = sqrt(y_ij) e_j over positions (i, j), row-major."""
    n = Y.shape[0]
    Ynn = np.clip(Y.real, 0.0, None)
    vs, ws = [], []
    for i in range(n):
        for j in range(n):
            if drop_zero and Ynn[i, j] == 0.0:
                continue
            v = np.zeros(n, complex)
            w = np.zeros(n, complex)
            v[i] = 1.0
            w[j] = math.sqrt(Ynn[i, j])
            vs.append(v)
            ws.append(w)
    if not vs:
        return _zero_term(n)
    return np.column_stack(vs), np.column_stack(ws)


def decompose_diagonal_x(pair: PairXY, *,
                         report: NecessaryReport | None = None) -> ConstructorOutcome:
    """Decompose a pair whose X is diagonal: n^2 terms, one per position of Y.

    Applies whenever conditions (a)-(c) hold and every off-diagonal entry of X
    is below 1e-10 in magnitude.
    """
    method = "diagonal-x"
    if report is None:
        report = check_necessary(pair)
    if not report.holds_abc:
        return _violated(method, report, [c for c in report.failing() if c in "abc"])
    off = pair.X - np.diag(np.diag(pair.X))
    offmax = float(np.abs(off).max()) if pair.n > 1 else 0.0
    if offmax > 1e-10:
        return ConstructorOutcome(
            status=NOT_APPLICABLE,
            method=method,
            reason=f"X is not diagonal (largest off-diagonal magnitude {offmax:.3e})",
        )
    V, W = _position_columns(pair.Y, drop_zero=False)
    return _decomposed(pair, method, V, W)


def decompose_2x2(pair: PairXY, *, report: NecessaryReport | None = None) -> ConstructorOutcome:
    """Closed-form two-term decomposition for n = 2.

    Conditions (a)-(d) are sufficient at this size.  When the leading entry of
    X or the upper off-diagonal of Y vanishes, X is forced diagonal and the
    position-by-position route is used instead.
    """
    method = "two-by-two"
    if pair.n != 2:
        raise WrongDimensionError(f"decompose_2x2 needs n = 2, got n = {pair.n}")
    if report is None:
        report = check_necessary(pair)
    bad = [c for c in report.failing() if c in "abcd"]
    if bad:
        return _violated(method, report, bad)

    X, Y = pair.X, pair.Y
    scale = max(1.0, float(np.abs(X).max()), float(np.abs(Y).max()))
    ztol = 1e-12 * scale
    x11 = X[0, 0].real
    x22 = X[1, 1].real
    x21 = X[1, 0]
    y12 = Y[0, 1].real
    y21 = Y[1, 0].real

    if x11 <= ztol or y12 <= ztol:
        # PSD and the product condition force the off-diagonal of X to vanish.
        V, W = _position_columns(pair.Y, drop_zero=False)
        return _decomposed(pair, method, V, W)

    def root(value: float) -> float:
        if value < -1e-9 * scale * scale:
            raise ConstructionError(f"negative radicand {value:.3e} in two-by-two route")
        return math.sqrt(max(value, 0.0))

    v1 = np.array([1.0, x21 / math.sqrt(x11 * y12)], complex)
    w1 = np.array([math.sqrt(x11), math.sqrt(y12)], complex)
    v2 = np.array([0.0, 1.0], complex)
    w2 = np.array([root(y21 - abs(x21) ** 2 / y12), root(x22 - abs(x21) ** 2 / x11)], complex)
    return _decomposed(pair, method, np.column_stack([v1, v2]), np.column_stack([w1, w2]))


def _attempt_rowwise(X: np.ndarray, Y: np.ndarray, scale: float):
    """One pass of the row-by-row elimination.

    Returns ``(V, W, None)`` on success or ``(None, None, witness)`` where the
    witness records the failing position (1-based) and what went wrong there.
    """
    n = X.shape[0]
    V = np.zeros((n, n), complex)
    W = np.zeros((n, n), complex)
    neg_tol = 1e-12 * scale
    res_tol = 1e-9 * scale
    for k in range(n):
        absW = np.abs(W[:, :k]) ** 2
        absVk = np.abs(V[k, :k]) ** 2
        d = absW @ absVk                      # d_{k,j} over j
        A = V[:, :k] * W[:, :k]
        c = A @ A[k, :].conj()                # c_{j,k} over j
        rad = Y[k, :].real - d
        if rad.min() < -neg_tol:
            j = int(rad.argmin())
            return None, None, {
                "position": (k + 1, j + 1),
                "radicand": float(rad[j]),
                "reason": "negative radicand",
            }
        rad = np.clip(rad, 0.0, None)
        num = X[:, k] - c                     # x_{j,k} residuals over j
        s = math.sqrt(rad[k])
        if s < 1e-12:
            # Row k already exhausted: admissible only if nothing is left of it.
            if rad.max() <= res_tol and np.abs(num[k:]).max() <= res_tol:
                continue
            return None, None, {
                "position": (k + 1, k + 1),
                "radicand": float(rad[k]),
                "reason": "vanishing pivot with unexhausted row",
            }
        vkk = num[k] / s
        if abs(vkk) < 1e-12:
            return None, None, {
                "position": (k + 1, k + 1),
                "radicand": float(rad[k]),
                "reason": "vanishing pivot with unexhausted row",
            }
        V[k, k] = vkk
        W[:, k] = np.sqrt(rad) / vkk
        for j in range(k + 1, n):
            r = math.sqrt(rad[j])
            if r < 1e-12:
                if abs(num[j]) > res_tol:
                    return None, None, {
                        "position": (k + 1, j + 1),
                        "radicand": float(rad[j]),
                        "reason": "zero denominator under a non-zero residual",
                    }
                V[j, k] = 0.0
            else:
                V[j, k] = num[j] / r
    return V, W, None


def decompose_recursive(pair: PairXY, search_permutations: bool = False, *,
                        report: NecessaryReport | None = None) -> ConstructorOutcome:
    """Row-by-row elimination with upper-triangular v-vectors.

    The elimination can fail on a decomposable pair for ordering reasons
    alone, so with ``search_permutations`` the same pass is retried on
    (PXP*, PYP*) for every simultaneous permutation P (lexicographic order,
    identity first, first success wins).  The search is exhaustive only for
    n <= 7; beyond that only the identity is attempted.
    """
    method = "recursive"
    if report is None:
        report = check_necessary(pair)
    if not report.holds_abc:
        return _violated(method, report, [c for c in report.failing() if c in "abc"])

    n = pair.n
    scale = max(1.0, float(np.abs(pair.X).max()), float(np.abs(pair.Y).max()))
    capped = search_permutations and n > 7
    if search_permutations and not capped:
        perms = itertools.permutations(range(n))
    else:
        perms = iter([tuple(range(n))])

    first_witness = None
    attempts = 0
    for perm in perms:
        attempts += 1
        p = np.asarray(perm)
        Xp = pair.X[np.ix_(p, p)]
        Yp = pair.Y[np.ix_(p, p)]
        V0, W0, witness = _attempt_rowwise(Xp, Yp, scale)
        if witness is not None:
            if first_witness is None:
                first_witness = witness
            continue
        V = np.zeros_like(V0)
        W = np.zeros_like(W0)
        V[p, :] = V0
        W[p, :] = W0
        # exhausted rows leave dead all-zero terms; drop them
        live = (np.abs(V).max(axis=0) > 0.0) & (np.abs(W).max(axis=0) > 0.0)
        if live.any():
            V, W = V[:, live], W[:, live]
        else:
            V, W = _zero_term(n)
        dec = PcpDecomposition(V, W)
        if verify_decomposition(dec, pair, 1e-8):
            return ConstructorOutcome(
                status=DECOMPOSED,
                method=method,
                decomposition=dec,
                permutation=tuple(perm),
                info={"attempts": attempts},
            )
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
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in np.flatnonzero(adjacency[u]):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        comps.append(np.array(sorted(comp)))
    return comps


def _perron_vector(P: np.ndarray) -> np.ndarray:
    """Positive eigenvector for the largest eigenvalue of a symmetric non-negative matrix."""
    _, U = np.linalg.eigh(P)
    v = U[:, -1]
    lead = np.sign(v[np.argmax(np.abs(v))])
    v = v * (lead if lead != 0 else 1.0)
    if v.min() <= 1e-12 * max(v.max(), 0.0):
        # Near-degenerate top eigenvalue: a strictly positive perturbation
        # restores a simple Perron pair.
        k = P.shape[0]
        _, U = np.linalg.eigh(P + 1e-10 * np.ones((k, k)))
        v = U[:, -1]
        lead = np.sign(v[np.argmax(np.abs(v))])
        v = v * (lead if lead != 0 else 1.0)
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
    if not linalg.is_psd(M):
        raise ComparisonNotPsdError("comparison matrix is not positive semidefinite")
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
    slack = 1e-9 * max(1.0, float(scaled.max())) if n else 0.0
    if np.any(np.diag(scaled) + slack < row_off):
        raise ConstructionError("Perron rescaling did not reach diagonal dominance")
    return d


def decompose_comparison(pair: PairXY, *,
                         report: NecessaryReport | None = None) -> ConstructorOutcome:
    """Comparison-matrix route.

    Requires (a)-(d) plus a positive semidefinite comparison matrix of X.
    The pair is rescaled so X becomes diagonally dominant, split into a core
    part (one column per unordered index pair, carrying the off-diagonal
    entries of X exactly) and a non-negative slack part handled position by
    position, and the columns are rescaled back.  The core columns come first
    in the result; ``info["core_columns"]`` records how many there are.
    """
    method = "comparison"
    if report is None:
        report = check_necessary(pair)
    bad = [c for c in report.failing() if c in "abcd"]
    if bad:
        return _violated(method, report, bad)

    n = pair.n
    M = comparison_matrix(pair.X)
    if not linalg.is_psd(M):
        w = np.linalg.eigvalsh(M)
        return ConstructorOutcome(
            status=NOT_APPLICABLE,
            method=method,
            reason="comparison matrix of X is not positive semidefinite",
            info={"min_eigenvalue": float(w.min())},
        )

    d = perron_scaling(pair.X)
    Xs = d[:, None] * pair.X * d[None, :]
    Ys = np.clip((d[:, None] * pair.Y * d[None, :]).real, 0.0, None)
    absXs = np.abs(Xs)
    # treat roundoff-level off-diagonal entries of X as zero; their Y mass
    # moves into the slack, their X mass is far below verification tolerance
    absXs[absXs <= 1e-13 * max(1.0, float(absXs.max()))] = 0.0

    Yp = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and Ys[j, i] > 0.0 and absXs[i, j] > 0.0:
                Yp[i, j] = absXs[i, j] * math.sqrt(Ys[i, j] / Ys[j, i])
        Yp[i, i] = absXs[i, :].sum() - absXs[i, i]

    P = Ys - Yp
    if P.size and P.min() < -1e-9 * max(1.0, float(Ys.max())):
        raise ConstructionError("negative slack in comparison split")
    # roundoff flotsam in the slack would otherwise turn into spurious columns
    P[P <= 1e-13 * max(1.0, float(Ys.max()))] = 0.0

    vs, ws = [], []
    for k in range(n):
        for l in range(k + 1, n):
            if max(Yp[k, l], Yp[l, k]) == 0.0:
                continue
            x = Xs[k, l]
            sgn = x / abs(x) if abs(x) > 0 else 1.0
            v = np.zeros(n, complex)
            w = np.zeros(n, complex)
            v[k] = sgn * Yp[k, l] ** 0.25
            v[l] = Yp[l, k] ** 0.25
            w[k] = Yp[l, k] ** 0.25
            w[l] = Yp[k, l] ** 0.25
            vs.append(v)
            ws.append(w)
    core = len(vs)

    if P.max() > 0.0:
        Vs, Ws = _position_columns(P, drop_zero=True)
        vs += [Vs[:, j] for j in range(Vs.shape[1])]
        ws += [Ws[:, j] for j in range(Ws.shape[1])]
    if not vs:
        Vz, Wz = _zero_term(n)
        vs, ws = [Vz[:, 0]], [Wz[:, 0]]
    V = np.column_stack(vs)
    W = np.column_stack(ws)

    unscale = (1.0 / np.sqrt(d))[:, None]
    return _decomposed(pair, method, V * unscale, W * unscale, core_columns=core,
                       scaling=tuple(float(x) for x in d))


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

    tol = 1e-12 * max(1.0, abs(a), abs(b))
    if a < -tol or b > a + tol or b < -a / n - tol:
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

    Order: diagonal X, the n = 2 closed form, the comparison route, then the
    row-by-row elimination (with permutation retries).  When nothing applies,
    the per-method reasons are collected in ``info["methods"]``.  Conditions
    (a)-(e) are evaluated once, or read from ``report`` when given, and that
    one report is passed to every route.
    """
    if report is None:
        report = check_necessary(pair)
    attempts: dict[str, str] = {}

    def record(out: ConstructorOutcome) -> ConstructorOutcome | None:
        if out.ok:
            return out
        attempts[out.method] = out.reason or out.status
        return None

    out = record(decompose_diagonal_x(pair, report=report))
    if out:
        return out
    if pair.n == 2:
        out = record(decompose_2x2(pair, report=report))
        if out:
            return out
    out = record(decompose_comparison(pair, report=report))
    if out:
        return out
    out = record(decompose_recursive(pair, search_permutations=search_permutations,
                                     report=report))
    if out:
        return out

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
