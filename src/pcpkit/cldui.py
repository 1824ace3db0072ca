"""Bipartite states invariant under conjugate local diagonal unitaries.

A pair (X, Y) satisfying conditions (a)-(c) encodes an (unnormalized) state on
C^n (x) C^n whose only non-zero entries sit at

    rho[(i, i), (j, j)] = x_ij          (the X skeleton)
    rho[(i, j), (i, j)] = y_ij, i != j  (the Y diagonal)

with the flat index (i, k) -> i*n + k (0-based).  Such states are exactly the
ones fixed by averaging over U (x) conj(U) for diagonal unitaries U, and their
separability is equivalent to joint decomposability of (X, Y): a certificate
transfers by conjugating the w-vectors.

Everything here has a coefficient-level O(n^2) implementation; the dense
n^2 x n^2 realization is materialized lazily and used for cross-checks only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from . import linalg
from . import tolerances as tol
from .errors import (
    ConditionsViolatedError,
    NotClduiError,
    WrongDimensionError,
)
from .construct import CRITERIA, ConstructorOutcome, decompose_auto
from .pairs import NecessaryReport, PairXY, PcpDecomposition

SEPARABLE = "separable"
ENTANGLED = "entangled"
INCONCLUSIVE = "inconclusive"


def dense_matrix(pair: PairXY) -> np.ndarray:
    """The dense n^2 x n^2 realization of a coefficient pair (no conditions required)."""
    n = pair.n
    rho = np.diag(pair.Y.ravel())
    skeleton = np.arange(n) * (n + 1)        # the flat indices (i, i)
    rho[np.ix_(skeleton, skeleton)] = pair.X
    return rho


@dataclass(frozen=True)
class ClduiState:
    """A state described by its coefficient pair; the dense matrix is built on demand."""

    pair: PairXY

    @property
    def n(self) -> int:
        return self.pair.n

    @cached_property
    def dense(self) -> np.ndarray:
        rho = dense_matrix(self.pair)
        rho.setflags(write=False)
        return rho

    @property
    def trace(self) -> float:
        return float(np.trace(self.pair.X).real + (np.abs(self.pair.Y).sum()
                     - np.abs(np.diag(self.pair.Y)).sum()))


def _state_report(pair: PairXY) -> NecessaryReport:
    """The report on (a)-(e); raises unless (a)-(c) hold, as the state must be positive."""
    report = pair.report
    if not report.holds_abc:
        raise ConditionsViolatedError(
            f"conditions {report.failing()} fail; the pair does not describe a state",
            report=report,
        )
    return report


def build_state(pair: PairXY) -> ClduiState:
    """Wrap a coefficient pair as a state; conditions (a)-(c) are required for positivity."""
    _state_report(pair)
    return ClduiState(pair)


def _require_dense(rho, n: int) -> np.ndarray:
    rho = linalg.require_square(rho)
    if rho.shape[0] != n * n:
        raise WrongDimensionError(f"expected a {n * n} x {n * n} matrix, got {rho.shape}")
    return rho


def _stray_entry(rho: np.ndarray, n: int) -> tuple[int, int] | None:
    """The (0-based) largest entry outside the invariant zero pattern, or None when
    every such entry is below ``tolerances.STRUCTURE`` times the largest entry magnitude."""
    ones = np.ones((n, n))
    stray = np.abs(rho) * (dense_matrix(PairXY(ones, ones)) == 0.0)
    if stray.max() <= tol.STRUCTURE * tol.scale(float(np.abs(rho).max())):
        return None
    r, c = np.unravel_index(int(stray.argmax()), stray.shape)
    return int(r), int(c)


def extract_pair(rho: np.ndarray, n: int) -> PairXY:
    """Read the coefficient pair back out of a dense matrix.

    Every entry outside the invariant zero pattern must be negligible
    (below ``tolerances.STRUCTURE`` times the largest entry magnitude),
    otherwise the matrix is not of this family and ``NotClduiError`` reports
    the largest offender (1-based flat coordinates).
    """
    rho = _require_dense(rho, n)
    if (stray := _stray_entry(rho, n)) is not None:
        r, c = stray
        raise NotClduiError(
            f"entry ({r + 1}, {c + 1}) = {rho[r, c]:.3e} violates the invariant zero pattern",
            coordinate=(r + 1, c + 1),
        )
    skeleton = np.arange(n) * (n + 1)        # the flat indices (i, i)
    return PairXY(rho[np.ix_(skeleton, skeleton)], np.diag(rho).reshape(n, n))


def is_diagonal_unitary_invariant(rho: np.ndarray, n: int) -> bool:
    """Whether U (x) conj(U) rho (U (x) conj(U))* = rho for every diagonal unitary U.

    For U = diag(exp(i t)) the conjugation multiplies rho[(i,k),(j,l)] by
    exp(i (t_i - t_k - t_j + t_l)), which is 1 for every t exactly when
    {i, l} = {j, k}: the invariant zero pattern.  So the test is exact, and
    asks what :func:`extract_pair` asks: that no entry off that pattern is
    above its negligibility threshold.
    """
    return _stray_entry(_require_dense(rho, n), n) is None


def partial_transpose(rho: np.ndarray, n: int) -> np.ndarray:
    """Transpose the second tensor factor: ((i,k),(j,l)) -> ((i,l),(j,k))."""
    rho = _require_dense(rho, n)
    return rho.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)


def realign_map(rho: np.ndarray, n: int) -> np.ndarray:
    """The realignment rearrangement: R[(i,j),(k,l)] = rho[(i,k),(j,l)]."""
    rho = _require_dense(rho, n)
    return rho.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def ppt_check(pair: PairXY) -> tuple[bool, dict[str, Any] | None]:
    """Positivity of the partial transpose, at coefficient level.

    For this family the partial transpose splits into the diagonal of X and
    2x2 blocks [[y_ij, x_ij], [x_ji, y_ji]], so positivity is exactly the
    entrywise product condition (d): this reads (d) and its witness from
    the pair's necessary-condition report.
    """
    report = _state_report(pair)
    return report.holds_d, report.witnesses.get("d")


class RealignmentResult(NamedTuple):
    x_gap: float
    y_gap: float
    passes: bool


def realignment_check(pair: PairXY) -> RealignmentResult:
    """The realignment criterion, at coefficient level: gap(X) <= gap(Y).

    Here gap(A) = ||A||_1 - ||A||_tr; the trace norm of the realigned dense
    matrix equals (||X||_1 - tr X) + ||Y||_tr, which makes the criterion
    condition (e) for states of this family: this reads (e) and both gaps
    from the pair's necessary-condition report.
    """
    report = _state_report(pair)
    return RealignmentResult(report.x_gap, report.y_gap, report.holds_e)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the separability analysis of one state."""

    verdict: str
    criterion: str | None = None
    certificate: PcpDecomposition | None = None
    outcome: ConstructorOutcome | None = None
    report: NecessaryReport | None = None
    witness: dict[str, Any] | None = None


def separability_verdict(pair: PairXY) -> SeparabilityVerdict:
    """Classify the state of a coefficient pair.

    Entangled when one of the :data:`~pcpkit.construct.CRITERIA` fails (the
    first in their order is named); separable when a joint decomposition is
    found (the certificate: replace each w_k by its conjugate to obtain product
    vectors); inconclusive otherwise.  Conditions (a)-(e) are evaluated once;
    every criterion and construction route reads that one report.
    """
    report = _state_report(pair)
    for criterion, condition in CRITERIA.items():
        if not getattr(report, f"holds_{condition}"):
            return SeparabilityVerdict(ENTANGLED, criterion=criterion, report=report,
                                       witness=report.witnesses[condition])
    outcome = decompose_auto(pair)
    if outcome.ok:
        return SeparabilityVerdict(
            SEPARABLE,
            criterion=outcome.method,
            certificate=outcome.decomposition,
            outcome=outcome,
            report=report,
        )
    return SeparabilityVerdict(INCONCLUSIVE, outcome=outcome, report=report)
