"""Matrix pairs, joint rank-one decompositions, and the necessary conditions.

A pair (X, Y) is *jointly decomposable* when there are vectors v_k, w_k with

    X = sum_k (v_k . w_k)(v_k . w_k)*      (. = entrywise product)
    Y = sum_k (v_k . conj v_k)(w_k . conj w_k)^T

Five cheap necessary conditions, labelled (a)-(e) throughout the package:

    (a) X is Hermitian positive semidefinite,
    (b) Y is real with non-negative entries,
    (c) the diagonals of X and Y agree,
    (d) |x_ij|^2 <= y_ij y_ji for every i, j,
    (e) the entrywise-1-norm excess over the trace norm of X is at most that of Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from . import linalg
from . import tolerances as tol
from .tolerances import VERIFY
from .errors import (
    ConditionsViolatedError,
    DimensionMismatchError,
    PcpkitError,
)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PairXY:
    """A pair of n x n complex matrices, the object all checks and constructors act on."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = linalg.require_square(self.X)
        Y = linalg.require_square(self.Y)
        if X.shape != Y.shape:
            raise DimensionMismatchError(f"X is {X.shape} but Y is {Y.shape}")
        if X.shape[0] < 1:
            raise PcpkitError("pair must have dimension n >= 1")
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "Y", _frozen_array(Y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @cached_property
    def scale(self) -> float:
        """The magnitude of tests that compare X with Y: the largest entry of either.

        A test of X alone or of Y alone is relative to that matrix's own
        magnitude instead, so a large entry of one never loosens a test of the other.
        """
        return tol.scale(float(np.abs(self.X).max()), float(np.abs(self.Y).max()))

    @cached_property
    def report(self) -> NecessaryReport:
        """The pair's :func:`check_necessary` report, evaluated on first use and then kept."""
        return check_necessary(self)


@dataclass(frozen=True)
class PcpDecomposition:
    """Vectors of a joint decomposition, stored column-wise: V[:, k] = v_k, W[:, k] = w_k."""

    V: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        V = linalg.as_complex_matrix(self.V)
        W = linalg.as_complex_matrix(self.W)
        if V.shape != W.shape:
            raise DimensionMismatchError(f"V is {V.shape} but W is {W.shape}")
        if V.shape[1] < 1:
            raise PcpkitError("a decomposition needs at least one term")
        object.__setattr__(self, "V", _frozen_array(V))
        object.__setattr__(self, "W", _frozen_array(W))

    @classmethod
    def from_vectors(cls, vs, ws) -> "PcpDecomposition":
        if len(vs) != len(ws):
            raise DimensionMismatchError(f"{len(vs)} v-vectors but {len(ws)} w-vectors")
        if not vs:
            raise PcpkitError("a decomposition needs at least one term")
        return cls(np.column_stack(vs), np.column_stack(ws))

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def m(self) -> int:
        return self.V.shape[1]

    @property
    def vs(self) -> list[np.ndarray]:
        return [self.V[:, k] for k in range(self.m)]

    @property
    def ws(self) -> list[np.ndarray]:
        return [self.W[:, k] for k in range(self.m)]


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the five necessary conditions, with witnesses for failures.

    ``x_gap`` and ``y_gap`` always carry the two norm gaps used by condition
    (e), so callers can print the margin even when everything passes.
    ``x_rank`` is the numerical rank of X, read off the spectrum of (a) at
    threshold ``tolerances.RANK`` times its largest magnitude (None when X is
    not Hermitian).
    Witness indices are 1-based, matching the usual row/column convention.
    """

    holds_a: bool
    holds_b: bool
    holds_c: bool
    holds_d: bool
    holds_e: bool
    x_gap: float
    y_gap: float
    x_rank: int | None
    witnesses: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return not self.failing()

    @property
    def holds_abc(self) -> bool:
        return self.holds_a and self.holds_b and self.holds_c

    def failing(self) -> list[str]:
        """The labels of the conditions that fail, in order."""
        return [c for c in "abcde" if not getattr(self, "holds_" + c)]


def _generated(dec: PcpDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The X = A A* for A = V . W and the Y = |V|^2 (|W|^2)^T of a decomposition."""
    A = dec.V * dec.W
    return A @ A.conj().T, (np.abs(dec.V) ** 2) @ (np.abs(dec.W) ** 2).T


def reconstruct(dec: PcpDecomposition) -> PairXY:
    """Assemble the pair generated by a decomposition.  X is Hermitian PSD and Y
    entrywise non-negative by construction, so neither is tested here (the test
    suite holds both properties)."""
    return PairXY(*_generated(dec))


class Residuals(NamedTuple):
    """Frobenius norms of the X and Y residuals of a decomposition, and the scales
    ``tolerances.scale(||X||_F)``, ``tolerances.scale(||Y||_F)`` each is judged against."""

    x: float
    y: float
    x_scale: float
    y_scale: float

    def within(self, tol: float = VERIFY) -> bool:
        return self.x <= tol * self.x_scale and self.y <= tol * self.y_scale


def residuals(dec: PcpDecomposition, pair: PairXY) -> Residuals:
    """Rebuild X and Y from a decomposition and measure them against ``pair``."""
    if dec.n != pair.n:
        raise DimensionMismatchError(f"decomposition is {dec.n}-dimensional, pair is {pair.n}")
    X, Y = _generated(dec)
    return Residuals(float(np.linalg.norm(X - pair.X)),
                     float(np.linalg.norm(Y - pair.Y)),
                     tol.scale(float(np.linalg.norm(pair.X))),
                     tol.scale(float(np.linalg.norm(pair.Y))))


def verify_decomposition(dec: PcpDecomposition, pair: PairXY, tol: float = VERIFY) -> bool:
    """True iff the decomposition reproduces the pair within ``tol`` (see :class:`Residuals`)."""
    return residuals(dec, pair).within(tol)


def check_necessary(pair: PairXY) -> NecessaryReport:
    """Evaluate the five necessary conditions (a)-(e) on a pair.

    Conditions (b)-(d) are whole-array masks.  Each witness is the first
    offender in row-major order (over the strict upper triangle for (d)),
    with its values recomputed from the scalar entries.
    """
    X, Y, n = pair.X, pair.Y, pair.n
    witnesses: dict[str, dict[str, Any]] = {}

    holds_a, lowest, spectrum = linalg.psd_test(X)
    if not holds_a:
        if np.isnan(lowest):
            witnesses["a"] = {"hermiticity_defect": linalg.hermiticity_defect(X)}
        else:
            witnesses["a"] = {"min_eigenvalue": lowest}

    # (b) and (c) are relative to Y and to the two diagonals, not to the whole pair
    bound = tol.ZERO * tol.scale(float(np.abs(Y).max()))
    bad = np.flatnonzero((np.abs(Y.imag) > bound) | (Y.real < -bound))
    holds_b = bad.size == 0
    if not holds_b:
        i, j = divmod(int(bad[0]), n)
        witnesses["b"] = {"position": (i + 1, j + 1), "value": complex(Y[i, j])}

    xd, yd = np.diag(X), np.diag(Y)
    bound = tol.RESIDUAL * tol.scale(float(np.abs(xd).max()), float(np.abs(yd).max()))
    bad = np.flatnonzero(np.abs(xd - yd) > bound)
    holds_c = bad.size == 0
    if not holds_c:
        i = int(bad[0])
        witnesses["c"] = {"position": i + 1, "x": complex(xd[i]), "y": complex(yd[i])}

    # (d): |x_ij|^2 <= y_ij y_ji up to a slack relative to max x_ii^2, which bounds |x_ij|^2
    # for a PSD X whatever Y holds; a product that round-off in Y makes negative counts as 0
    slack = tol.ZERO * tol.scale(float(np.abs(xd).max())) ** 2
    bad = np.flatnonzero(np.triu(np.abs(X) ** 2 > np.maximum((Y * Y.T).real, 0.0) + slack, 1))
    holds_d = bad.size == 0
    if not holds_d:
        i, j = divmod(int(bad[0]), n)
        witnesses["d"] = {"position": (i + 1, j + 1), "lhs": abs(X[i, j]) ** 2,
                          "rhs": (Y[i, j] * Y[j, i]).real}

    # a Hermitian X's trace norm and rank come from the eigenvalues (a) has computed already
    if spectrum is None:
        x_trace, x_rank = linalg.trace_norm(X), None
    else:
        mags = np.abs(spectrum)
        x_trace, x_rank = float(mags.sum()), int((mags > tol.RANK * mags.max()).sum())
    y_one = linalg.entrywise_one_norm(Y)
    x_gap = linalg.entrywise_one_norm(X) - x_trace
    y_gap = y_one - linalg.trace_norm(Y)
    holds_e = x_gap <= y_gap + tol.GAP * tol.scale(y_one)
    if not holds_e:
        witnesses["e"] = {"x_gap": x_gap, "y_gap": y_gap}

    return NecessaryReport(holds_a, holds_b, holds_c, holds_d, holds_e, x_gap, y_gap, x_rank,
                           witnesses)


def strong_cs_gap(v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Both sides of the sharpened Cauchy-Schwarz inequality for a vector pair.

    Returns ``(lhs, rhs)`` with

        lhs = ||v.conj v|| * ||w.conj w|| - <v.conj v, w.conj w>
        rhs = ||v||^2 ||w||^2 - |<v, w>|^2

    and 0 <= lhs <= rhs always; both sides only depend on entry magnitudes
    through lhs, while rhs is phase-sensitive only via the inner product.
    """
    v = linalg.as_complex_vector(v)
    w = linalg.as_complex_vector(w)
    if v.shape != w.shape:
        raise DimensionMismatchError(f"shape mismatch {v.shape} vs {w.shape}")
    a = np.abs(v) ** 2
    b = np.abs(w) ** 2
    lhs = float(np.linalg.norm(a) * np.linalg.norm(b) - a @ b)
    rhs = float(a.sum() * b.sum() - abs(np.vdot(v, w)) ** 2)
    return lhs, rhs


def length_lower_bound(pair: PairXY) -> int:
    """Lower bound on the number of terms any joint decomposition needs: rank(X).

    Requires conditions (a)-(c); the rank is the report's ``x_rank``.
    """
    report = pair.report
    if not report.holds_abc:
        raise ConditionsViolatedError(
            f"conditions {report.failing()} fail; pair is not decomposable", report=report
        )
    return report.x_rank
