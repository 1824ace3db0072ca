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

import math
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

    ``x_gap`` and ``y_gap`` carry the two norm gaps used by condition (e), so
    callers can print the margin even when everything passes.  ``x_rank`` is
    the numerical rank of X, read off its spectrum at threshold
    ``tolerances.RANK`` times its largest magnitude (None when X is not
    Hermitian).  When (a) and (e) were settled without the spectrum of X or
    the singular values of Y (see :func:`check_necessary`), ``x_rank`` and
    ``y_gap`` are computed on first read, from the pair's matrices, and kept:
    their values do not depend on how the conditions were settled.
    Witness indices are 1-based, matching the usual row/column convention.
    The Cholesky factor of X that settled (a), if one did, is kept for the
    row-by-row elimination, which reads its columns.
    """

    holds_a: bool
    holds_b: bool
    holds_c: bool
    holds_d: bool
    holds_e: bool
    x_gap: float
    witnesses: dict[str, dict[str, Any]] = field(default_factory=dict)
    # the pair's matrices, which y_gap and x_rank are computed from on first read, the
    # exponent e of the power of two that (e) divides the pair by, and X's Cholesky factor
    _X: np.ndarray | None = field(default=None, repr=False, compare=False)
    _Y: np.ndarray | None = field(default=None, repr=False, compare=False)
    _e: int = field(default=0, repr=False, compare=False)
    _factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def y_gap(self) -> float:
        """||Y||_1 - ||Y||_tr, the norm gap of Y, taken on Y / 2^e as (e) takes it."""
        Ys = _scaled(self._Y, -self._e)
        return math.ldexp(linalg.entrywise_one_norm(Ys) - linalg.trace_norm(Ys), self._e)

    @cached_property
    def x_rank(self) -> int | None:
        """The numerical rank of X, from its eigenvalues (None when X is not Hermitian,
        which :func:`check_necessary` records, as it records the rank when (a) has
        diagonalized X)."""
        return _numerical_rank(np.linalg.eigvalsh(linalg._lapack_operand(self._X)))

    @property
    def all_hold(self) -> bool:
        return not self.failing()

    @property
    def holds_abc(self) -> bool:
        return self.holds_a and self.holds_b and self.holds_c

    def failing(self) -> list[str]:
        """The labels of the conditions that fail, in order."""
        return [c for c in "abcde" if not getattr(self, "holds_" + c)]


def _generated(V: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The X = A A* for A = V . W and the Y = |V|^2 (|W|^2)^T of a decomposition's columns,
    or of each item of stacks V, W (B, n, m)."""
    A = V * W
    return A @ A.conj().swapaxes(-1, -2), (np.abs(V) ** 2) @ (np.abs(W) ** 2).swapaxes(-1, -2)


def reconstruct(dec: PcpDecomposition) -> PairXY:
    """Assemble the pair generated by a decomposition.  X is Hermitian PSD and Y
    entrywise non-negative by construction, so neither is tested here (the test
    suite holds both properties)."""
    return PairXY(*_generated(dec.V, dec.W))


def _assembled(cls, **arrays: np.ndarray):
    """A :class:`PairXY` or :class:`PcpDecomposition` (``cls``) holding read-only complex
    copies of ``arrays``, which the caller has already checked as ``cls`` checks them."""
    obj = object.__new__(cls)
    for name, a in arrays.items():
        object.__setattr__(obj, name, _frozen_array(a))
    return obj


def _finite_items(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Whether every entry of item b of the stacks A and B is finite, for each b."""
    return np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))


class Residuals(NamedTuple):
    """Frobenius norms of the X and Y residuals of a decomposition, and the scales
    ``tolerances.scale(||X||_F)``, ``tolerances.scale(||Y||_F)`` each is judged against."""

    x: float
    y: float
    x_scale: float
    y_scale: float

    def within(self, tol: float = VERIFY) -> bool:
        return self.x <= tol * self.x_scale and self.y <= tol * self.y_scale


# a norm below this may have lost its squares to underflow (see _frobenius)
_TINY_NORM = 2.0 ** -460


def _frobenius(D: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a complex stack D (B, n, m), summed as
    ``np.linalg.norm`` sums one matrix: one dot product of the real parts, one of the
    imaginary parts.  An item whose squares overflow, or whose norm is below 2^-460,
    is summed again divided by the power of two just above its largest entry, which is
    exact, so its norm is finite whenever it fits a float and keeps its relative
    precision down to the smallest floats; every other norm keeps its bits.  A norm of
    at least 2^-460 is right as summed: its largest square is at least 2^-920 / (n m),
    and the at most n m squares below 2^-1022 (the subnormals, which lose precision)
    add at most n m 2^-1074 to it, a relative 2^-134 for n m up to 2^20."""
    B, n, m = D.shape
    flat = D.reshape(B, 1, n * m)
    re, im = flat.real, flat.imag
    with np.errstate(over="ignore"):
        norms = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])
        redo = (norms < _TINY_NORM) | np.isinf(norms)
        if redo.any():
            e = np.frexp(np.abs(D[redo]).max(axis=(1, 2)))[1]
            parts = np.ldexp(D[redo].view(float), -e[:, None, None])
            norms[redo] = np.ldexp(np.sqrt((parts * parts).sum(axis=(1, 2))), e)
    return norms


def _residual_stack(V: np.ndarray, W: np.ndarray, X: np.ndarray, Y: np.ndarray
                    ) -> list[Residuals]:
    """The :class:`Residuals` of each decomposition of the complex stacks V, W (B, n, m)
    against the pair of the complex stacks X, Y (B, n, n): the norms of both residuals
    and of both matrices of every pair, in one pass over the stack."""
    gx, gy = _generated(V, W)
    D = np.empty((4,) + X.shape, complex)
    np.subtract(gx, X, out=D[0])
    np.subtract(gy, Y, out=D[1])
    D[2], D[3] = X, Y
    x, y, x_norm, y_norm = _frobenius(D.reshape(-1, *X.shape[1:])).reshape(4, -1).tolist()
    return [Residuals(rx, ry, tol.scale(xn), tol.scale(yn))
            for rx, ry, xn, yn in zip(x, y, x_norm, y_norm)]


def residuals(dec: PcpDecomposition, pair: PairXY) -> Residuals:
    """Rebuild X and Y from a decomposition and measure them against ``pair``.

    The arithmetic runs on stacks, and one decomposition is a stack of one: the batch
    that verifies every ordering of a spectrum at once (``abssep``) runs the same
    routine once per distinct term count, on the pairs and columns it has checked once
    for the whole stack.  Each item is summed as it is alone, so its residuals are
    bitwise those of this call.
    """
    if dec.n != pair.n:
        raise DimensionMismatchError(f"decomposition is {dec.n}-dimensional, pair is {pair.n}")
    return _residual_stack(dec.V[None], dec.W[None], pair.X[None], pair.Y[None])[0]


def verify_decomposition(dec: PcpDecomposition, pair: PairXY, tol: float = VERIFY) -> bool:
    """True iff the decomposition reproduces the pair within ``tol`` (see :class:`Residuals`)."""
    return residuals(dec, pair).within(tol)


def _scaled(A: np.ndarray, e: int) -> np.ndarray:
    """A times 2^e, exact unless an entry leaves the normal range; A itself when e = 0."""
    return A * 2.0 ** e if e else A


def _numerical_rank(w: np.ndarray) -> int:
    """How many of the eigenvalues ``w`` exceed ``tolerances.RANK`` times the largest magnitude."""
    mags = np.abs(w)
    return int((mags > tol.RANK * mags.max()).sum())


def check_necessary(pair: PairXY) -> NecessaryReport:
    """Evaluate the five necessary conditions (a)-(e) on a pair.

    Conditions (b)-(d) are whole-array masks.  Each witness is the first
    offender in row-major order (over the strict upper triangle for (d)),
    with its values recomputed from the scalar entries.  (d) is judged on X
    and Y divided by X's largest diagonal entry, so neither |x_ij|^2 nor
    y_ij y_ji underflows or overflows at any scale of the pair.

    (a) and (e) ask about the spectrum of X and the singular values of Y, and
    each is first settled by a certificate that needs neither:

    * (a): a Hermitian X whose Cholesky factorization succeeds is PSD within
      the floor (:func:`~pcpkit.linalg.cholesky_certifies_psd` proves it from the
      factorization's backward error), and then ||X||_tr = tr X.  When the
      factorization fails, X is diagonalized and judged as
      :func:`~pcpkit.linalg.is_psd` judges it, and ||X||_tr is the sum of
      |eigenvalues|.  A non-Hermitian X fails (a) on its Hermiticity defect (tested
      once) and gets one SVD, for ||X||_tr.
    * (e): ||Y||_tr <= sqrt(rank Y) ||Y||_F <= sqrt(n) ||Y||_F = U (Cauchy-Schwarz
      on the singular values), so gap(Y) >= ||Y||_1 - U, and x_gap <= ||Y||_1 - U
      proves x_gap <= gap(Y).  U is computed on Y divided by its largest entry, so
      the squares in ||Y||_F neither underflow nor overflow, and the slack
      ``GAP * ||Y||_1`` that the judgement by singular values grants is far
      above the round-off of U and of the SVD, so the bound never passes a pair
      that judgement fails.  Only when the bound fails does ``linalg.trace_norm(Y)``
      judge (e), as ever.

    Every sum of (e), the 1-norms, the bound and the trace norms, is taken on X and
    Y divided by 2^e, the least power of two that keeps n^2 times the pair's largest
    entry below 2^1000, and reported times 2^e.  That is exact, bar entries pushed
    below the normal range, and no sum overflows, so the gaps are finite for any
    finite pair.  e = 0, and the pair is summed as it is, unless its largest entry
    is above about 1e300 / n^2.

    Either way the report holds the same judgements; ``y_gap`` and ``x_rank``
    that a certificate did not need are computed on first read (see
    :class:`NecessaryReport`).
    """
    X, Y, n = pair.X, pair.Y, pair.n
    witnesses: dict[str, dict[str, Any]] = {}
    abs_x, abs_y = np.abs(X), np.abs(Y)
    y_max = float(abs_y.max())
    e = max(0, math.frexp(max(float(abs_x.max()), y_max))[1] + 2 * n.bit_length() - 1000)

    hermitian = linalg.is_hermitian(X)
    factor = linalg.cholesky_certifies_psd(X) if hermitian else None
    if factor is not None:
        holds_a, x_trace = True, float(_scaled(X.diagonal().real, -e).sum())
    elif not hermitian:
        holds_a, witnesses["a"] = False, {"hermiticity_defect": linalg.hermiticity_defect(X)}
        x_trace, x_rank = linalg.trace_norm(_scaled(X, -e)), None
    else:
        spectrum = np.linalg.eigvalsh(linalg._lapack_operand(X))
        psd, lowest = linalg.psd_spectrum(spectrum)
        holds_a = bool(psd)
        if not holds_a:
            witnesses["a"] = {"min_eigenvalue": float(lowest)}
        x_trace, x_rank = float(_scaled(np.abs(spectrum), -e).sum()), _numerical_rank(spectrum)

    # (b) and (c) are relative to Y and to the two diagonals, not to the whole pair
    y_scale = tol.scale(y_max)
    bound = tol.ZERO * y_scale
    bad = np.flatnonzero((np.abs(Y.imag) > bound) | (Y.real < -bound))
    holds_b = bad.size == 0
    if not holds_b:
        i, j = divmod(int(bad[0]), n)
        witnesses["b"] = {"position": (i + 1, j + 1), "value": complex(Y[i, j])}

    xd, yd = np.diag(X), np.diag(Y)
    x_diag = float(np.abs(xd).max())
    bound = tol.RESIDUAL * tol.scale(x_diag, float(np.abs(yd).max()))
    bad = np.flatnonzero(np.abs(xd - yd) > bound)
    holds_c = bad.size == 0
    if not holds_c:
        i = int(bad[0])
        witnesses["c"] = {"position": i + 1, "x": complex(xd[i]), "y": complex(yd[i])}

    # (d): |x_ij|^2 <= y_ij y_ji up to a slack relative to max x_ii^2, which bounds |x_ij|^2
    # for a PSD X whatever Y holds; a product that round-off in Y makes negative counts as 0,
    # and one beyond the largest float reads as inf, which (d) passes
    s = tol.scale(x_diag)
    ax, ys = abs_x / s, linalg._lapack_operand(Y) / s
    with np.errstate(over="ignore"):                # beyond about 1e154 the witness is inf too
        bad = np.flatnonzero(np.triu(ax * ax > np.maximum((ys * ys.T).real, 0.0) + tol.ZERO, 1))
        holds_d = bad.size == 0
        if not holds_d:
            i, j = divmod(int(bad[0]), n)
            witnesses["d"] = {"position": (i + 1, j + 1), "lhs": abs(X[i, j]) ** 2,
                              "rhs": (Y[i, j] * Y[j, i]).real}

    # (e), on the pair divided by 2^e: x_trace and the sums below are in units of 2^e
    y_one = float(_scaled(abs_y, -e).sum())
    x_sum = float(_scaled(abs_x, -e).sum()) - x_trace
    bound = math.ldexp(y_scale, -e) * math.sqrt(n) * float(np.linalg.norm(abs_y / y_scale))
    if x_sum <= y_one - bound:
        holds_e, y_gap = True, None
    else:
        y_sum = y_one - linalg.trace_norm(_scaled(Y, -e))
        holds_e = x_sum <= y_sum + tol.GAP * tol.scale(y_one)
        y_gap = math.ldexp(y_sum, e)
    x_gap = math.ldexp(x_sum, e)
    if not holds_e:
        witnesses["e"] = {"x_gap": x_gap, "y_gap": y_gap}

    report = NecessaryReport(holds_a, holds_b, holds_c, holds_d, holds_e, x_gap, witnesses,
                             _X=X, _Y=Y, _e=e, _factor=factor)
    # what (a) and (e) computed anyway is kept as the cached value of its property
    if factor is None:
        object.__setattr__(report, "x_rank", x_rank)
    if y_gap is not None:
        object.__setattr__(report, "y_gap", y_gap)
    return report


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

    Requires conditions (a)-(c); the rank is the report's ``x_rank``, read off
    the eigenvalues of X.  When the Cholesky certificate settled (a), the first
    read diagonalizes X (once; the report keeps the rank).
    """
    report = pair.report
    if not report.holds_abc:
        raise ConditionsViolatedError(
            f"conditions {report.failing()} fail; pair is not decomposable", report=report
        )
    return report.x_rank
