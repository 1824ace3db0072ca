"""Exception types shared across the package.

Everything derives from :class:`PcpkitError` (itself a ``ValueError``) so
callers can catch one base type at API boundaries.
"""

from __future__ import annotations


class PcpkitError(ValueError):
    """Base class for all pcpkit errors."""


class NotSquareError(PcpkitError):
    """A square matrix was required."""


class NotHermitianError(PcpkitError):
    """A Hermitian matrix was required."""


class DimensionMismatchError(PcpkitError):
    """Two operands have incompatible shapes or lengths."""


class WrongDimensionError(PcpkitError):
    """The operand has the wrong size for this operation (e.g. not 2x2, not n^2 x n^2)."""


class ConditionsViolatedError(PcpkitError):
    """The pair fails a necessary condition required by this operation."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ComparisonNotPsdError(PcpkitError):
    """The comparison matrix of X is not positive semidefinite."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NotClduiError(PcpkitError):
    """A dense matrix does not have the locally diagonal-unitary invariant zero pattern."""

    def __init__(self, message: str, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class UnsupportedDimensionError(PcpkitError):
    """The requested local dimension is outside the supported range."""


class NotSortedError(PcpkitError):
    """A spectrum had to be sorted in non-increasing order."""


class InvalidOrderingError(PcpkitError):
    """An ordering table is malformed or inconsistent."""


class ConstructionError(PcpkitError):
    """An internal construction step produced an inconsistent result."""
