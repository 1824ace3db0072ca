"""The tolerance policy: every numerical threshold of the package, named once.

Each tolerance is relative.  A test multiplies it by the magnitude named
beside it, taken through :func:`scale`, so that an input and any positive
multiple of it are judged alike.  That magnitude is the one of the values
the test compares: a test of X alone is relative to X, of Y alone to Y, and
no test reads the largest entry of the pair as a whole.
"""

import numpy as np

VERIFY = 1e-8         # certificate residuals (Frobenius), each per its own matrix's norm
GAP = 1e-8            # slack of (e) and of the realignment criterion, per ||Y||_1 or the trace
PSD = 1e-9            # floor under the smallest eigenvalue, per the sum of |eigenvalues|
RANK = 1e-9           # eigenvalues counted as zero, per the largest eigenvalue
STRUCTURE = 1e-10     # structural zeros (Hermiticity, diagonal X, CLDUI pattern), per largest entry
RESIDUAL = 1e-9       # exact-arithmetic zeros ((c), eliminations, slacks), per largest entry
ZERO = 1e-12          # round-off zeros (entries, pivots, radicands, (d), spectra), per own max entry
FLUSH = 1e-13         # round-off the comparison split drops: |x_ij| per largest x_ij, slack per y_ij
PERTURBATION = 1e-10  # shift separating a degenerate Perron eigenvalue, per largest entry


def scale(*magnitudes: float) -> float:
    """The magnitude a tolerance multiplies: the largest of ``magnitudes``, or 1
    when all vanish (any positive scale judges exact zeros alike)."""
    return max(magnitudes) or 1.0


def scales(magnitudes: np.ndarray) -> np.ndarray:
    """:func:`scale` of each entry of ``magnitudes``, one per item of a stack."""
    return np.where(magnitudes > 0.0, magnitudes, 1.0)


def psd_floor(w: np.ndarray):
    """How far below zero the smallest of the eigenvalues ``w`` (last axis) may dip."""
    return PSD * np.abs(w).sum(axis=-1)
