"""Shared generators for the test suite.

All randomness is seeded per test; the helpers here only build values.
"""

from pathlib import Path

import numpy as np
import pytest

import pcpkit.cldui
import pcpkit.construct
import pcpkit.linalg
from pcpkit import PairXY, PcpDecomposition, check_necessary, reconstruct
from pcpkit.fileio import load_pair_document

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


def random_decomposition(rng, n, m) -> PcpDecomposition:
    V = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    W = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return PcpDecomposition(V, W)


def random_decomposable_pair(rng, n, m=None) -> PairXY:
    if m is None:
        m = int(rng.integers(n, 2 * n + 2))
    return reconstruct(random_decomposition(rng, n, m))


def random_2x2_abcd_pair(rng) -> PairXY:
    """A 2x2 pair satisfying (a)-(d): PSD X, then y entries at least the products."""
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if rng.random() < 0.15:
        B[1, :] = 0.0          # rank-one corner
    if rng.random() < 0.1:
        B[:, 1] = 0.0
    X = B @ B.conj().T
    f = rng.uniform(0.3, 3.0)
    g = rng.uniform(1.0, 2.0)
    y12 = abs(X[0, 1]) * f * g
    y21 = abs(X[0, 1]) / f if f > 0 else 0.0
    if rng.random() < 0.1:
        y12 = y21 = abs(X[0, 1])   # boundary of condition (d)
    Y = np.array([[X[0, 0].real, y12], [y21, X[1, 1].real]], complex)
    return PairXY(X, Y)


def cyclic_pair(a: float) -> PairXY:
    """All-ones X against the 3x3 cyclic ratio matrix with parameter a."""
    X = np.ones((3, 3))
    Y = np.array([[1, a, 1 / a], [1 / a, 1, a], [a, 1 / a, 1]])
    return PairXY(X, Y)


def cyclic_norms(a: float) -> tuple[float, float]:
    """Closed forms for the entrywise 1-norm and trace norm of the cyclic Y."""
    one = 3.0 * (1.0 + a + a * a) / a
    tr = (1.0 + a + a * a + 2.0 * abs(a - 1.0) * np.sqrt(1.0 + a + a * a)) / a
    return one, tr


@pytest.fixture
def necessary_calls(monkeypatch) -> list:
    """Record every ``check_necessary`` call that ``pairs`` makes, which is where
    ``PairXY.report`` evaluates the conditions for every consumer."""
    calls = []

    def counted(pair):
        calls.append(pair)
        return check_necessary(pair)

    monkeypatch.setattr(pcpkit.pairs, "check_necessary", counted)
    return calls


@pytest.fixture
def solver_calls(monkeypatch) -> dict:
    """Count the eigensolver, component-analysis and Hermiticity-test calls that
    ``construct`` makes."""
    calls = {"eigvalsh": 0, "eigh": 0, "components": 0, "hermitian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(pcpkit.construct, "_graph_components",
                        counted("components", pcpkit.construct._graph_components))
    monkeypatch.setattr(pcpkit.linalg, "is_hermitian",
                        counted("hermitian", pcpkit.linalg.is_hermitian))
    return calls


def verdict_cases() -> list[tuple[tuple[str, str | None], PairXY]]:
    """``((verdict, criterion), pair)`` covering every outcome of
    ``separability_verdict`` and every construction route that can certify,
    with a diagonal X and an n = 2 pair among the comparison route's."""
    inconclusive, _ = load_pair_document(FIXTURES / "inconclusive_pair.json")
    return [
        (("separable", "comparison"), PairXY(np.diag([2.0, 1.0]),
                                             np.array([[2.0, 3.0], [0.5, 1.0]]))),
        (("separable", "comparison"), PairXY(np.array([[2.0, 1.0j], [-1.0j, 3.0]]),
                                             np.array([[2.0, 2.0], [1.0, 3.0]]))),
        (("separable", "comparison"), PairXY(np.array([[2, 1, -1], [1, 8, 1], [-1, 1, 4]]),
                                             np.array([[2, 1, 3], [2, 8, 1], [1, 2, 4]]))),
        (("separable", "recursive"), PairXY(np.ones((3, 3)), np.ones((3, 3)))),
        (("entangled", "ppt"), PairXY(np.array([[1.0, 0.9], [0.9, 1.0]]),
                                      np.array([[1.0, 0.5], [0.5, 1.0]]))),
        (("entangled", "realignment"), cyclic_pair(2.0)),
        (("inconclusive", None), inconclusive),
    ]
