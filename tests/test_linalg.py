import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpkit import linalg
from pcpkit.errors import DimensionMismatchError, NotHermitianError, NotSquareError
from pcpkit.tolerances import psd_floor

from conftest import cyclic_norms, cyclic_pair

J3 = np.ones((3, 3))


def test_hermitian_eigenvalues_identity():
    np.testing.assert_allclose(linalg.hermitian_eigenvalues(np.eye(3)), [1, 1, 1])


def test_hermitian_eigenvalues_all_ones():
    np.testing.assert_allclose(linalg.hermitian_eigenvalues(J3), [3, 0, 0], atol=1e-12)


def test_hermitian_eigenvalues_diagonal_descending():
    np.testing.assert_allclose(linalg.hermitian_eigenvalues(np.diag([2.0, -1.0])), [2, -1])


def test_hermitian_eigenvalues_sum_is_trace():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = B + B.conj().T
        w = linalg.hermitian_eigenvalues(A)
        assert (np.diff(w) <= 1e-12).all()
        assert abs(w.sum() - np.trace(A).real) <= 1e-9 * max(1.0, abs(np.trace(A).real))


def test_hermitian_eigenvalues_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_rejects_rectangular():
    with pytest.raises(NotSquareError):
        linalg.hermitian_eigenvalues(np.ones((2, 3)))


def test_is_psd_examples():
    assert linalg.is_psd(J3)
    assert not linalg.is_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    X = np.array([[2, 1, -1], [1, 3, 2j], [-1, -2j, 3]], complex)
    assert linalg.is_psd(X)


def test_is_psd_rejects_nonhermitian_quietly():
    # not an error, simply not PSD
    assert not linalg.is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_real_data_runs_real_lapack_with_the_complex_decisions(monkeypatch):
    """Matrices held as complex128 whose imaginary part is exactly zero are
    factorized in real arithmetic, with the decisions and spectra of the
    complex path; some have their lowest eigenvalue within 10x of the PSD
    floor, on either side.  A Hermitian matrix with an imaginary part stays complex."""
    dtypes = []
    for name in ("eigvalsh", "svd"):
        routine = getattr(np.linalg, name)

        def recorded(A, *args, _routine=routine, **kwargs):
            dtypes.append(np.asarray(A).dtype)
            return _routine(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)

    rng = np.random.default_rng(29)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = np.append(0.0, rng.uniform(0.1, 10.0, n - 1))
        floor = psd_floor(w)
        factor = [0.1, -0.1, 0.3, -0.3, 3.0, -3.0, 10.0, -10.0][trial % 8]
        w[0] = factor * floor
        A = (Q * w) @ Q.T
        A = ((A + A.T) / 2).astype(complex)
        if trial % 10 == 9:
            H = rng.standard_normal((n, n))
            A = A + 1j * (H - H.T) * 1e-3
        dtypes.clear()
        psd, lowest, spectrum = linalg.psd_test(A)
        eigenvalues = linalg.hermitian_eigenvalues(A)
        norm = linalg.trace_norm(A)
        assert dtypes == [np.complex128 if A.imag.any() else np.float64] * 3
        reference = np.linalg.eigvalsh(A)
        assert psd == (reference.min() >= -psd_floor(reference))
        assert psd == (factor > -1.0) or A.imag.any()
        bound = 1e-13 * np.abs(reference).max()
        assert np.abs(spectrum - reference).max() <= bound
        assert np.abs(eigenvalues[::-1] - reference).max() <= bound
        assert abs(lowest - reference.min()) <= bound
        assert abs(norm - np.linalg.svd(A, compute_uv=False).sum()) <= 1e-13 * n * norm


def test_trace_norm_all_ones():
    assert linalg.trace_norm(J3) == pytest.approx(3.0, abs=1e-12)


def test_trace_norm_identity():
    for n in (1, 2, 5, 9):
        assert linalg.trace_norm(np.eye(n)) == pytest.approx(float(n), abs=1e-12)


def test_trace_norm_cyclic_closed_form():
    """The 3x3 cyclic ratio matrix has known norms for every parameter value."""
    for a in (0.5, 2.0, 5.0, 1.0, 3.7):
        Y = cyclic_pair(a).Y
        one, tr = cyclic_norms(a)
        assert linalg.entrywise_one_norm(Y) == pytest.approx(one, abs=1e-9)
        assert linalg.trace_norm(Y) == pytest.approx(tr, abs=1e-9)
    assert cyclic_norms(2.0)[1] == pytest.approx((7 + 2 * np.sqrt(7)) / 2)


def test_trace_norm_equals_abs_eigenvalue_sum():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = B + B.conj().T
        want = np.abs(np.linalg.eigvalsh(A)).sum()
        assert linalg.trace_norm(A) == pytest.approx(want, rel=1e-9)


def test_trace_norm_at_most_entrywise_one_norm():
    # ||A||_tr <= ||A||_1 for arbitrary complex matrices
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        A = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        assert linalg.trace_norm(A) <= linalg.entrywise_one_norm(A) + 1e-10


def test_psd_gap_is_offdiagonal_mass():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = B @ B.conj().T
        gap = linalg.entrywise_one_norm(A) - linalg.trace_norm(A)
        off = np.abs(A).sum() - np.abs(np.diag(A)).sum()
        assert gap == pytest.approx(off, abs=1e-8 * max(1.0, off))


def test_entrywise_one_norm_zero():
    assert linalg.entrywise_one_norm(np.zeros((4, 4))) == 0.0


def test_hadamard_vectors():
    np.testing.assert_allclose(linalg.hadamard(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
                               [3.0, 8.0])
    v = np.array([2.0, -1.0, 0.5])
    np.testing.assert_allclose(linalg.hadamard(v, np.ones(3)), v)
    np.testing.assert_allclose(linalg.hadamard(np.array([1, 1j]), np.array([1, -1j])),
                               [1.0, 1.0])


def test_hadamard_matrices_and_mismatch():
    A = np.arange(4.0).reshape(2, 2)
    np.testing.assert_allclose(linalg.hadamard(A, A), A * A)
    with pytest.raises(DimensionMismatchError):
        linalg.hadamard(np.ones(2), np.ones(3))


def test_constructors_reject_nonfinite():
    with pytest.raises(Exception):
        linalg.as_complex_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(Exception):
        linalg.as_complex_vector(np.array([np.inf, 0.0]))


def test_phase_normalize_columns():
    M = np.array([[0.0, -2.0], [1j, 1.0]])
    P = linalg.phase_normalize_columns(M)
    # first non-negligible entry of each column is real positive afterwards
    assert P[1, 0] == pytest.approx(1.0)
    assert P[0, 1] == pytest.approx(2.0)
    # column magnitudes unchanged
    np.testing.assert_allclose(np.abs(P), np.abs(M), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_trace_norm_dominance_property(n, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    assert linalg.trace_norm(A) <= linalg.entrywise_one_norm(A) + 1e-10
    assert linalg.trace_norm(A) >= 0.0
