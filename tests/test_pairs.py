import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpkit import (
    PairXY,
    PcpDecomposition,
    check_necessary,
    length_lower_bound,
    linalg,
    reconstruct,
    strong_cs_gap,
    verify_decomposition,
)
from pcpkit.errors import ConditionsViolatedError, DimensionMismatchError, PcpkitError
from pcpkit.pairs import residuals

from conftest import cyclic_pair, random_decomposition


def test_pair_validation():
    with pytest.raises(PcpkitError):
        PairXY(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        PairXY(np.ones((2, 2)), np.ones((3, 3)))
    with pytest.raises(PcpkitError):
        PairXY(np.array([[np.nan]]), np.array([[1.0]]))
    pair = PairXY(np.eye(2), np.eye(2))
    assert pair.n == 2
    assert not pair.X.flags.writeable


def test_decomposition_accessors():
    dec = PcpDecomposition.from_vectors([np.ones(3), np.zeros(3)], [np.ones(3), np.ones(3)])
    assert dec.n == 3 and dec.m == 2
    np.testing.assert_allclose(dec.vs[0], np.ones(3))
    with pytest.raises(DimensionMismatchError):
        PcpDecomposition.from_vectors([np.ones(2)], [np.ones(2), np.ones(2)])
    with pytest.raises(PcpkitError):
        PcpDecomposition.from_vectors([], [])


def test_reconstruct_all_ones():
    # v = w = 1 gives X = J and Y = J
    dec = PcpDecomposition.from_vectors([np.ones(3)], [np.ones(3)])
    pair = reconstruct(dec)
    np.testing.assert_allclose(pair.X, np.ones((3, 3)), atol=1e-14)
    np.testing.assert_allclose(pair.Y, np.ones((3, 3)), atol=1e-14)


def test_reconstruct_verify_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 11))
        dec = random_decomposition(rng, n, m)
        pair = reconstruct(dec)
        assert verify_decomposition(dec, pair, tol=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 18), st.integers(0, 2**31 - 1))
def test_reconstruct_is_psd_and_non_negative_by_construction(n, m, seed):
    """X = A A* passes ``is_psd`` and Y is real and >= 0 by construction, which
    ``reconstruct`` relies on untested; V and W span magnitudes 10^-8..10^8."""
    rng = np.random.default_rng(seed)

    def factor():
        phase = np.exp(2j * np.pi * rng.random((n, m)))
        return 10.0 ** rng.uniform(-8.0, 8.0, (n, m)) * phase

    pair = reconstruct(PcpDecomposition(factor(), factor()))
    assert linalg.is_psd(pair.X)
    assert pair.Y.real.min() >= 0.0 and not pair.Y.imag.any()


def test_random_decompositions_pass_necessary_conditions():
    """Reconstructed pairs satisfy all five conditions; they are genuine members."""
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 11))
        report = check_necessary(reconstruct(random_decomposition(rng, n, m)))
        assert report.all_hold, report.failing()


def test_verify_rejects_wrong_pair():
    rng = np.random.default_rng(41)
    dec = random_decomposition(rng, 3, 4)
    pair = reconstruct(dec)
    other = PairXY(pair.X + np.eye(3), pair.Y + np.eye(3))
    assert not verify_decomposition(dec, pair.__class__(other.X, other.Y))
    with pytest.raises(DimensionMismatchError):
        verify_decomposition(dec, PairXY(np.eye(2), np.eye(2)))


def test_verification_is_right_at_any_scale():
    """A decomposition and its pair scaled together (the pair by s, V and W by s^(1/4))
    verify alike: the honest certificate passes and one with W doubled fails, also
    where the squares in the Frobenius norms overflow (s = 1e160) or underflow
    (s = 1e-170, 1e-200), and without a RuntimeWarning.  The doubled certificate's
    residuals scale with the pair."""
    rng = np.random.default_rng(0)
    V = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    W = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    pair = reconstruct(PcpDecomposition(V, W))
    unit = residuals(PcpDecomposition(V, 2.0 * W), pair)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1.0, 1e150, 1e160, 1e-170, 1e-200):
            scaled, r = PairXY(pair.X * s, pair.Y * s), s ** 0.25
            assert verify_decomposition(PcpDecomposition(r * V, r * W), scaled)
            assert not verify_decomposition(PcpDecomposition(r * V, 2.0 * r * W), scaled)
            res = residuals(PcpDecomposition(r * V, 2.0 * r * W), scaled)
            assert np.allclose(np.array(res) / s, unit, rtol=1e-12, atol=0.0)


def test_check_necessary_tests_hermiticity_once(monkeypatch):
    """A singular PSD X, whose Cholesky factorization fails, is diagonalized once for
    (a) without a second Hermiticity test, and is judged as ``is_psd`` judges it."""
    calls = []
    is_hermitian = linalg.is_hermitian

    def counted(A):
        calls.append(A)
        return is_hermitian(A)

    monkeypatch.setattr(linalg, "is_hermitian", counted)
    pair = reconstruct(PcpDecomposition.from_vectors([np.ones(3)], [np.ones(3)]))
    assert linalg.cholesky_certifies_psd(pair.X) is None
    report = check_necessary(pair)
    assert len(calls) == 1
    monkeypatch.undo()
    spectrum = linalg.hermitian_eigenvalues(pair.X)[::-1]
    holds = linalg.is_psd(pair.X)
    assert holds == linalg.psd_spectrum(spectrum)[0]
    assert report.all_hold and holds and "a" not in report.witnesses
    assert report.x_rank == 1 and report.x_gap == np.abs(pair.X).sum() - np.abs(spectrum).sum()


def test_cyclic_family_fails_only_norm_condition():
    for a in (0.5, 2.0, 5.0):
        report = check_necessary(cyclic_pair(a))
        assert report.failing() == ["e"]
        assert report.x_gap == pytest.approx(6.0, abs=1e-10)
        assert report.witnesses["e"]["x_gap"] > report.witnesses["e"]["y_gap"]
    assert check_necessary(cyclic_pair(1.0)).all_hold


def test_condition_witnesses_carry_positions():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    bad_b = PairXY(X, np.array([[1.0, -0.5], [0.2, 1.0]]))
    rep = check_necessary(bad_b)
    assert not rep.holds_b and rep.witnesses["b"]["position"] == (1, 2)

    bad_c = PairXY(X, np.array([[2.0, 0.1], [0.1, 1.0]]))
    rep = check_necessary(bad_c)
    assert not rep.holds_c and rep.witnesses["c"]["position"] == 1

    bad_d = PairXY(np.array([[1.0, 0.9], [0.9, 1.0]]),
                   np.array([[1.0, 0.5], [0.5, 1.0]]))
    rep = check_necessary(bad_d)
    assert not rep.holds_d and rep.witnesses["d"]["position"] == (1, 2)

    bad_a = PairXY(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2)))
    rep = check_necessary(bad_a)
    assert not rep.holds_a and "min_eigenvalue" in rep.witnesses["a"]


def loop_witnesses(X, Y):
    """Reference for (b)-(d): the per-entry loops, first offender wins."""
    n = X.shape[0]
    out = {}
    # (b) is relative to Y, (c) to the two diagonals, (d) to X's largest diagonal entry
    y_scale = float(np.abs(Y).max()) or 1.0
    diag_scale = max(max(abs(X[i, i]), abs(Y[i, i])) for i in range(n)) or 1.0
    x_diag = max(abs(X[i, i]) for i in range(n)) or 1.0
    for i in range(n):
        for j in range(n):
            y = Y[i, j]
            bound = 1e-12 * y_scale
            if abs(y.imag) > bound or y.real < -bound:
                out["b"] = {"position": (i + 1, j + 1), "value": complex(y)}
                break
        if "b" in out:
            break
    for i in range(n):
        xd, yd = X[i, i], Y[i, i]
        if abs(xd - yd) > 1e-9 * diag_scale:
            out["c"] = {"position": i + 1, "x": complex(xd), "y": complex(yd)}
            break
    slack = 1e-12 * x_diag * x_diag
    for i in range(n):
        for j in range(i + 1, n):
            lhs = abs(X[i, j]) ** 2
            rhs = (Y[i, j] * Y[j, i]).real
            if lhs > max(rhs, 0.0) + slack:
                out["d"] = {"position": (i + 1, j + 1), "lhs": lhs, "rhs": rhs}
                return out
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_witnesses_match_loop_reference(n, seed, nb, nc, nd):
    """Several planted offenders per condition: the reported witness is the
    first one in loop order, with exactly the loop's values and types."""
    rng = np.random.default_rng(seed)
    pair = reconstruct(random_decomposition(rng, n, int(rng.integers(1, 2 * n + 2))))
    X, Y = pair.X.copy(), pair.Y.copy()
    for _ in range(nb):
        i, j = rng.integers(0, n, size=2)
        if rng.random() < 0.5:
            Y[i, j] = -rng.uniform(1e-3, 1.0) * max(1.0, abs(Y[i, j]))
        else:
            Y[i, j] += 1j * rng.uniform(1e-3, 1.0)
    for _ in range(nc):
        i = rng.integers(0, n)
        Y[i, i] += rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1.0)
    for _ in range(nd if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        Y[i, j] = rng.uniform(0.0, 0.9) * abs(X[i, j]) ** 2 / max(Y[j, i].real, 1e-12)
    report = check_necessary(PairXY(X, Y))
    want = loop_witnesses(X, Y)
    for c in "bcd":
        assert getattr(report, f"holds_{c}") == (c not in want)
        # repr pins the Python types of positions and values as well
        assert repr(report.witnesses.get(c)) == repr(want.get(c))


def test_strong_cs_examples():
    lhs, rhs = strong_cs_gap(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert lhs == pytest.approx(1.0)   # ||a|| ||b|| - <a,b> = 1 - 0
    assert rhs == pytest.approx(1.0)
    lhs, rhs = strong_cs_gap(np.ones(3), np.ones(3))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        strong_cs_gap(np.ones(2), np.ones(3))


def test_strong_cs_bounds_random():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        n = int(rng.integers(1, 11))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs = strong_cs_gap(v, w)
        assert lhs >= -1e-12
        assert rhs - lhs >= -1e-10


def test_strong_cs_phase_behaviour():
    """Entrywise phases leave the left side alone; the right side is smallest
    (the inequality sharpest) once all entries are made non-negative."""
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs = strong_cs_gap(v, w)

        # single-entry phase: lhs unchanged
        k = int(rng.integers(0, n))
        v2 = v.copy()
        v2[k] *= np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs2, _ = strong_cs_gap(v2, w)
        assert lhs2 == pytest.approx(lhs, abs=1e-10)

        # global phases: both sides unchanged
        gv = np.exp(1j * rng.uniform(0, 2 * np.pi))
        gw = np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs3, rhs3 = strong_cs_gap(gv * v, gw * w)
        assert lhs3 == pytest.approx(lhs, abs=1e-10)
        assert rhs3 == pytest.approx(rhs, abs=1e-10)

        # stripping phases entirely can only shrink the right side
        lhs4, rhs4 = strong_cs_gap(np.abs(v), np.abs(w))
        assert lhs4 == pytest.approx(lhs, abs=1e-10)
        assert rhs4 <= rhs + 1e-10


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**31 - 1))
def test_strong_cs_property(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lhs, rhs = strong_cs_gap(v, w)
    assert -1e-12 <= lhs <= rhs + 1e-10


def test_length_lower_bound():
    # all-ones pair is rank one
    pair = reconstruct(PcpDecomposition.from_vectors([np.ones(3)], [np.ones(3)]))
    assert length_lower_bound(pair) == 1
    # a generic 3-term decomposition has rank-3 X
    rng = np.random.default_rng(53)
    dec = random_decomposition(rng, 3, 5)
    pair = reconstruct(dec)
    assert length_lower_bound(pair) <= dec.m
    assert length_lower_bound(pair) == 3
    with pytest.raises(ConditionsViolatedError):
        length_lower_bound(PairXY(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2))))


def test_length_lower_bound_never_exceeds_known_m():
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        dec = random_decomposition(rng, n, m)
        assert length_lower_bound(reconstruct(dec)) <= m
