"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line (visible under ``pytest -s``)
with its measured runtime, and fails if it exceeds its runtime budget.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pcpkit import (
    PairXY,
    abs_ppt_check,
    build_state,
    certify_special_separable,
    check_necessary,
    decompose_auto,
    decompose_comparison,
    decompose_isotropic,
    decompose_recursive,
    enumerate_orderings,
    isotropic_constants,
    l_map_matrix,
    ppt_check,
    realignment_check,
    reconstruct,
    special_unitary,
    strong_cs_gap,
    verify_decomposition,
)
from pcpkit.cldui import dense_matrix, partial_transpose, realign_map
from pcpkit.errors import ConditionsViolatedError
from pcpkit.fileio import load_certificate, load_pair_document
from pcpkit.linalg import (
    entrywise_one_norm,
    is_psd,
    phase_normalize_columns,
    trace_norm,
)

from conftest import (
    cyclic_pair,
    random_2x2_abcd_pair,
    random_decomposable_pair,
    random_decomposition,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} "
          f"({elapsed:.2f} s, budget {budget:g} s)")
    assert ok, f"criterion {number} ran {elapsed:.2f} s, over its {budget:g} s budget"


def test_criterion_01_cyclic_family_norms():
    with criterion(1, "cyclic-family norms and the norm-gap condition", 1.0):
        X = cyclic_pair(1.0).X
        assert abs(entrywise_one_norm(X) - 9.0) <= 1e-10
        assert abs(trace_norm(X) - 3.0) <= 1e-10
        report = check_necessary(cyclic_pair(1.0))
        assert abs(report.x_gap - 6.0) <= 1e-10

        for a in (0.5, 2.0, 5.0):
            pair = cyclic_pair(a)
            s = 1.0 + a + a * a
            one_closed = 3.0 * s / a
            tr_closed = (s + 2.0 * abs(a - 1.0) * np.sqrt(s)) / a
            assert abs(entrywise_one_norm(pair.Y) - one_closed) <= 1e-9
            assert abs(trace_norm(pair.Y) - tr_closed) <= 1e-9
            if a == 2.0:
                assert abs(trace_norm(pair.Y) - (7.0 + 2.0 * np.sqrt(7.0)) / 2.0) <= 1e-9
            report = check_necessary(pair)
            assert report.holds_a and report.holds_b and report.holds_c and report.holds_d
            assert not report.holds_e


def test_criterion_02_row_elimination_regression():
    with criterion(2, "row-elimination failure witness and permutation rescue", 1.0):
        pair, _ = load_pair_document(FIXTURES / "permutation_retry_pair.json")

        out = decompose_recursive(pair, search_permutations=False)
        assert not out.ok
        assert out.info["witness"]["position"] == (2, 3)
        assert out.info["witness"]["radicand"] < 0.0

        out = decompose_recursive(pair, search_permutations=True)
        assert out.ok
        assert verify_decomposition(out.decomposition, pair, tol=1e-8)

        dec, _ = load_certificate(FIXTURES / "permutation_retry_certificate.json")
        assert dec.m == 3
        assert verify_decomposition(dec, pair, tol=1e-8)


def test_criterion_03_comparison_worked_example():
    with criterion(3, "comparison route reproduces the worked 3x3 factors", 1.0):
        pair, _ = load_pair_document(FIXTURES / "comparison_pair.json")
        out = decompose_comparison(pair)
        assert out.ok
        assert out.decomposition.m == 3

        r = 2.0 ** 0.25
        V_ref = np.array([[1, -r, 0], [1, 0, 1j * np.sqrt(2)], [0, 1 / r, 1]], complex)
        W_ref = np.array([[1, 1 / r, 0], [1, 0, 1], [0, r, np.sqrt(2)]], complex)
        np.testing.assert_allclose(phase_normalize_columns(out.decomposition.V),
                                   phase_normalize_columns(V_ref), atol=1e-9)
        np.testing.assert_allclose(phase_normalize_columns(out.decomposition.W),
                                   phase_normalize_columns(W_ref), atol=1e-9)


def test_criterion_04_isotropic_grid():
    with criterion(4, "isotropic family across n = 2..5 with range gating", 2.0):
        for n in (2, 3, 4, 5):
            c_plus, c_minus = isotropic_constants(n)
            assert abs(c_plus * c_minus - (n - 1.0)) <= 1e-10
            assert abs(c_plus ** 2 + c_minus ** 2 - (n * n - n + 2.0)) <= 1e-10

            a = 1.0
            for b in (-a / n, -a / (2.0 * n), 0.0, a / 2.0, a):
                out = decompose_isotropic(n, a, b)
                assert out.ok
                assert verify_decomposition(
                    out.decomposition, reconstruct(out.decomposition), tol=1e-8
                )

            for b in (a + 0.1, -a / n - 0.1):
                out = decompose_isotropic(n, a, b)
                assert out.status == "conditions-violated"


def test_criterion_05_soundness_sweep():
    with criterion(5, "1000 random decompositions satisfy all five conditions", 10.0):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 11))
            pair = reconstruct(random_decomposition(rng, n, m))
            assert check_necessary(pair).all_hold


def test_criterion_06_two_by_two_completeness():
    with criterion(6, "1000 random 2x2 pairs meeting (a)-(d) all decompose", 5.0):
        rng = np.random.default_rng(23456)
        for _ in range(1000):
            pair = random_2x2_abcd_pair(rng)
            out = decompose_auto(pair)
            assert out.ok
            assert verify_decomposition(out.decomposition, pair, tol=1e-8)


def test_criterion_07_criteria_agree_with_dense():
    with criterion(7, "coefficient criteria match their dense counterparts", 30.0):
        rng = np.random.default_rng(34567)
        for trial in range(300):
            n = int(rng.integers(2, 5))
            pair = random_decomposable_pair(rng, n)
            if trial % 3 == 1:
                # push one product below |x_ij|^2, keeping the state valid
                Y = pair.Y.copy()
                i, j = sorted(rng.choice(n, size=2, replace=False))
                if abs(pair.X[i, j]) > 1e-6:
                    Y[i, j] = 0.3 * abs(pair.X[i, j]) ** 2 / max(Y[j, i].real, 1e-12)
                    pair = PairXY(pair.X, Y)
            rho = dense_matrix(pair)
            tr = float(np.trace(rho).real)

            ok, _ = ppt_check(pair)
            assert ok == is_psd(partial_transpose(rho, n))

            res = realignment_check(pair)
            dense_pass = trace_norm(realign_map(rho, n)) <= tr + 1e-8 * max(1.0, tr)
            assert res.passes == dense_pass


def test_criterion_08_vector_inequality():
    with criterion(8, "10^4 vector pairs obey the strengthened inner-product bound", 5.0):
        rng = np.random.default_rng(45678)
        for _ in range(10_000):
            n = int(rng.integers(1, 11))
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs, rhs = strong_cs_gap(v, w)
            assert lhs >= -1e-12
            assert lhs <= rhs + 1e-10

            theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=2)
            lhs2, rhs2 = strong_cs_gap(np.exp(1j * theta) * v, np.exp(1j * phi) * w)
            assert abs(lhs2 - lhs) <= 1e-10 * max(1.0, abs(lhs))
            assert abs(rhs2 - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_criterion_09_ordering_census_and_bases():
    with criterion(9, "ordering census, test matrices, distinguished bases", 60.0):
        tables = {n: enumerate_orderings(n) for n in (2, 3, 4)}
        assert [len(tables[n]) for n in (2, 3, 4)] == [1, 2, 10]

        lam = np.arange(9, 0, -1, dtype=float)
        Z0 = l_map_matrix(tables[3][0], lam)
        Z1 = l_map_matrix(tables[3][1], lam)
        assert np.array_equal(Z0, np.array([[2.0, -7.0, -4.0],
                                            [-7.0, 6.0, -2.0],
                                            [-4.0, -2.0, 12.0]]))
        assert np.array_equal(Z1, np.array([[2.0, -7.0, -5.0],
                                            [-7.0, 8.0, -2.0],
                                            [-5.0, -2.0, 12.0]]))

        s = 1.0 / np.sqrt(2.0)
        U2_ref = np.array([[0.0, 0.0, 0.0, 1.0],
                           [s, 0.0, s, 0.0],
                           [-s, 0.0, s, 0.0],
                           [0.0, 1.0, 0.0, 0.0]])
        np.testing.assert_allclose(special_unitary(tables[2][0]), U2_ref, atol=1e-12)

        def basis(entries):
            U = np.zeros((9, 9))
            for row, col, val in entries:
                U[row, col] = val
            return U

        U31_ref = basis([(0, 8, 1.0), (1, 0, s), (1, 7, s), (2, 1, s), (2, 5, s),
                         (3, 0, -s), (3, 7, s), (4, 6, 1.0), (5, 2, s), (5, 4, s),
                         (6, 1, -s), (6, 5, s), (7, 2, -s), (7, 4, s), (8, 3, 1.0)])
        U32_ref = basis([(0, 8, 1.0), (1, 0, s), (1, 7, s), (2, 1, s), (2, 6, s),
                         (3, 0, -s), (3, 7, s), (4, 5, 1.0), (5, 2, s), (5, 4, s),
                         (6, 1, -s), (6, 6, s), (7, 2, -s), (7, 4, s), (8, 3, 1.0)])
        for table, ref in ((tables[3][0], U31_ref), (tables[3][1], U32_ref)):
            U = special_unitary(table)
            for col in range(9):
                assert (np.allclose(U[:, col], ref[:, col], atol=1e-12)
                        or np.allclose(U[:, col], -ref[:, col], atol=1e-12))


def test_criterion_10_spectrum_certification_pipeline():
    with criterion(10, "certificates for 100 passing spectra, refusal on 100 failing", 60.0):
        rng = np.random.default_rng(56789)
        tables = enumerate_orderings(3)

        passing, failing = [], []
        guard = 0
        while (len(passing) < 100 or len(failing) < 100) and guard < 20_000:
            guard += 1
            alpha = 8.0 if len(passing) < 100 else 0.7
            lam = -np.sort(-rng.dirichlet(np.full(9, alpha)))
            ok, failing_index = abs_ppt_check(3, lam)
            if ok and len(passing) < 100:
                passing.append(lam)
            elif not ok and len(failing) < 100:
                failing.append((lam, failing_index))
        assert len(passing) == 100 and len(failing) == 100

        for lam in passing:
            for table in tables:
                out = certify_special_separable(table, lam)
                assert out.status == "decomposed"
                assert verify_decomposition(out.decomposition, out.info["pair"], tol=1e-8)

        for lam, failing_index in failing:
            out = certify_special_separable(tables[failing_index], lam)
            assert out.status == "not-applicable"
