import itertools

import numpy as np
import pytest

import pcpkit.linalg
from pcpkit import (
    PairXY,
    build_state,
    check_necessary,
    dense_matrix,
    extract_pair,
    is_diagonal_unitary_invariant,
    partial_transpose,
    ppt_check,
    realign_map,
    realignment_check,
    reconstruct,
    separability_verdict,
    tolerances,
)
from pcpkit.errors import ConditionsViolatedError, NotClduiError, WrongDimensionError
from pcpkit.linalg import entrywise_one_norm, is_psd, trace_norm
from pcpkit.pairs import length_lower_bound

from conftest import cyclic_pair, random_decomposable_pair, random_decomposition, verdict_cases


def coded_pair(n):
    """X and Y with position-coded entries, for layout checks only."""
    X = np.array([[10 * i + j for j in range(n)] for i in range(n)], complex)
    Y = np.array([[100 * i + j for j in range(n)] for i in range(n)], complex)
    return PairXY(X, Y)


def test_dense_layout_positions():
    n = 3
    pair = coded_pair(n)
    rho = dense_matrix(pair)
    for i in range(n):
        for j in range(n):
            assert rho[i * n + i, j * n + j] == pair.X[i, j]
            if i != j:
                assert rho[i * n + j, i * n + j] == pair.Y[i, j]
    # everything else is zero
    mask = np.zeros((n * n, n * n), bool)
    for i in range(n):
        for j in range(n):
            mask[i * n + i, j * n + j] = True
            mask[i * n + j, i * n + j] = True
    assert np.abs(rho[~mask]).max() == 0.0


def test_dense_extract_round_trip():
    rng = np.random.default_rng(101)
    for n in (2, 3, 4):
        pair = random_decomposable_pair(rng, n)
        back = extract_pair(dense_matrix(pair), n)
        np.testing.assert_allclose(back.X, pair.X, atol=1e-12)
        np.testing.assert_allclose(back.Y, pair.Y, atol=1e-12)


def test_extract_flags_off_pattern_entries():
    rho = np.zeros((4, 4), complex)
    rho[0, 1] = 0.3          # (1, 2) is outside the allowed pattern for n = 2
    with pytest.raises(NotClduiError) as err:
        extract_pair(rho, 2)
    assert err.value.coordinate == (1, 2)
    with pytest.raises(WrongDimensionError):
        extract_pair(np.zeros((5, 5)), 2)


def test_build_state_gates_on_conditions():
    rng = np.random.default_rng(103)
    pair = random_decomposable_pair(rng, 3)
    state = build_state(pair)
    assert state.n == 3
    with pytest.raises(ConditionsViolatedError):
        build_state(PairXY(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2))))
    # (c) failure is also fatal
    with pytest.raises(ConditionsViolatedError):
        build_state(PairXY(np.eye(2), 2 * np.eye(2)))


def test_trace_equals_entrywise_norm_of_y():
    rng = np.random.default_rng(107)
    for _ in range(30):
        pair = random_decomposable_pair(rng, int(rng.integers(1, 5)))
        state = build_state(pair)
        assert state.trace == pytest.approx(entrywise_one_norm(pair.Y), abs=1e-10)
        assert state.trace == pytest.approx(float(np.trace(state.dense).real), abs=1e-10)


def test_dense_psd_iff_coefficient_conditions():
    """Positivity of the dense realization tracks conditions (a) and (b)."""
    rng = np.random.default_rng(109)
    for trial in range(500):
        n = int(rng.integers(2, 5))
        pair = random_decomposable_pair(rng, n)
        mode = trial % 3
        if mode == 1:
            X = pair.X.copy()
            shift = np.linalg.eigvalsh(X).max() * rng.uniform(0.5, 1.5) + 0.1
            X = X - shift * np.eye(n)
            Y = pair.Y.copy()
            np.fill_diagonal(Y, np.diag(X).real)      # keep (c) intact
            pair = PairXY(X, Y)
        elif mode == 2:
            Y = pair.Y.copy()
            i, j = 0, n - 1
            Y[i, j] = -abs(Y[i, j]) - rng.uniform(0.1, 1.0)
            pair = PairXY(pair.X, Y)
        report = check_necessary(pair)
        assert is_psd(dense_matrix(pair)) == (report.holds_a and report.holds_b)


def test_partial_transpose_involution_and_blocks():
    rng = np.random.default_rng(113)
    n = 3
    pair = random_decomposable_pair(rng, n)
    rho = dense_matrix(pair)
    pt = partial_transpose(rho, n)
    np.testing.assert_allclose(partial_transpose(pt, n), rho, atol=1e-14)
    # the partial transpose moves x_ij to the (ij),(ji) corner of a 2x2 block
    for i in range(n):
        for j in range(n):
            if i != j:
                assert pt[i * n + j, j * n + i] == pair.X[i, j]
                assert pt[i * n + j, i * n + j] == pair.Y[i, j]


def test_ppt_check_matches_dense():
    rng = np.random.default_rng(127)
    agree = 0
    for trial in range(120):
        n = int(rng.integers(2, 6))
        pair = random_decomposable_pair(rng, n)
        if trial % 2:
            # shrink one product below |x_ij|^2 to break the block condition
            Y = pair.Y.copy()
            i, j = sorted(rng.choice(n, size=2, replace=False))
            if abs(pair.X[i, j]) > 1e-6:
                Y[i, j] = abs(pair.X[i, j]) ** 2 / max(Y[j, i].real, 1e-12) * 0.5
                pair = PairXY(pair.X, Y)
        ok, witness = ppt_check(pair)
        dense_ok = is_psd(partial_transpose(dense_matrix(pair), n))
        assert ok == dense_ok
        agree += 1
        if not ok:
            assert witness["position"] is not None
    assert agree == 120


def test_realignment_matches_dense():
    rng = np.random.default_rng(131)
    pairs = [random_decomposable_pair(rng, int(rng.integers(2, 5))) for _ in range(40)]
    pairs += [cyclic_pair(a) for a in (0.5, 0.9, 1.0, 1.1, 2.0, 5.0)]
    for pair in pairs:
        res = realignment_check(pair)
        rho = dense_matrix(pair)
        lhs = trace_norm(realign_map(rho, pair.n))
        tr = float(np.trace(rho).real)
        dense_pass = lhs <= tr + 1e-8 * max(1.0, tr)
        assert res.passes == dense_pass
        # the realigned trace norm decomposes into coefficient-level pieces
        want = (entrywise_one_norm(pair.X) - float(np.trace(pair.X).real)
                + trace_norm(pair.Y))
        assert lhs == pytest.approx(want, abs=1e-8 * max(1.0, want))


def twisted_invariant(rho, n, rng, samples=25) -> bool:
    """Invariance as sampled: conjugate by U (x) conj(U) for random diagonal
    unitaries U and compare (the exact test's reference)."""
    scale = tolerances.scale(float(np.linalg.norm(rho)))
    for _ in range(samples):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
        c = np.kron(phases, phases.conj())
        if np.linalg.norm(c[:, None] * rho * c.conj()[None, :] - rho) > tolerances.RESIDUAL * scale:
            return False
    return True


def test_diagonal_unitary_invariance():
    rng = np.random.default_rng(137)
    pair = random_decomposable_pair(rng, 3)
    assert is_diagonal_unitary_invariant(dense_matrix(pair), 3)
    rho = dense_matrix(pair).copy()
    rho[0, 1] = rho[1, 0] = 0.7          # off the invariant pattern
    assert not is_diagonal_unitary_invariant(rho, 3)


@pytest.mark.parametrize("n", [2, 3])
def test_invariance_is_exactly_the_zero_pattern(n):
    """Each single entry set on its own: on the pattern {i, l} = {j, k} of
    rho[(i,k),(j,l)] the state stays invariant, off it the test flags it, and
    the sampled twist agrees either way."""
    rng = np.random.default_rng(151 + n)
    base = dense_matrix(random_decomposable_pair(rng, n))
    for r, c in itertools.product(range(n * n), repeat=2):
        (i, k), (j, l) = divmod(r, n), divmod(c, n)
        rho = base.copy()
        rho[r, c] += 0.7 - 0.4j
        on_pattern = {i, l} == {j, k}
        assert is_diagonal_unitary_invariant(rho, n) == on_pattern, (r, c)
        assert twisted_invariant(rho, n, rng) == on_pattern, (r, c)


def test_twirl_soundness_small():
    """States built from explicit decompositions are certified separable."""
    rng = np.random.default_rng(139)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        dec = random_decomposition(rng, n, int(rng.integers(n, 2 * n + 2)))
        pair = reconstruct(dec)
        assert is_diagonal_unitary_invariant(dense_matrix(pair), n)
        v = separability_verdict(pair)
        assert v.verdict == "separable"
        assert v.certificate is not None


def test_separable_never_flagged_entangled():
    # soundness at sizes where certification may fall through: the two
    # criteria must still never fire on a state with an explicit decomposition
    rng = np.random.default_rng(149)
    for _ in range(40):
        n = int(rng.integers(4, 6))
        pair = random_decomposable_pair(rng, n)
        assert separability_verdict(pair).verdict != "entangled"


def test_wide_y_certificates_reproduce_x():
    """Scaling one y_ij by 1e4..1e12 keeps a pair decomposable (it adds the term
    v = e_i, w = sqrt(c) e_j), and every certificate must still reproduce X on
    X's own scale, not on the one that y_ij sets."""
    separable = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 3
        pair = random_decomposable_pair(rng, n)
        Y = pair.Y.copy()
        i, j = rng.choice(n, size=2, replace=False)
        Y[i, j] *= 10.0 ** rng.uniform(4.0, 12.0)
        pair = PairXY(pair.X, Y)
        v = separability_verdict(pair)
        assert v.verdict != "entangled", seed
        if v.verdict == "separable":
            separable += 1
            rebuilt = reconstruct(v.certificate)
            assert np.linalg.norm(rebuilt.X - pair.X) <= 1e-8 * np.linalg.norm(pair.X), seed
            assert np.linalg.norm(rebuilt.Y - pair.Y) <= 1e-8 * np.linalg.norm(pair.Y), seed
    assert separable >= 290


def test_verdicts_on_known_families():
    v = separability_verdict(cyclic_pair(2.0))
    assert v.verdict == "entangled" and v.criterion == "realignment"
    assert v.witness["x_gap"] > v.witness["y_gap"]

    bad_ppt = PairXY(np.array([[1.0, 0.9], [0.9, 1.0]]),
                     np.array([[1.0, 0.5], [0.5, 1.0]]))
    v = separability_verdict(bad_ppt)
    assert v.verdict == "entangled" and v.criterion == "ppt"

    v = separability_verdict(cyclic_pair(1.0))
    assert v.verdict == "separable"

    with pytest.raises(ConditionsViolatedError):
        separability_verdict(PairXY(np.eye(2), -np.eye(2)))


def test_verdict_evaluates_conditions_once(necessary_calls):
    for expected, pair in verdict_cases():
        necessary_calls.clear()
        v = separability_verdict(pair)
        assert (v.verdict, v.criterion) == expected
        assert len(necessary_calls) == 1, expected


def test_verdict_validates_each_array_once(monkeypatch):
    """A verdict coerces X and Y once, in ``PairXY``, and a certificate's V and W
    once, in ``PcpDecomposition``; nothing downstream coerces them again."""
    coerced = []
    coerce = pcpkit.linalg.as_complex_matrix
    monkeypatch.setattr(pcpkit.linalg, "as_complex_matrix",
                        lambda a: coerced.append(a) or coerce(a))
    caps = {"separable": 4, "inconclusive": 2}
    seen = set()
    rng = np.random.default_rng(5)
    while seen != set(caps):
        generated = random_decomposable_pair(rng, 30)
        coerced.clear()
        v = separability_verdict(PairXY(generated.X, generated.Y))
        assert len(coerced) <= caps[v.verdict], v.verdict
        seen.add(v.verdict)


def test_criteria_read_the_report():
    for expected, pair in verdict_cases():
        report = check_necessary(pair)
        assert ppt_check(pair) == (report.holds_d, report.witnesses.get("d"))
        assert tuple(realignment_check(pair)) == (report.x_gap, report.y_gap, report.holds_e)


def test_a_definite_decomposable_verdict_diagonalizes_neither_x_nor_y(monkeypatch):
    """A Cholesky factorization settles (a) and the norm bound settles (e) for a positive
    definite decomposable pair, and its gap(X) exceeds tr X, which refutes the comparison
    route from the report: its verdict runs no SVD and no eigensolver at all.  The gap
    of Y and the rank of X, read afterwards, are the values the singular values of Y and
    the eigenvalues of X give."""
    pair = random_decomposable_pair(np.random.default_rng(17), 30)
    calls = {"eigvalsh": [], "eigh": [], "svd": []}

    def recorded(name, fn):
        def wrapper(a, *args, **kwargs):
            calls[name].append(np.array(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "svd", recorded("svd", np.linalg.svd))
    check_necessary(pair)
    assert calls == {"eigvalsh": [], "eigh": [], "svd": []}
    assert separability_verdict(pair).verdict == "separable"
    assert calls == {"eigvalsh": [], "eigh": [], "svd": []}
    monkeypatch.undo()

    report = pair.report
    w = np.linalg.eigvalsh(pair.X)
    assert report.y_gap == entrywise_one_norm(pair.Y) - trace_norm(pair.Y)
    assert report.x_rank == int((np.abs(w) > tolerances.RANK * np.abs(w).max()).sum()) == 30
    assert length_lower_bound(pair) == report.x_rank
    assert report.x_gap == pytest.approx(entrywise_one_norm(pair.X) - np.abs(w).sum(), rel=1e-13)


def test_wrong_dimension_errors():
    with pytest.raises(WrongDimensionError):
        partial_transpose(np.eye(6), 2)
    with pytest.raises(WrongDimensionError):
        realign_map(np.eye(6), 2)
