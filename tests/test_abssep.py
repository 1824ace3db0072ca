import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpkit import (
    abs_ppt_check,
    certify_special_separable,
    enumerate_orderings,
    l_map_matrix,
    special_unitary,
    verify_decomposition,
)
from pcpkit import PairXY, abssep, construct, linalg, pairs
from pcpkit.abssep import OrderingTable, _check_spectrum, ordering_min_eigenvalues
from pcpkit.cldui import extract_pair, partial_transpose
from pcpkit.construct import _graph_components, comparison_split
from pcpkit.errors import (
    ConstructionError,
    DimensionMismatchError,
    InvalidOrderingError,
    NotSortedError,
    PcpkitError,
    UnsupportedDimensionError,
)
from pcpkit.linalg import hermitian_eigenvalues, is_psd
from pcpkit.pairs import reconstruct, residuals

S = 1.0 / np.sqrt(2.0)

U1_REF_N2 = np.array([
    [0.0, 0.0, 0.0, 1.0],
    [S,   0.0, S,   0.0],
    [-S,  0.0, S,   0.0],
    [0.0, 1.0, 0.0, 0.0],
])

# the two 9x9 bases for n = 3, rows indexed by e_i (x) e_j in flat order
U1_REF_N3 = np.zeros((9, 9))
U1_REF_N3[0, 8] = 1.0
U1_REF_N3[1, 0], U1_REF_N3[1, 7] = S, S
U1_REF_N3[2, 1], U1_REF_N3[2, 5] = S, S
U1_REF_N3[3, 0], U1_REF_N3[3, 7] = -S, S
U1_REF_N3[4, 6] = 1.0
U1_REF_N3[5, 2], U1_REF_N3[5, 4] = S, S
U1_REF_N3[6, 1], U1_REF_N3[6, 5] = -S, S
U1_REF_N3[7, 2], U1_REF_N3[7, 4] = -S, S
U1_REF_N3[8, 3] = 1.0

U2_REF_N3 = np.zeros((9, 9))
U2_REF_N3[0, 8] = 1.0
U2_REF_N3[1, 0], U2_REF_N3[1, 7] = S, S
U2_REF_N3[2, 1], U2_REF_N3[2, 6] = S, S
U2_REF_N3[3, 0], U2_REF_N3[3, 7] = -S, S
U2_REF_N3[4, 5] = 1.0
U2_REF_N3[5, 2], U2_REF_N3[5, 4] = S, S
U2_REF_N3[6, 1], U2_REF_N3[6, 6] = -S, S
U2_REF_N3[7, 2], U2_REF_N3[7, 4] = -S, S
U2_REF_N3[8, 3] = 1.0


@pytest.fixture(autouse=True)
def fresh_spectrum_record():
    """Each test starts without a kept spectrum record and leaves none behind, so a
    batch built under a patched routine answers no other test."""
    abssep._spectrum_record.cache_clear()
    yield
    abssep._spectrum_record.cache_clear()


def random_spectrum(rng, size):
    lam = -np.sort(-rng.uniform(0.0, 1.0, size=size))
    return lam / lam.sum()


def columns_match_up_to_sign(A, B, tol=1e-12):
    return all(
        np.allclose(A[:, j], B[:, j], atol=tol) or np.allclose(A[:, j], -B[:, j], atol=tol)
        for j in range(A.shape[1])
    )


def sampled_orderings(n, samples, seed):
    """Product orderings found by seeded sampling: an oracle independent of the tables.

    Alpha vectors are sorted absolute values of standard normals; a draw is
    kept only when all consecutive product gaps clear a 1e-6 relative
    threshold, and draws are repeated until ``samples`` valid ones have been
    seen.  Returns the set of slot tuples found.
    """
    rng = np.random.default_rng(seed)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    slots = [("square", k) for k in range(n)]
    slots += [("plus", k, l) for k, l in pairs] + [("minus", k, l) for k, l in pairs]
    found = set()
    valid = 0
    while valid < samples:
        batch = min(20_000, samples - valid + 5_000)
        alphas = -np.sort(-np.abs(rng.standard_normal((batch, n))), axis=1)
        cols = [alphas[:, k] ** 2 for k in range(n)]
        cols += [alphas[:, k] * alphas[:, l] for k, l in pairs]
        cols += [-alphas[:, k] * alphas[:, l] for k, l in pairs]
        prods = np.column_stack(cols)
        order = np.argsort(-prods, axis=1, kind="stable")
        ranked = np.take_along_axis(prods, order, axis=1)
        gaps = ranked[:, :-1] - ranked[:, 1:]
        ok = (gaps > 1e-6 * np.maximum(1.0, np.abs(ranked[:, :-1]))).all(axis=1)
        ok &= alphas[:, -1] > 0.0
        valid += int(ok.sum())
        found.update(tuple(slots[i] for i in row) for row in order[ok])
    return found


def l_map_loop(ordering, lam):
    """The reference for ``l_map_matrix``: the test matrix of one ordering, filled slot
    by slot from a sorted, non-negative spectrum."""
    n = ordering.n
    pos = {slot: m for m, slot in enumerate(ordering.slots)}
    mu = np.asarray(lam, dtype=float)[::-1]      # mu[m] = lambda_{n^2 - m}, 0-based
    Z = np.zeros((n, n))
    for k in range(n):
        Z[k, k] = 2.0 * mu[pos[("square", k)]]
        for l in range(k + 1, n):
            Z[k, l] = Z[l, k] = mu[pos[("plus", k, l)]] - mu[pos[("minus", k, l)]]
    return Z


def certified_pair_loop(ordering, lam) -> PairXY:
    """The pair that ``certify_special_separable`` certifies, built slot by slot:
    X = Z / 2 for the test matrix Z, diag Y = diag X, y_kl = y_lk = (plus + minus) / 2."""
    n = ordering.n
    pos = {slot: m for m, slot in enumerate(ordering.slots)}
    mu = np.asarray(lam, dtype=float)[::-1]
    X = l_map_loop(ordering, lam) / 2.0
    Y = X.copy()
    for k in range(n):
        for l in range(k + 1, n):
            Y[k, l] = Y[l, k] = (mu[pos[("plus", k, l)]] + mu[pos[("minus", k, l)]]) / 2.0
    return PairXY(X, Y)


def test_ordering_counts_and_seed_stability():
    expected = {2: 1, 3: 2, 4: 10}
    for n, count in expected.items():
        tables = enumerate_orderings(n)
        assert len(tables) == count
        stored = {t.slots for t in tables}
        for seed in (0, 1, 2):
            assert sampled_orderings(n, 50_000, seed) == stored


def test_n5_census_best_effort():
    tables = enumerate_orderings(5)
    assert len(tables) == 114
    assert [t.slots for t in tables] == [t.slots for t in enumerate_orderings(5)]
    stored = {t.slots for t in tables}
    for seed in (0, 1, 2):
        assert sampled_orderings(5, 50_000, seed) <= stored
    assert sampled_orderings(5, 100_000, 12345) == stored


def test_tables_are_listed_canonically_without_repeats():
    for n in (2, 3, 4, 5):
        tables = enumerate_orderings(n)
        keys = [t.sort_key() for t in tables]
        assert keys == sorted(set(keys))


def test_stored_tables_are_decoded_once_and_shared_read_only():
    """Each call returns a new list of the same decoded tables, so a caller that
    edits its list leaves the next call's alone, and no caller can write a
    table's arrays."""
    listed = [t.slots for t in enumerate_orderings(4)]
    first = enumerate_orderings(4)
    first.pop()
    first.reverse()
    second = enumerate_orderings(4)
    assert [t.slots for t in second] == listed
    assert all(a is b for a, b in zip(second, enumerate_orderings(4)))
    table = second[0]
    with pytest.raises(ValueError):
        table.witness[0] = 0.0
    with pytest.raises(ValueError):
        table.positions[0] = 0


def test_witnesses_realize_their_orderings():
    for n in (2, 3, 4, 5):
        for table in enumerate_orderings(n):
            a = table.witness
            assert np.all(a > 0.0) and np.all(a[:-1] > a[1:])
            values = []
            for slot in table.slots:
                if slot[0] == "square":
                    values.append(a[slot[1]] ** 2)
                elif slot[0] == "plus":
                    values.append(a[slot[1]] * a[slot[2]])
                else:
                    values.append(-a[slot[1]] * a[slot[2]])
            assert all(x > y for x, y in zip(values, values[1:]))


def test_generator_reproduces_the_stored_tables():
    pytest.importorskip("scipy")
    path = Path(__file__).resolve().parents[1] / "scripts" / "ordering_tables.py"
    spec = importlib.util.spec_from_file_location("ordering_tables", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    regenerated = generator.render({n: generator.tables(n) for n in generator.DIMS})
    assert regenerated == generator.DATA_PATH.read_text()


def test_l_maps_on_counting_spectrum():
    lam = np.arange(9, 0, -1, dtype=float)
    first, second = enumerate_orderings(3)
    Z0 = l_map_matrix(first, lam)
    Z1 = l_map_matrix(second, lam)
    assert np.array_equal(Z0, np.array([[2.0, -7.0, -4.0],
                                        [-7.0, 6.0, -2.0],
                                        [-4.0, -2.0, 12.0]]))
    assert np.array_equal(Z1, np.array([[2.0, -7.0, -5.0],
                                        [-7.0, 8.0, -2.0],
                                        [-5.0, -2.0, 12.0]]))
    assert np.array_equal(Z0, l_map_loop(first, lam))
    assert np.array_equal(Z1, l_map_loop(second, lam))


def test_special_unitary_n2_matches_reference():
    (table,) = enumerate_orderings(2)
    np.testing.assert_allclose(special_unitary(table), U1_REF_N2, atol=1e-12)


def test_special_unitary_n3_matches_reference_up_to_column_sign():
    first, second = enumerate_orderings(3)
    assert columns_match_up_to_sign(special_unitary(first), U1_REF_N3)
    assert columns_match_up_to_sign(special_unitary(second), U2_REF_N3)


def test_n2_check_equals_two_by_two_matrix_condition():
    rng = np.random.default_rng(211)
    seen = {True: 0, False: 0}
    for _ in range(200):
        lam = random_spectrum(rng, 4)
        if rng.uniform() < 0.5:
            lam = rng.dirichlet(np.full(4, 0.5))
            lam = -np.sort(-lam)
        l1, l2, l3, l4 = lam
        M = np.array([[2 * l4, l3 - l1], [l3 - l1, 2 * l2]])
        ok, _ = abs_ppt_check(2, lam)
        assert ok == is_psd(M)
        seen[ok] += 1
    assert seen[True] > 10 and seen[False] > 10


def test_check_matches_dense_partial_transpose():
    """The finite ordering battery decides positivity of every special rotation."""
    rng = np.random.default_rng(223)
    for n in (2, 3):
        tables = enumerate_orderings(n)
        for _ in range(40):
            lam = random_spectrum(rng, n * n)
            if rng.uniform() < 0.4:
                lam = -np.sort(-rng.dirichlet(np.full(n * n, 0.4)))
            dense_ok = True
            for table in tables:
                U = special_unitary(table)
                rho = (U * lam) @ U.T
                psd = is_psd(partial_transpose(rho, n))
                assert psd == is_psd(l_map_loop(table, lam))
                dense_ok = dense_ok and psd
            assert abs_ppt_check(n, lam)[0] == dense_ok


def per_ordering_check(n, lam):
    """``abs_ppt_check`` as one ``is_psd`` call per ordering on the loop reference."""
    lam = -np.sort(-np.clip(np.asarray(lam, dtype=float), 0.0, None))
    for idx, table in enumerate(enumerate_orderings(n)):
        if not is_psd(l_map_loop(table, lam)):
            return False, idx
    return True, None


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), near_boundary=st.booleans())
def test_batched_check_equals_per_ordering_loop(n, seed, near_boundary):
    rng = np.random.default_rng(seed)
    flat = np.full(n * n, 1.0 / (n * n))
    base = -np.sort(-rng.dirichlet(np.full(n * n, rng.uniform(0.2, 3.0))))
    spectra = [base]
    if near_boundary:
        # the flat spectrum passes; bisect towards base to where the loop flips
        lo, hi = 0.0, 1.0
        if per_ordering_check(n, base)[0]:
            base = np.eye(n * n)[0]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if per_ordering_check(n, (1.0 - mid) * flat + mid * base)[0]:
                lo = mid
            else:
                hi = mid
        spectra = [(1.0 - t) * flat + t * base for t in (lo, hi)]
    for lam in spectra:
        assert abs_ppt_check(n, lam) == per_ordering_check(n, lam)
        minima, passing = ordering_min_eigenvalues(n, lam)
        tables = enumerate_orderings(n)
        assert list(passing) == [is_psd(l_map_loop(t, lam)) for t in tables]
        assert list(minima) == [hermitian_eigenvalues(l_map_loop(t, lam))[-1] for t in tables]
        assert all(np.array_equal(l_map_matrix(t, lam), l_map_loop(t, lam)) for t in tables)


def test_the_stored_orderings_are_recognized_by_identity(monkeypatch):
    """Given the stored tables themselves in listing order, the check reads their cached
    positions and keeps its test matrices in the spectrum's record.  The same tables in
    another order, or one of them alone, are restacked and build no record.  All three
    answer as the per-ordering loop does."""
    rng = np.random.default_rng(59)
    restacked = []
    positions = abssep._positions

    def counted(n, orderings):
        restacked.append(len(orderings))
        return positions(n, orderings)

    monkeypatch.setattr(abssep, "_positions", counted)
    tables = enumerate_orderings(5)
    shuffled = [tables[i] for i in rng.permutation(len(tables))]
    for lam in (_passing_spectrum(rng, 5), random_spectrum(rng, 25)):
        for orderings, stored in ((tables, True), (shuffled, False), (tables[7:8], False)):
            abssep._spectrum_record.cache_clear()
            restacked.clear()
            minima, passing = ordering_min_eigenvalues(5, lam, orderings=orderings)
            assert list(passing) == [is_psd(l_map_loop(t, lam)) for t in orderings]
            assert list(minima) == [hermitian_eigenvalues(l_map_loop(t, lam))[-1]
                                    for t in orderings]
            assert restacked == ([] if stored else [len(orderings)])
            assert (abssep._spectrum_record.cache_info().currsize == 1) == stored
            failing = np.flatnonzero(~passing)
            assert abs_ppt_check(5, lam, orderings=orderings) == (
                (False, int(failing[0])) if failing.size else (True, None))


def test_maximally_mixed_always_passes():
    for n in (2, 3, 4, 5):
        lam = np.full(n * n, 1.0 / (n * n))
        ok, failing = abs_ppt_check(n, lam)
        assert ok and failing is None


def test_pure_state_always_fails():
    for n in (2, 3, 4):
        lam = np.zeros(n * n)
        lam[0] = 1.0
        ok, failing = abs_ppt_check(n, lam)
        assert not ok
        assert failing is not None


def test_certificates_on_passing_spectra(necessary_calls):
    spectra = [
        np.full(9, 1.0 / 9.0),
        (1.0 + 0.05 * np.arange(9)[::-1]) / (9.0 + 0.05 * 36.0),
    ]
    for lam in spectra:
        assert abs_ppt_check(3, lam)[0]
        for table in enumerate_orderings(3):
            out = certify_special_separable(table, lam)
            assert out.status == "decomposed"
            assert out.method == "abs-ppt-comparison"
            pair = out.info["pair"]
            assert verify_decomposition(out.decomposition, pair, tol=1e-8)
            assert out.residuals == residuals(out.decomposition, pair)
            # the certified pair really is the rotated, transposed spectrum
            U = special_unitary(table)
            rho = partial_transpose((U * lam) @ U.T, 3)
            np.testing.assert_allclose(
                np.diag(pair.X).real, np.diag(rho)[[0, 4, 8]].real, atol=1e-12
            )
    # (a)-(d) hold by construction, so the comparison split runs without the gate
    assert not necessary_calls


def test_certified_pair_is_the_dense_partial_transpose():
    """Every slot assignment's basis turns a spectrum into a state whose
    partial transpose has the X skeleton l_map_matrix / 2, and a passing
    spectrum is certified on exactly that state's coefficient pair.  The
    extra n = 3 assignment, which swaps the plus and minus slots of (0, 1),
    is realized by no alpha and leaves x12 > 0: it is certified or declined
    all the same, never raised."""
    rng = np.random.default_rng(5)
    first = enumerate_orderings(3)[0]
    swap = {("plus", 0, 1): ("minus", 0, 1), ("minus", 0, 1): ("plus", 0, 1)}
    unrealizable = OrderingTable(3, tuple(swap.get(s, s) for s in first.slots), first.witness)
    for n in (2, 3, 4, 5):
        d = n * n
        generic = np.arange(d, 0, -1, dtype=float)
        near_flat = np.sort(1.0 + 0.05 * rng.uniform(size=d))[::-1] / d
        skeleton = np.arange(n) * (n + 1)
        for table in enumerate_orderings(n) + ([unrealizable] if n == 3 else []):
            U = special_unitary(table)
            sigma = partial_transpose((U * generic) @ U.T, n)
            np.testing.assert_allclose(sigma[np.ix_(skeleton, skeleton)],
                                       l_map_matrix(table, generic) / 2.0, atol=1e-12)
            out = certify_special_separable(table, near_flat)
            pair = out.info["pair"]
            assert out.ok and verify_decomposition(out.decomposition, pair)
            dense = extract_pair(partial_transpose((U * near_flat) @ U.T, n), n)
            np.testing.assert_allclose(pair.X, dense.X, rtol=0, atol=1e-15)
            np.testing.assert_allclose(pair.Y, dense.Y, rtol=0, atol=1e-15)


def test_certify_declines_failing_spectrum():
    lam = np.arange(9, 0, -1, dtype=float) / 45.0
    ok, failing = abs_ppt_check(3, lam)
    assert not ok
    table = enumerate_orderings(3)[failing]
    out = certify_special_separable(table, lam)
    assert out.status == "not-applicable"
    assert out.decomposition is None
    assert out.info["min_eigenvalue"] < -1e-6
    # the split tests X = Z / 2, so it reports half the test matrix's eigenvalue
    lowest = hermitian_eigenvalues(l_map_matrix(table, lam))[-1]
    assert out.info["min_eigenvalue"] == pytest.approx(lowest / 2.0, rel=1e-12)


def test_declines_report_the_spectrum_of_x_itself():
    """A declined ordering reports the smallest eigenvalue of X = Z / 2 exactly as
    one real ``eigvalsh`` computes it: X is its own comparison matrix."""
    rng = np.random.default_rng(17)
    declined = 0
    for n in (2, 3, 4, 5):
        for _ in range(4):
            top = rng.uniform(0.6, 0.9)
            lam = np.sort(np.append(top, (1 - top) * rng.dirichlet(np.full(n * n - 1, 0.5))))[::-1]
            for table in enumerate_orderings(n):
                out = certify_special_separable(table, lam)
                if out.ok:
                    continue
                declined += 1
                assert out.status == "not-applicable" and out.decomposition is None
                X = l_map_loop(table, lam) / 2.0
                assert out.info["min_eigenvalue"] == np.linalg.eigvalsh(X)[0]
    assert declined > 50


def _passing_spectrum(rng, n):
    """A Dirichlet spectrum pulled into the ball of purity <= 1 / (n^2 - 1), where
    every state is separable."""
    d = n * n
    delta = rng.dirichlet(np.ones(d)) - 1.0 / d
    t = min(1.0, np.sqrt((1.0 / (d - 1) - 1.0 / d) / (delta @ delta)) * rng.uniform(0.3, 0.95))
    return np.sort(1.0 / d + t * delta)[::-1]


def test_seeded_passing_spectra_certify_every_ordering_per_matrix():
    """Every ordering of seeded passing spectra at n = 2..5 is certified, and the
    certificate rebuilds X and Y each within 1e-8 of its own norm.  Tied
    eigenvalues zero off-diagonal entries of X, so among the spectra with ties
    (rounded, flat plus one spike, flat) the support graph of X splits into
    components: some with a coupled pair beside single vertices, some all single."""
    rng = np.random.default_rng(23)
    shapes = set()
    for n in (2, 3, 4, 5):
        d = n * n
        spike = np.append(1.3, np.ones(d - 1))
        spectra = [_passing_spectrum(rng, n) for _ in range(3)]
        spectra += [np.round(_passing_spectrum(rng, n), 2), spike / spike.sum(), np.full(d, 1.0 / d)]
        for lam in spectra:
            assert abs_ppt_check(n, lam)[0]
            for table in enumerate_orderings(n):
                out = certify_special_separable(table, lam)
                assert out.status == "decomposed"
                pair, rebuilt = out.info["pair"], reconstruct(out.decomposition)
                for mat in "XY":
                    want = getattr(pair, mat)
                    assert np.linalg.norm(getattr(rebuilt, mat) - want) <= 1e-8 * np.linalg.norm(want)
                off = pair.X != 0.0
                np.fill_diagonal(off, False)
                sizes = sorted(c.size for c in _graph_components(off))
                shapes.add("one" if len(sizes) == 1 else "split" if sizes[-1] > 1 else "single")
    assert shapes == {"one", "split", "single"}


CI_SPECTRUM_N5 = np.array([
    0.0477, 0.0471, 0.0465, 0.0458, 0.0452, 0.0445, 0.0439, 0.0432, 0.0426, 0.0419, 0.0413,
    0.0406, 0.0400, 0.0394, 0.0387, 0.0381, 0.0374, 0.0368, 0.0361, 0.0355, 0.0348, 0.0342,
    0.0335, 0.0329, 0.0323,
])


# the README's n = 3 spectrum, with its 0.1, 0.1 tie
README_SPECTRUM_N3 = np.array([0.2, 0.15, 0.12, 0.11, 0.1, 0.1, 0.09, 0.07, 0.06])


def test_every_n5_ordering_of_the_ci_spectrum_certifies():
    """The n = 5 spectrum that CI certifies: all 114 certificates verify at 1e-8 with
    at most n(n-1)/2 core plus n slack terms, each from a positive scaling."""
    assert abs_ppt_check(5, CI_SPECTRUM_N5)[0]
    for table in enumerate_orderings(5):
        out = certify_special_separable(table, CI_SPECTRUM_N5)
        assert out.ok
        assert verify_decomposition(out.decomposition, out.info["pair"], tol=1e-8)
        assert out.decomposition.m <= 5 * 4 // 2 + 5
        assert min(out.info["scaling"]) > 0.0


def test_spectrum_check_never_answers_an_edited_array():
    """The last spectrum's record is kept with a read-only copy of it, keyed by its
    bytes, so editing the caller's array in place is checked afresh, never answered
    from the record."""
    table = enumerate_orderings(3)[0]
    other = np.arange(9, 0, -1, dtype=float) / 45.0
    want = certify_special_separable(table, other.copy()).info["pair"]
    lam = np.full(9, 1.0 / 9.0)
    record = abssep._spectrum_record(3, lam.shape, lam.tobytes())
    assert abssep._spectrum_record(3, lam.shape, lam.tobytes()) is record
    for checked in (record.lam, _check_spectrum(lam, 9)):
        assert not checked.flags.writeable and not np.shares_memory(checked, lam)
    assert certify_special_separable(table, lam).ok
    lam[:] = other
    got = certify_special_separable(table, lam).info["pair"]
    assert np.array_equal(got.X, want.X) and np.array_equal(got.Y, want.Y)
    # the record kept for the flat spectrum answers none of the edited array's orderings
    for t in enumerate_orderings(3):
        assert_same_split(certify_special_separable(t, lam), t, other)
    lam[0] = 0.0
    with pytest.raises(NotSortedError):
        certify_special_separable(table, lam)
    lam[0] = np.nan
    with pytest.raises(PcpkitError):
        certify_special_separable(table, lam)
    lam[:] = other
    certify_special_separable(table, lam)
    with pytest.raises(DimensionMismatchError):
        _check_spectrum(lam, 16)


def assert_same_split(got, ordering, lam):
    """``got``, a certificate from the batch, is what ``comparison_split`` makes of the
    ordering's pair alone: the same pair, status, reason, core columns, scaling and
    term count, V and W within 1e-15 of their largest entry, residuals exactly those
    of its own decomposition and pair, and a decline's smallest eigenvalue is that of
    one real ``eigvalsh`` of X."""
    pair = certified_pair_loop(ordering, lam)
    want = comparison_split(pair)
    assert np.array_equal(got.info["pair"].X, pair.X)
    assert np.array_equal(got.info["pair"].Y, pair.Y)
    assert (got.status, got.reason) == (want.status, want.reason)
    if want.ok:
        assert got.info["core_columns"] == want.info["core_columns"]
        assert got.info["scaling"] == want.info["scaling"]
        assert got.decomposition.m == want.decomposition.m
        for name in ("V", "W"):
            a, b = getattr(got.decomposition, name), getattr(want.decomposition, name)
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()
        assert got.residuals == residuals(got.decomposition, got.info["pair"])
    elif got.decomposition is None:
        lowest = np.linalg.eigvalsh(l_map_loop(ordering, lam) / 2.0)[0]
        assert got.info["min_eigenvalue"] == want.info["min_eigenvalue"] == lowest


def test_batched_certificates_equal_a_stack_of_one():
    """Every ordering of seeded passing, failing, flat, rounded, flat-plus-spike and
    flat-with-a-dip spectra at n = 2..5, and of the README and CI spectra, gets from
    the batch exactly the split of its pair alone.  The dip gives the orderings of one
    spectrum different term counts, so its batch is verified in several passes.  The spectra cover declines and passes, and supports that are
    complete, split into a coupled pair beside single vertices, and all single."""
    rng = np.random.default_rng(41)
    seen, shapes, term_counts = set(), set(), set()
    for n in (2, 3, 4, 5):
        d = n * n
        top = rng.uniform(0.6, 0.9)
        failing = np.sort(np.append(top, (1 - top) * rng.dirichlet(np.full(d - 1, 0.5))))[::-1]
        spike = np.append(1.3, np.ones(d - 1))
        dip = np.append(np.ones(d - 3), [0.5, 0.5, 0.2])
        spectra = [_passing_spectrum(rng, n), failing, np.full(d, 1.0 / d),
                   np.round(_passing_spectrum(rng, n), 2), spike / spike.sum(), dip / dip.sum()]
        spectra += [CI_SPECTRUM_N5] if n == 5 else [README_SPECTRUM_N3] if n == 3 else []
        for lam in spectra:
            counts = set()
            for table in enumerate_orderings(n):
                out = certify_special_separable(table, lam)
                assert_same_split(out, table, lam)
                counts.add(out.decomposition.m if out.ok else None)
                seen.add(out.status)
                off = out.info["pair"].X != 0.0
                np.fill_diagonal(off, False)
                sizes = sorted(c.size for c in _graph_components(off))
                shapes.add("one" if len(sizes) == 1 else "split" if sizes[-1] > 1 else "single")
            term_counts.add(len(counts - {None}))
    assert seen == {"decomposed", "not-applicable"}
    assert shapes == {"one", "split", "single"}
    assert max(term_counts) > 1             # a batch verified in more than one stacked pass


def test_every_n5_ordering_costs_one_eigvalsh_and_one_eigh(solver_calls):
    """The 114 certificates of a passing n = 5 spectrum share one batch: one ``eigvalsh``
    judges every comparison matrix, one ``eigh`` scales them all, and no support needs
    a component analysis."""
    outs = [certify_special_separable(t, CI_SPECTRUM_N5) for t in enumerate_orderings(5)]
    assert len(outs) == 114 and all(out.ok for out in outs)
    assert solver_calls == {"eigvalsh": 1, "eigh": 1, "components": 0, "hermitian": 0}


def test_the_check_and_114_certificates_cost_one_eigvalsh_and_one_eigh(solver_calls):
    """After ``abs_ppt_check`` over the stored orderings, the batch of the same spectrum
    reads half of the check's eigenvalues: X = Z / 2 is its own comparison matrix."""
    tables = enumerate_orderings(5)
    assert abs_ppt_check(5, CI_SPECTRUM_N5, orderings=tables) == (True, None)
    outs = [certify_special_separable(t, CI_SPECTRUM_N5) for t in tables]
    assert len(outs) == 114 and all(out.ok for out in outs)
    assert solver_calls == {"eigvalsh": 1, "eigh": 1, "components": 0, "hermitian": 0}


def test_114_certificates_and_then_the_check_cost_one_eigvalsh_and_one_eigh(solver_calls):
    """The spectrum's record does not depend on call order: the certificates build it,
    their batch takes half of its eigenvalues, and the check that follows reads them."""
    tables = enumerate_orderings(5)
    outs = [certify_special_separable(t, CI_SPECTRUM_N5) for t in tables]
    assert len(outs) == 114 and all(out.ok for out in outs)
    assert abs_ppt_check(5, CI_SPECTRUM_N5, orderings=tables) == (True, None)
    assert solver_calls == {"eigvalsh": 1, "eigh": 1, "components": 0, "hermitian": 0}


def assert_same_outcome(a, b):
    """Two outcomes agree bit for bit: status, reason, info (its pair by its bytes),
    V, W and residuals."""
    assert (a.status, a.method, a.reason, a.residuals) == (b.status, b.method, b.reason,
                                                           b.residuals)
    assert a.info.keys() == b.info.keys()
    for key, value in a.info.items():
        if key == "pair":
            for name in "XY":
                assert getattr(value, name).tobytes() == getattr(b.info[key], name).tobytes()
        else:
            assert repr(value) == repr(b.info[key])
    if a.decomposition is not None:
        for name in ("V", "W"):
            assert (getattr(a.decomposition, name).tobytes()
                    == getattr(b.decomposition, name).tobytes())


def test_certificates_are_the_same_with_or_without_the_check(solver_calls):
    """Whether or not ``abs_ppt_check`` ran over the stored orderings first, every ordering
    of seeded spectra gets the same certificate bit for bit.  The spectra cover the
    batch that reads the check's eigenvalues (no ties), the one that diagonalizes X
    itself (ties leave +0 off the diagonal of X), declines, and scales from 1e-100 to
    1e100."""
    rng = np.random.default_rng(47)
    batch_eigvalsh = []
    for n in (2, 3, 4, 5):
        d = n * n
        top = rng.uniform(0.6, 0.9)
        failing = np.sort(np.append(top, (1 - top) * rng.dirichlet(np.full(d - 1, 0.5))))[::-1]
        spectra = [_passing_spectrum(rng, n), failing, np.round(_passing_spectrum(rng, n), 2),
                   _passing_spectrum(rng, n) * 1e-100, _passing_spectrum(rng, n) * 1e100]
        tables = enumerate_orderings(n)
        for lam in spectra:
            abssep._spectrum_record.cache_clear()
            alone = [certify_special_separable(t, lam) for t in tables]
            abssep._spectrum_record.cache_clear()
            abs_ppt_check(n, lam, orderings=tables)
            before = solver_calls["eigvalsh"]
            checked = [certify_special_separable(t, lam) for t in tables]
            batch_eigvalsh.append(solver_calls["eigvalsh"] - before)
            # a check over other orderings (here the stored ones reversed) builds no record
            abssep._spectrum_record.cache_clear()
            abs_ppt_check(n, lam, orderings=tables[::-1])
            reversed_check = [certify_special_separable(t, lam) for t in tables]
            for a, b, c in zip(alone, checked, reversed_check):
                assert_same_outcome(a, b)
                assert_same_outcome(a, c)
    assert set(batch_eigvalsh) == {0, 1}


def test_the_batch_verifies_once_per_term_count(monkeypatch):
    """The 114 certificates of the CI spectrum run the stacked residual routine once,
    for its one term count, and build no pair or decomposition through the per-matrix
    validation of ``linalg.as_complex_matrix``."""
    calls = {"residuals": 0, "as_complex_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    stacked = counted("residuals", pairs._residual_stack)
    monkeypatch.setattr(pairs, "_residual_stack", stacked)
    monkeypatch.setattr(construct, "_residual_stack", stacked)
    monkeypatch.setattr(linalg, "as_complex_matrix",
                        counted("as_complex_matrix", linalg.as_complex_matrix))
    outs = [certify_special_separable(t, CI_SPECTRUM_N5) for t in enumerate_orderings(5)]
    assert all(out.ok for out in outs)
    assert {out.decomposition.m for out in outs} == {5 * 4 // 2 + 5}
    assert calls == {"residuals": 1, "as_complex_matrix": 0}


def test_the_batch_memo_across_orderings_spectra_and_dimensions(solver_calls):
    """An ordering outside the stored tables runs as a stack of one and leaves the
    spectrum's batch in place; spectra and dimensions that alternate each get their
    own batch, and every answer is the split of its pair alone."""
    rng = np.random.default_rng(43)
    first = enumerate_orderings(3)[0]
    swap = {("plus", 0, 1): ("minus", 0, 1), ("minus", 0, 1): ("plus", 0, 1)}
    outside = OrderingTable(3, tuple(swap.get(s, s) for s in first.slots), first.witness)
    lam = _passing_spectrum(rng, 3)
    assert_same_split(certify_special_separable(first, lam), first, lam)
    assert solver_calls["eigvalsh"] == 2            # the batch, then the reference alone
    assert_same_split(certify_special_separable(outside, lam), outside, lam)
    assert solver_calls["eigvalsh"] == 4            # a stack of one, then the reference
    for table in enumerate_orderings(3):
        assert_same_split(certify_special_separable(table, lam), table, lam)
    assert solver_calls["eigvalsh"] == 6            # the references only
    spectra = {n: [_passing_spectrum(rng, n), _passing_spectrum(rng, n)] for n in (3, 4, 5)}
    for n, k in [(3, 0), (4, 0), (3, 0), (3, 1), (5, 0), (4, 1), (5, 1), (3, 0)]:
        lam = spectra[n][k]
        for table in enumerate_orderings(n)[::3]:
            assert_same_split(certify_special_separable(table, lam), table, lam)


def test_a_construction_error_surfaces_only_for_its_own_ordering(monkeypatch):
    """A scaling that misses dominance in one item of the batch raises
    ``ConstructionError`` for that ordering, every time it is asked for, and for no
    other ordering of the spectrum."""
    tables = enumerate_orderings(5)
    planted = 7
    perron_vector = construct._perron_vector

    def planting(M):
        v = perron_vector(M)
        if len(v) == len(tables):                   # the batch, not a stack of one
            v[planted] = np.geomspace(1.0, 1e-6, 5)
        return v

    monkeypatch.setattr(construct, "_perron_vector", planting)
    for m, table in enumerate(tables + tables[:planted + 1]):
        if m % len(tables) == planted:
            with pytest.raises(ConstructionError):
                certify_special_separable(table, CI_SPECTRUM_N5)
        else:
            assert_same_split(certify_special_separable(table, CI_SPECTRUM_N5), table,
                              CI_SPECTRUM_N5)


def test_a_failed_verification_declines_only_its_own_ordering(monkeypatch):
    """One item of the batch whose W is corrupted before the stacked verification fails
    it: that ordering declines with "comparison split failed verification", every time
    it is asked for, and every other ordering of the spectrum is still certified."""
    tables = enumerate_orderings(5)
    planted = 7
    stacked = construct._residual_stack

    def corrupting(V, W, *rest):
        if len(W) == len(tables):                   # the batch, not a stack of one
            W[planted] *= 1.01
        return stacked(V, W, *rest)

    monkeypatch.setattr(construct, "_residual_stack", corrupting)
    for m, table in enumerate(tables + tables[:planted + 1]):
        out = certify_special_separable(table, CI_SPECTRUM_N5)
        if m % len(tables) == planted:
            assert (out.status, out.reason) == ("not-applicable",
                                                "comparison split failed verification")
            assert out.decomposition is None and out.residuals is None
        else:
            assert_same_split(out, table, CI_SPECTRUM_N5)


def test_a_non_finite_pair_or_column_raises_only_for_its_own_ordering(monkeypatch):
    """The split checks its pair stack and its columns for finite entries once, and an
    item that fails either check raises ``PcpkitError`` for its own ordering, as
    ``PairXY`` and ``PcpDecomposition`` would, every time it is asked for; every other
    ordering is still certified.  One item's Y gets a NaN before the split, and another
    item's scaling a zero entry, which leaves NaN in its rescaled columns.  A spectrum
    near the largest float, which would overflow the diagonal of its pair, is refused
    where it enters, before any split."""
    tables = enumerate_orderings(5)
    bad_pair, bad_columns = 3, 11
    splits, perron_vector = abssep._comparison_splits, construct._perron_vector

    def nan_pair(X, Y, w=None):
        if len(Y) == len(tables):
            Y[bad_pair, 0, 1] = np.nan
        return splits(X, Y, w)

    def zero_scaling(M):
        v = perron_vector(M)
        if len(v) == len(tables):
            v[bad_columns, 2] = 0.0
        return v

    monkeypatch.setattr(abssep, "_comparison_splits", nan_pair)
    monkeypatch.setattr(construct, "_perron_vector", zero_scaling)
    planted = (tables[bad_pair], tables[bad_columns])
    with np.errstate(divide="ignore", invalid="ignore"):
        for table in tables + list(planted):
            if any(table is t for t in planted):
                with pytest.raises(PcpkitError, match="finite") as raised:
                    certify_special_separable(table, CI_SPECTRUM_N5)
                assert not isinstance(raised.value, ConstructionError)
            else:
                assert_same_split(certify_special_separable(table, CI_SPECTRUM_N5), table,
                                  CI_SPECTRUM_N5)
    with pytest.raises(PcpkitError, match="overflow"):
        certify_special_separable(enumerate_orderings(2)[0], np.linspace(1.5e308, 1.4e308, 4))


def test_outcomes_share_no_mutable_state():
    """Each call builds its own outcome: a fresh ``info`` dict and pair, and read-only
    arrays that share no memory with another call's, for a pass and a decline alike."""
    tables = enumerate_orderings(3)
    for lam in (np.full(9, 1.0 / 9.0), np.arange(9, 0, -1, dtype=float) / 45.0):
        a, b, c = (certify_special_separable(t, lam) for t in (tables[1], tables[1], tables[0]))
        assert a.info is not b.info and a.info["pair"] is not b.info["pair"]
        for x, y in ((a, b), (a, c)):
            for name in "XY":
                u, v = getattr(x.info["pair"], name), getattr(y.info["pair"], name)
                assert not u.flags.writeable and not np.shares_memory(u, v)
            if x.ok and y.ok:
                for name in ("V", "W"):
                    u, v = getattr(x.decomposition, name), getattr(y.decomposition, name)
                    assert not u.flags.writeable and not np.shares_memory(u, v)
        a.info["planted"] = True
        a.info.pop("pair")
        again = certify_special_separable(tables[1], lam)
        assert "planted" not in again.info and "pair" in again.info
        assert again.info.keys() == b.info.keys()


def test_input_validation():
    with pytest.raises(UnsupportedDimensionError):
        enumerate_orderings(6)
    with pytest.raises(UnsupportedDimensionError):
        abs_ppt_check(1, [1.0])
    with pytest.raises(DimensionMismatchError):
        abs_ppt_check(2, [0.5, 0.5])
    with pytest.raises(PcpkitError):
        abs_ppt_check(2, [0.7, 0.5, -0.1, -0.1])
    (table,) = enumerate_orderings(2)
    with pytest.raises(NotSortedError):
        l_map_matrix(table, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(DimensionMismatchError):
        l_map_matrix(table, [0.5, 0.3, 0.2])
    with pytest.raises(InvalidOrderingError):
        OrderingTable(2, table.slots[:3], table.witness)
    repeated = OrderingTable(2, (table.slots[0],) * 4, table.witness)
    with pytest.raises(InvalidOrderingError):
        l_map_matrix(repeated, [0.4, 0.3, 0.2, 0.1])
    # four distinct slots, one of them not a slot of n = 2: ("plus", 1, 0) for ("plus", 0, 1)
    misnamed = OrderingTable(2, tuple(("plus", 1, 0) if s == ("plus", 0, 1) else s
                                      for s in table.slots), table.witness)
    for call in (lambda: l_map_matrix(misnamed, [0.4, 0.3, 0.2, 0.1]),
                 lambda: special_unitary(misnamed)):
        with pytest.raises(InvalidOrderingError, match="lacks the slot"):
            call()


# spectra near the largest float: at n = 2 a false pass and a false fail, at n = 3 a
# test matrix whose doubled diagonal overflowed into the eigensolver
OVERFLOWING_SPECTRA = [
    (2, [1.7e308, 2.4e307, 2.4e307, 2.4e307]),
    (2, [1.7e308, 1.6e308, 1.5e308, 1.4e308]),
    (3, [1.7e308] * 4 + [1e308] * 5),
]


@pytest.mark.parametrize("n, lam", OVERFLOWING_SPECTRA)
def test_a_spectrum_above_the_bound_is_refused(n, lam):
    """The same spectra scaled down answer (False, 0), (True, None) and (True, None);
    above the bound each entry point refuses them instead of answering."""
    table = enumerate_orderings(n)[0]
    for call in (lambda: abs_ppt_check(n, lam), lambda: l_map_matrix(table, lam),
                 lambda: certify_special_separable(table, lam),
                 lambda: ordering_min_eigenvalues(n, lam, orderings=[table])):
        with pytest.raises(PcpkitError, match="overflow"):
            call()


def test_huge_entries_of_both_signs_are_judged_without_overflow():
    """A step between huge entries of opposite sign overflows to +-inf, which the
    sortedness test reads as it should: +inf is a sorted step, so the spectrum is refused
    for its negative entry, and -inf an unsorted one.  Neither raises an overflow
    warning, which the suite turns into an error."""
    with pytest.raises(PcpkitError, match="negative entry"):
        abs_ppt_check(2, [1e308, -1e308, -1e308, -1e308])
    (table,) = enumerate_orderings(2)
    with pytest.raises(NotSortedError):
        l_map_matrix(table, [-1e308, 1e308, 1e308, 1e308])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_spectrum_at_the_bound_keeps_its_answers(n):
    """A passing and a failing spectrum scaled so that lambda_1 is the bound get the
    answers and certificate statuses of the unscaled ones, with no overflow warning."""
    bound = abssep._spectrum_bound(n * n)
    for lam in (np.linspace(1.2, 0.8, n * n), np.linspace(1.0, 0.0, n * n) ** 4):
        top = lam / lam[0] * bound
        assert top[0] == bound
        assert abs_ppt_check(n, top) == abs_ppt_check(n, lam)
        for table in enumerate_orderings(n):
            assert (certify_special_separable(table, top).status
                    == certify_special_separable(table, lam).status)
            assert np.isfinite(l_map_matrix(table, top)).all()
