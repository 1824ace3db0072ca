import itertools
import math
from typing import Any

import numpy as np
import pytest

from pcpkit import (
    PairXY,
    PcpDecomposition,
    build_state,
    check_necessary,
    comparison_matrix,
    decompose_auto,
    decompose_comparison,
    decompose_isotropic,
    decompose_recursive,
    isotropic_constants,
    isotropic_pair,
    perron_scaling,
    ppt_check,
    realignment_check,
    reconstruct,
    separability_verdict,
    tolerances,
    verify_decomposition,
)
from pcpkit import construct
from pcpkit.construct import _rowwise_passes
from pcpkit.errors import ComparisonNotPsdError, ConstructionError
from pcpkit.linalg import phase_normalize_columns
from pcpkit.fileio import load_pair_document
from pcpkit.pairs import length_lower_bound, residuals

from conftest import (
    cyclic_pair,
    random_2x2_abcd_pair,
    random_decomposable_pair,
    verdict_cases,
)

REG_X = np.array([[2, 1, -1], [1, 8, 1], [-1, 1, 4]], float)
REG_Y = np.array([[2, 1, 3], [2, 8, 1], [1, 2, 4]], float)

CMP_X = np.array([[2, 1, -1], [1, 3, 2j], [-1, -2j, 3]], complex)
CMP_Y = np.array([[2, 1, 2], [1, 3, 4], [0.5, 1, 3]], complex)


# ------------------------------------------ diagonal X and n = 2, by comparison

def test_diagonal_route_basic():
    """A diagonal X is its own comparison matrix: no core column, and one slack
    term per row of Y."""
    Y = np.array([[2.0, 3.0], [0.5, 1.0]])
    pair = PairXY(np.diag([2.0, 1.0]), Y)
    out = decompose_comparison(pair)
    assert out.ok and out.method == "comparison"
    assert out.info["core_columns"] == 0
    assert out.decomposition.m == 2      # one term per row of Y
    assert verify_decomposition(out.decomposition, pair)


def test_comparison_certificates_take_one_slack_term_per_row():
    """At most one slack term per row beside the core columns, and the
    certificate verifies, on the verdict cases and on diagonally dominant pairs
    with a dense slack."""
    rng = np.random.default_rng(7)
    pairs = [pair for _, pair in verdict_cases()]
    for n in range(3, 31):
        A = random_decomposable_pair(rng, n, n)
        boost = np.diag(1.5 * (np.abs(A.X).sum(axis=1) - np.abs(np.diag(A.X))))
        pairs.append(PairXY(A.X + boost, A.Y + boost))
    certified = 0
    for pair in pairs:
        out = decompose_comparison(pair)
        if out.ok:
            certified += 1
            assert out.decomposition.m <= out.info["core_columns"] + pair.n
            assert verify_decomposition(out.decomposition, pair)
    assert certified >= 28


def test_diagonal_route_judges_x_against_x():
    """A large entry of Y must not let the route drop X's off-diagonal entries."""
    X = np.array([[1.0, 0.5], [0.5, 1.0]])
    pair = PairXY(X, np.array([[1.0, 1e10], [1e-9, 1.0]]))
    for out in (decompose_comparison(pair), decompose_auto(pair)):
        assert out.ok and out.method == "comparison"
        assert np.linalg.norm(reconstruct(out.decomposition).X - X) <= 1e-8 * np.linalg.norm(X)


def test_diagonal_route_flags_bad_pair():
    pair = PairXY(np.diag([1.0, 1.0]), np.array([[1.0, -2.0], [1.0, 1.0]]))
    out = decompose_comparison(pair)
    assert out.status == "conditions-violated"


def test_diagonal_x_sweep():
    """Every diagonal-X pair meeting (a)-(c) decomposes, also when X carries
    round-off off-diagonals that (d) admits only within its slack, the
    ratios y_ij / y_ji reach 1e32 and about 30% of Y's off-diagonals vanish."""
    rng = np.random.default_rng(103)
    for trial in range(280):
        n = 1 + trial % 7
        X = np.diag(rng.uniform(0.5, 2.0, n)).astype(complex)
        if trial % 2:
            E = np.triu(10.0 ** rng.uniform(-13.5, -10.2, (n, n))
                        * np.exp(2j * np.pi * rng.random((n, n))), 1)
            X += E + E.conj().T
        Y = 10.0 ** rng.uniform(-16.0, 16.0, (n, n)) * (rng.random((n, n)) >= 0.3)
        np.fill_diagonal(Y, np.diag(X).real)
        out = decompose_auto(PairXY(X, Y))
        assert out.ok and out.method == "comparison", (trial, out.info.get("methods"))
        rebuilt = reconstruct(out.decomposition)
        assert np.linalg.norm(rebuilt.X - X) <= 1e-8 * np.linalg.norm(X)
        assert np.linalg.norm(rebuilt.Y - Y) <= 1e-8 * np.linalg.norm(Y)


def test_2x2_closed_form_sweep():
    """Conditions (a)-(d) are sufficient at n = 2; every such pair decomposes."""
    rng = np.random.default_rng(61)
    for _ in range(300):
        pair = random_2x2_abcd_pair(rng)
        out = decompose_auto(pair)
        assert out.ok, (pair.X, pair.Y, out.info.get("methods"))
        assert verify_decomposition(out.decomposition, pair)


def test_2x2_degenerate_corner():
    # vanishing leading entry forces a diagonal X
    pair = PairXY(np.diag([0.0, 2.0]), np.array([[0.0, 1.5], [0.5, 2.0]]))
    out = decompose_auto(pair)
    assert out.ok
    assert verify_decomposition(out.decomposition, pair)


def test_2x2_small_y12_is_not_read_as_zero():
    """y12 = 1e-9 is tiny beside y21 = 1e10, yet (d) leaves room for x12 = 0.5,
    and the certificate reproduces X itself."""
    X = np.array([[1.0, 0.5], [0.5, 1.0]])
    pair = PairXY(X, np.array([[1.0, 1e-9], [1e10, 1.0]]))
    out = decompose_auto(pair)
    assert out.ok
    rebuilt = reconstruct(out.decomposition)
    assert np.linalg.norm(rebuilt.X - X) <= 1e-8 * np.linalg.norm(X)
    assert np.linalg.norm(rebuilt.Y - pair.Y) <= 1e-8 * np.linalg.norm(pair.Y)


@pytest.mark.parametrize("s", [1e-100, 1e-20, 1.0, 1e20, 1e100])
def test_2x2_boundary_pair_at_every_scale(s):
    """Rank-one X with |x12|^2 = y12 y21: the slack vanishes up to round-off,
    which must be judged in the units of the entries at every scale."""
    a = np.array([1.3 - 0.2j, 0.4 + 0.9j])
    X = np.outer(a, a.conj())
    Y = np.array([[X[0, 0], abs(X[0, 1])], [abs(X[0, 1]), X[1, 1]]])
    pair = PairXY(s * X, s * Y)
    out = decompose_auto(pair)
    assert out.ok
    assert verify_decomposition(out.decomposition, pair)


def test_2x2_rejects_condition_violation():
    pair = PairXY(np.array([[1.0, 0.9], [0.9, 1.0]]),
                  np.array([[1.0, 0.5], [0.5, 1.0]]))
    out = decompose_auto(pair)
    assert out.status == "conditions-violated"
    assert "d" in out.reason


# ---------------------------------------------------------------- recursive

def test_recursive_all_ones():
    pair = PairXY(np.ones((3, 3)), np.ones((3, 3)))
    out = decompose_recursive(pair)
    assert out.ok
    assert out.decomposition.m == 1      # rank-one pair needs a single term
    assert length_lower_bound(pair) == 1


def test_recursive_exhausted_row():
    # rank-two pair: the second elimination row is already exhausted
    X = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]])
    pair = PairXY(X, X)
    out = decompose_recursive(pair)
    assert out.ok and out.decomposition.m == 2


def test_recursive_reports_radicand_witness():
    out = decompose_recursive(PairXY(REG_X, REG_Y), search_permutations=False)
    assert out.status == "not-applicable"
    w = out.info["witness"]
    assert w["position"] == (2, 3)
    assert w["radicand"] == pytest.approx(-0.5)


def test_recursive_permutation_retry():
    pair = PairXY(REG_X, REG_Y)
    out = decompose_recursive(pair, search_permutations=True)
    assert out.ok
    assert out.permutation == (1, 0, 2)      # first working ordering, lexicographic
    assert out.decomposition.m == 3
    assert verify_decomposition(out.decomposition, pair)


def test_recursive_tries_the_transposed_orientation():
    """(X, Y^T) is decomposed by (W, V) when (X, Y) is by (V, W).  The identity
    pass succeeds on this Y and fails on Y^T, so the route reaches Y^T's
    certificate through its second, transposed pass."""
    X = np.array([[1, 2, 1], [2, 5, 3], [1, 3, 6]], float)
    Y = np.array([[1, 4, 1], [5, 5, 2], [6, 6, 6]], float)
    direct = decompose_recursive(PairXY(X, Y))
    assert direct.ok and not direct.info["transposed"] and direct.info["attempts"] == 1
    pair = PairXY(X, Y.T)
    out = decompose_recursive(pair)
    assert out.ok and out.info["transposed"] and out.info["attempts"] == 2
    assert verify_decomposition(out.decomposition, pair)


def _unverified(monkeypatch, passes: int | None) -> None:
    """Make the first ``passes`` decompositions that ``construct`` verifies fail (every one
    when None): their X residual reads as infinite."""
    verified = []
    real = construct.residuals

    def residuals_failing(dec, pair):
        verified.append(dec)
        res = real(dec, pair)
        return res._replace(x=math.inf) if passes is None or len(verified) <= passes else res

    monkeypatch.setattr(construct, "residuals", residuals_failing)


def test_recursive_moves_past_a_pass_that_fails_verification(monkeypatch):
    """A completed pass whose decomposition does not verify is skipped: the search goes
    on to the next ordering, and ``info["attempts"]`` counts every item up to the one
    that verifies.  When no completed pass verifies, the route declines; here the
    identity pass completes first, so the witness is its failed verification, and the
    attempts are every item of both orientations."""
    pair = random_decomposable_pair(np.random.default_rng(0), 3, 3)
    items = {transposed: [(order, witness is None) for order, _, _, witness in
                          _rowwise_passes(pair.X, pair.Y.T if transposed else pair.Y,
                                          *_magnitudes(pair), True)]
             for transposed in (False, True)}
    completed = [m for m, (_, done) in enumerate(items[False]) if done]
    assert completed[:2] == [0, 2]          # the identity completes, the next ordering fails

    _unverified(monkeypatch, 1)
    out = decompose_recursive(pair, search_permutations=True)
    assert out.ok and not out.info["transposed"]
    assert out.permutation == items[False][completed[1]][0] != (0, 1, 2)
    assert out.info["attempts"] == completed[1] + 1

    _unverified(monkeypatch, None)
    out = decompose_recursive(pair, search_permutations=True)
    assert out.status == construct.NOT_APPLICABLE
    assert out.info["witness"] == {"reason": "completed pass failed verification"}
    assert out.info["attempts"] == len(items[False]) + len(items[True])


def test_search_matches_one_pass_per_permutation():
    """The search shares the steps of orderings with a common prefix and skips
    those a failed step rules out; it must complete exactly the orderings whose
    own identity pass completes, with the same V and W.  Sparse, rank-deficient
    pairs make some orderings fail and some rows exhaust early."""
    rng = np.random.default_rng(71)
    for _ in range(40):
        n, m = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        F = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        F[rng.random((n, m)) < 0.3] = 0.0
        pair = reconstruct(PcpDecomposition(F, rng.standard_normal((n, m)) + 0.5j))
        X, Y = pair.X, pair.Y
        magnitudes = _magnitudes(pair)
        searched = [(order, V.copy(), W.copy())
                    for order, V, W, witness in _rowwise_passes(X, Y, *magnitudes, True)
                    if witness is None]
        reference = []
        for perm in itertools.permutations(range(n)):
            p = np.asarray(perm)
            _, V0, W0, witness = next(_rowwise_passes(X[np.ix_(p, p)], Y[np.ix_(p, p)],
                                                      *magnitudes, False))
            if witness is None:
                V, W = np.zeros_like(V0), np.zeros_like(W0)
                V[p, :], W[p, :] = V0, W0
                reference.append((perm, V, W))
        assert [o for o, _, _ in searched] == [o for o, _, _ in reference]
        for (_, V, W), (_, V_ref, W_ref) in zip(searched, reference):
            assert np.array_equal(V, V_ref) and np.array_equal(W, W_ref)


def _sparse_pair(rng, n) -> PairXY:
    """A decomposable pair whose factors have zero entries, so that some orderings
    of its elimination fail and some rows exhaust early."""
    m = int(rng.integers(1, n + 2))
    F = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    F[rng.random((n, m)) < 0.3] = 0.0
    return reconstruct(PcpDecomposition(F, rng.standard_normal((n, m)) + 0.5j))


def test_radicand_rows_never_increase_along_a_prefix():
    """The lemma behind the search's pruning: at each prefix of a completed
    ordering, the radicand row y_i - sum_t |v_i^t|^2 |w^t|^2 of every index i
    not yet pivoted is entrywise no larger than at the prefix one pivot shorter.
    The sums are formed as the step forms them, so only their round-off (a few
    ulps of Y's largest entry) may show."""
    rng = np.random.default_rng(89)
    extensions = 0
    for n in range(3, 8):
        for _ in range(12):
            pair = _sparse_pair(rng, n)
            Y = pair.Y.real
            x_max, y_max = _magnitudes(pair)
            passes = [(order, V.copy(), W.copy())
                      for order, V, W, witness in _rowwise_passes(pair.X, pair.Y, x_max, y_max,
                                                                  True)
                      if witness is None]
            for index in rng.permutation(len(passes))[:3]:
                order, V, W = passes[index]
                absV, absW = np.abs(V) ** 2, np.abs(W) ** 2
                for k in range(n - 1):
                    for i in order[k + 1:]:
                        before = Y[i] - absW[:, :k] @ absV[i, :k]
                        after = Y[i] - absW[:, :k + 1] @ absV[i, :k + 1]
                        assert np.all(after <= before + 4 * n * np.finfo(float).eps * y_max)
                        extensions += 1
    assert extensions > 500


def test_a_negative_radicand_prunes_every_ordering_with_its_prefix():
    """After a step fails with a negative radicand at prefix P, no later item of
    the search extends P; a failure of any other kind prunes only its pivot."""
    rng = np.random.default_rng(97)
    pruned = other = 0
    for n in range(3, 8):
        for _ in range(14):
            pair = _sparse_pair(rng, n) if rng.random() < 0.5 else _elimination_pair(rng, n)
            dead: list[tuple[int, ...]] = []
            for order, _, _, witness in _rowwise_passes(pair.X, pair.Y, *_magnitudes(pair), True):
                assert not any(order[:len(p)] == p for p in dead)
                if witness is None:
                    continue
                prefix = order[:witness["position"][0] - 1]
                if witness["reason"] == "negative radicand":
                    dead.append(prefix)
                    pruned += len(prefix) < n - 1       # a node with more than one candidate
                else:
                    other += 1
    assert pruned > 500 and other > 50


def _magnitudes(pair: PairXY) -> tuple[float, float]:
    """The largest entries of X and of Y, as ``decompose_recursive`` passes them."""
    return (tolerances.scale(float(np.abs(pair.X).max())),
            tolerances.scale(float(np.abs(pair.Y).max())))


def _elimination_pair(rng, n) -> PairXY:
    """A sparse, often rank-deficient pair, some of it damaged, whose elimination
    meets every failure and exhausted rows."""
    m = int(rng.integers(1, 2 * n))
    F = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    F[rng.random((n, m)) < 0.3] = 0.0
    F[rng.random(n) < 0.2] = 0.0                  # zero rows exhaust
    pair = reconstruct(PcpDecomposition(F, rng.standard_normal((n, m)) + 0.5j))
    X, Y = pair.X.copy(), pair.Y.copy()
    for i, j in rng.integers(0, n, (int(rng.integers(0, 3)), 2)):
        if i == j:
            # a zero pivot with x_ii left over
            X[i, :] = X[:, i] = Y[i, :] = 0.0
            X[i, i] = 1.0
        else:
            # a zero denominator, or a zero pivot with its row unexhausted
            Y[i, j] = 1.0 if Y[i, i] == 0.0 else 0.0
    return PairXY(X, Y)


def test_rowwise_step_matches_loop_reference():
    """The whole-vector step yields the scalar loop's items, in its order, with
    the same witnesses and bitwise the same V and W: the exhaustive search at
    n = 3..7 and identity passes at n = 8 and 30, over pairs that reach every
    failure reason and exhausted rows in both groups.  The search's look-ahead
    drops nodes on some of these pairs, which the identity passes never do."""
    rng = np.random.default_rng(83)
    reached = {True: set(), False: set()}
    for n, exhaustive, count in [(3, True, 10), (4, True, 10), (5, True, 8), (6, True, 4),
                                 (7, True, 1), (8, False, 40), (30, False, 40)]:
        for _ in range(count):
            pair = _elimination_pair(rng, n)
            args = (pair.X, pair.Y, *_magnitudes(pair), exhaustive)
            orders = []
            for got, want in itertools.zip_longest(_rowwise_passes(*args),
                                                   _rowwise_passes_loop(*args)):
                assert got[0] == want[0] and got[3] == want[3]
                orders.append(want[0])
                if want[3] is None:
                    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
                    if not np.abs(want[1]).max(axis=0).all():
                        reached[exhaustive].add("exhausted row")
                else:
                    reached[exhaustive].add(want[3]["reason"])
            unpruned = [item[0] for item in _rowwise_passes_loop(*args, lookahead=False)]
            if unpruned != orders:
                reached[exhaustive].add("dropped node")
    assert reached[True] == {"exhausted row", "negative radicand", "dropped node",
                             "vanishing pivot with unexhausted row",
                             "zero denominator under a non-zero residual"}
    assert reached[False] == reached[True] - {"dropped node"}


def test_lookahead_keeps_the_search_exact(monkeypatch):
    """Dropping a node whose unpivoted rows are already negative removes only
    orderings that fail.  For 25 seeded decomposable pairs per n = 5..8 the
    route's outcome equals the one the unpruned reference gives: status,
    permutation, orientation, witness and the certificate's V and W bitwise, and
    the first failed step of the search is the same."""
    def unpruned(X, Y, x_max, y_max, exhaustive, factor=None):
        assert exhaustive                           # the search forms every column per step
        return _rowwise_passes_loop(X, Y, x_max, y_max, exhaustive, lookahead=False)

    rng = np.random.default_rng(53)
    shortened = 0
    for n in range(5, 9):
        for _ in range(25):
            pair = random_decomposable_pair(rng, n)
            got = decompose_recursive(pair, search_permutations=True)
            with monkeypatch.context() as patch:
                patch.setattr(construct, "_rowwise_passes", unpruned)
                want = decompose_recursive(pair, search_permutations=True)
            assert (got.status, got.permutation) == (want.status, want.permutation)
            assert got.info.get("transposed") == want.info.get("transposed")
            assert got.info.get("witness") == want.info.get("witness")
            if want.ok:
                assert np.array_equal(got.decomposition.V, want.decomposition.V)
                assert np.array_equal(got.decomposition.W, want.decomposition.W)
            if want.info["attempts"] > 1:                   # some step failed
                args = (pair.X, pair.Y, *_magnitudes(pair), True)
                got_first, want_first = (next(item for item in passes(*args) if item[3])
                                         for passes in (_rowwise_passes, unpruned))
                assert got_first[0] == want_first[0] and got_first[3] == want_first[3]
            shortened += got.info["attempts"] < want.info["attempts"]
    assert shortened >= 20


def test_search_n8_fixture_stays_small(fixtures):
    """A deterministic work guard: the look-ahead certifies the n = 8 search
    fixture in at most 20 attempts (30 without it)."""
    pair, _ = load_pair_document(fixtures / "search_n8_pair.json")
    out = decompose_recursive(pair, search_permutations=True)
    assert out.ok and out.permutation != tuple(range(8))
    assert out.info["attempts"] <= 20


def _items(passes) -> list[tuple]:
    """Each item of a pass as its order, with its witness's reason and position (None
    for a completed pass)."""
    return [(order, witness and (witness["reason"], witness["position"]))
            for order, _, _, witness in passes]


def test_the_factor_seeded_identity_pass_matches_the_per_step_pass():
    """The identity pass that reads the Cholesky factor kept by the pair's report yields
    the items of the pass that forms each column per step: the same orderings and
    completions, and failures with the same reason at the same position, on seeded PD
    pairs at n = 9, 30 and 60 in both orientations.  Every completed pass verifies.
    (I + J, I + J) has a factor, yet its radicand rows reach zero at the pivoted indices,
    so its pass forms its columns per step from the third on."""
    rng = np.random.default_rng(41)
    pairs = [random_decomposable_pair(rng, n) for n in (9, 30, 60) for _ in range(6)]
    pairs += [PairXY(np.eye(n) + 1.0, np.eye(n) + 1.0) for n in (9, 30)]
    completed = failed = 0
    for pair in pairs:
        factor = pair.report._factor
        assert factor is not None
        for transposed in (False, True):
            args = (pair.X, pair.Y.T if transposed else pair.Y, *_magnitudes(pair), False)
            seeded = list(_rowwise_passes(*args, factor))
            assert _items(seeded) == _items(_rowwise_passes(*args))
            for _, V, W, witness in seeded:
                failed += witness is not None
                if witness is None:
                    completed += 1
                    dec = PcpDecomposition(W, V) if transposed else PcpDecomposition(V, W)
                    assert verify_decomposition(dec, pair)
    assert completed >= 10 and failed >= 10


def test_a_rank_deficient_x_gets_no_factor_and_its_pass_meets_every_failure():
    """The X of ``_elimination_pair`` is singular, so its Cholesky factorization fails and
    the report keeps no factor: the identity pass forms every column per step, and
    over these pairs at n = 9 and 30 it meets every failure reason and exhausted rows."""
    rng = np.random.default_rng(43)
    reached = set()
    for n in (9, 30):
        for _ in range(40):
            pair = _elimination_pair(rng, n)
            if np.linalg.matrix_rank(pair.X) == n:
                continue
            assert pair.report._factor is None
            for _, V, _, witness in _rowwise_passes(pair.X, pair.Y, *_magnitudes(pair), False,
                                                    pair.report._factor):
                if witness is not None:
                    reached.add(witness["reason"])
                elif not np.abs(V).max(axis=0).all():
                    reached.add("exhausted row")
    assert reached == {"exhausted row", "negative radicand",
                       "vanishing pivot with unexhausted row",
                       "zero denominator under a non-zero residual"}


def test_a_verdict_factorizes_x_once(monkeypatch, necessary_calls):
    """A work guard: one verdict on a PD n = 30 pair that reaches the row-by-row route
    runs ``np.linalg.cholesky`` once, for (a), and ``check_necessary`` once; the
    identity pass reads the factor that the report keeps."""
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda A: calls.append(A) or cholesky(A))
    pair = random_decomposable_pair(np.random.default_rng(50), 30)
    out = separability_verdict(pair)
    assert out.criterion == "recursive" and out.outcome.info["attempts"] == 1
    assert len(calls) == 1 and len(necessary_calls) == 1


def _rowwise_passes_loop(X: np.ndarray, Y: np.ndarray, x_max: float, y_max: float,
                         exhaustive: bool, lookahead: bool = True):
    """The reference for ``_rowwise_passes``: the same search and the same
    recurrence, with a scalar loop over the remaining indices of each step and
    over the entries of V and W.

    Yields ``(order, V, W, None)`` per completed pass, column k holding the k-th
    pivot's term over the original indices, and ``(order, None, None, witness)``
    per failed step: the failing position (1-based, in the ordering's
    coordinates) and what went wrong.  Column k of A is the pivot's Cholesky
    column a_j = num_j / sqrt(num_i), column k of R its radicand row, column k of
    C the coefficients |a_j|^2 / R[j, k], and d_k the pivot's own radicand (1 until
    one is written; an exhausted pivot writes none).  Orderings with a common
    prefix share its steps, and a failed step rules them all out; a negative
    radicand also ends the node it was tried at.  With ``lookahead``, once a step
    has failed, a node with two or more indices left whose row of some index is
    already negative is dropped as one failed item.
    """
    n = X.shape[0]
    Yr = Y.real
    A = np.zeros((n, n), complex)
    R, C, d = np.zeros((n, n)), np.zeros((n, n)), np.ones(n)
    y_zero, y_res = tolerances.ZERO * y_max, tolerances.RESIDUAL * y_max
    x_zero, x_res = tolerances.ZERO * x_max, tolerances.RESIDUAL * x_max
    order: list[int] = []

    def step(k: int, i: int, rest: list[int]) -> dict[str, Any] | None:
        """Eliminate index i as the k-th pivot, ahead of ``rest``; a witness on failure."""
        def fail(j: int, radicand: float, reason: str) -> dict[str, Any]:
            return {"position": (k + 1, j + 1), "radicand": float(radicand), "reason": reason}
        rad = Yr[i] - R[:, :k] @ C[i, :k]     # y_{i,j} - sum_t C[i, t] R[j, t] over j
        if rad.min() < -y_zero:
            ranked = rad[order + [i] + rest]
            j = int(ranked.argmin())
            return fail(j, ranked[j], "negative radicand")
        rad = np.maximum(rad, 0.0)
        num = X[:, i] - A[:, :k] @ A[i, :k].conj()    # x_{j,i} residuals over j
        pivot = num[i].real
        if min(rad[i], pivot) <= x_zero:
            # Row i already exhausted: admissible only if nothing is left of it.
            if rad.max() <= y_res and np.abs(num[[i] + rest]).max() <= x_res:
                A[:, k] = R[:, k] = C[:, k] = 0.0
                return None
            return fail(k, rad[i], "vanishing pivot with unexhausted row")
        scale = 1.0 / math.sqrt(pivot)
        a = np.zeros(n, complex)
        for m, j in enumerate([i] + rest, k):
            if rad[j] > 0.0:
                a[j] = num[j] * scale
            elif abs(num[j]) > x_res:
                return fail(m, rad[j], "zero denominator under a non-zero residual")
        square = np.abs(a) ** 2               # numpy's |.| of an array, as the step's
        c = np.zeros(n)
        for j in [i] + rest:
            if rad[j] > 0.0:
                c[j] = square[j] / rad[j]
        A[:, k], R[:, k], C[:, k], d[k] = a, rad, c, rad[i]
        return None

    def terms() -> tuple[np.ndarray, np.ndarray]:
        """w_j = sqrt(R[j, k] / d_k) and v_j = a_j / w_j (0 where w_j is)."""
        V, W = np.zeros((n, n), complex), np.zeros((n, n))
        for k in range(n):
            for j in range(n):
                W[j, k] = math.sqrt(R[j, k] / d[k])
                if W[j, k] > 0.0:
                    V[j, k] = np.divide(A[j, k], W[j, k])
        return V, W

    def negative_row(prefix: list[int], rest: list[int]) -> tuple | None:
        """The failed item of the first row of ``rest`` already negative at ``prefix``."""
        k = len(prefix)
        for r in rest:
            rad = Yr[r] - R[:, :k] @ C[r, :k]
            if rad.min() < -y_zero:
                ordering = prefix + [r] + [j for j in rest if j != r]
                ranked = rad[ordering]
                j = int(ranked.argmin())
                witness = {"position": (k + 1, j + 1), "radicand": float(ranked[j]),
                           "reason": "negative radicand"}
                return tuple(ordering), None, None, witness
        return None

    stack = [(list(range(n)), list(range(n)) if exhaustive else [0])]   # (unpivoted, untried)
    failed = False
    while stack:
        left, untried = stack[-1]
        if not untried:
            stack.pop()
            if order:
                order.pop()
            continue
        i = untried.pop(0)
        rest = [j for j in left if j != i]
        witness = step(len(order), i, rest)
        if witness is not None:
            failed = True
            if witness["reason"] == "negative radicand":
                untried.clear()
            yield tuple(order + [i] + rest), None, None, witness
        elif lookahead and failed and len(rest) > 1 and (item := negative_row(order + [i], rest)):
            yield item
        elif not rest:
            yield (tuple(order + [i]), *terms(), None)
        else:
            order.append(i)
            stack.append((rest, rest[:] if exhaustive else rest[:1]))


# b >= 0 whose rank-one pair leaves a round-off radicand (3e-18 to 6e-17) at the exhausted
# last pivot; its root, up to 8e-9, is far above round-off, so only a test of the radicand
# itself sees the row exhausted.  The 8 such b of 3000 drawn by default_rng(0), n = 2..6
# (n from integers(2, 7), then random(n)).
RANK_ONE_ROUND_OFF = [
    [0.8705533043101933, 0.3501049998112872, 0.9324794930587861],
    [0.6426983422873438, 0.2696085847831856, 0.7058208604199626],
    [0.7110547333242644, 0.5171230054773985, 0.16392454074524687],
    [0.6065259245944598, 0.4332905466823401, 0.5741885331958994],
    [0.3530498259011624, 0.6137037838135161, 0.5111462311280321],
    [0.8346994069501961, 0.07453813809707677, 0.30479735153935783],
    [0.18927135523055805, 0.0856029428285584, 0.777805761968058, 0.6511274506438719],
    [0.6027464765375976, 0.14648668072495974, 0.1731666115056656],
]


def test_rank_one_pairs_with_round_off_pivots_are_certified():
    """(bb^T, bb^T) with b >= 0 is separable.  The exhausted row's radicand is
    judged against Y and its pivot against X, so the identity pass completes."""
    for b in RANK_ONE_ROUND_OFF:
        X = np.outer(b, b)
        pair = PairXY(X, X)
        out = separability_verdict(pair)
        assert out.verdict == "separable" and out.criterion == "recursive"
        assert out.outcome.info["attempts"] == 1
        assert verify_decomposition(out.certificate, pair, tol=1e-8)


def test_recursive_permutation_cap():
    # beyond n = 8 only the identity ordering is attempted
    X = np.eye(9)
    X[:3, :3] = REG_X
    Y = np.eye(9)
    Y[:3, :3] = REG_Y
    out = decompose_recursive(PairXY(X, Y), search_permutations=True)
    assert out.status == "not-applicable"
    assert "note" in out.info


def test_recursive_on_decomposable_pairs():
    rng = np.random.default_rng(67)
    hits = 0
    for _ in range(60):
        pair = random_decomposable_pair(rng, int(rng.integers(2, 4)))
        out = decompose_recursive(pair, search_permutations=True)
        if out.ok:
            hits += 1
            assert verify_decomposition(out.decomposition, pair)
    assert hits >= 55        # the row-by-row route handles generic small pairs


# --------------------------------------------------------------- comparison

def test_comparison_matrix_values():
    M = comparison_matrix(np.array([[2, -3], [4j, -5]]))
    np.testing.assert_allclose(M, [[2, -3], [-4, 5]])


def test_perron_scaling_reaches_dominance():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        B = np.abs(rng.standard_normal((n, n)))
        B = (B + B.T) / 2
        np.fill_diagonal(B, 0.0)
        alpha = np.linalg.eigvalsh(B).max() + rng.uniform(0.0, 1.0)
        X = alpha * np.eye(n) - B          # comparison matrix equals itself: PSD
        d = perron_scaling(X)
        assert (d > 0).all()
        S = np.abs(d[:, None] * X * d[None, :])
        row_off = S.sum(axis=1) - np.diag(S)
        assert (np.diag(S) + 1e-9 * max(1.0, S.max()) >= row_off).all()


def test_perron_scaling_rejects_indefinite_comparison():
    with pytest.raises(ComparisonNotPsdError) as err:
        perron_scaling(np.ones((3, 3)))
    assert err.value.min_eigenvalue == pytest.approx(-1.0)


def _component_path_perron(X: np.ndarray) -> np.ndarray:
    """Reference: per connected component, the top eigenvector of the non-negative
    alpha I - M for the comparison matrix M, largest entry 1."""
    M = comparison_matrix(X)
    P = np.diag(M).max() * np.eye(X.shape[0]) - M
    d = np.ones(X.shape[0])
    for comp in _dfs_components(M < 0.0):
        if len(comp) > 1:
            v = np.abs(np.linalg.eigh(P[np.ix_(comp, comp)])[1][:, -1])
            d[comp] = v / v.max()
    return d


def _assert_dominant(X: np.ndarray, d: np.ndarray) -> None:
    S = np.abs(d[:, None] * X * d[None, :])
    assert (d > 0).all()
    assert (2 * np.diag(S) + 1e-9 * max(1.0, S.max()) >= S.sum(axis=1)).all()


def test_perron_scaling_matches_component_path():
    """On connected supports, complete (one eigh of M) and sparse (one component),
    d agrees with the reference within 1e-12 of its largest entry."""
    rng = np.random.default_rng(29)
    for n in range(2, 31):
        for density in (1.0, 3.0 / n):
            upper = np.triu(rng.random((n, n)) < density, 1)
            order = rng.permutation(n)
            upper[order[:-1], order[1:]] = True        # a spanning path: connected
            support = upper | upper.T
            B = np.where(support, rng.uniform(0.1, 1.0, (n, n)), 0.0)
            B = np.triu(B, 1) + np.triu(B, 1).T
            X = -B * np.exp(2j * np.pi * np.triu(rng.random((n, n)), 1))
            X = np.triu(X, 1) + np.triu(X, 1).conj().T
            X += np.diag(np.linalg.eigvalsh(B).max() + rng.uniform(0.1, 1.0, n))
            d = perron_scaling(X)
            assert np.abs(d - _component_path_perron(X)).max() <= 1e-12
            _assert_dominant(X, d)


def test_perron_scaling_fallbacks_reach_dominance(solver_calls):
    """Blocks with equal, singular comparison matrices coupled by a 1e-14 or 1e-18
    bridge (one entry, or every cross entry, which leaves the support complete),
    uncoupled, and diagonal X: the lowest eigenvalue is near-degenerate or
    degenerate, and every scaling still reaches dominance.  Some complete supports
    need the M - sJ retry, without any component analysis."""
    rng = np.random.default_rng(3)
    retried = 0
    for m in (2, 3, 4):
        G = np.abs(rng.standard_normal((m, m)))
        G = G + G.T
        np.fill_diagonal(G, 0.0)
        block = np.linalg.eigvalsh(G).max() * np.eye(m) - G
        for eps in (1e-14, 1e-18, 0.0):
            for bridge in ("one", "all"):
                X = np.kron(np.eye(2), block)
                if bridge == "one":
                    X[m - 1, m] = X[m, m - 1] = -eps
                else:
                    X[:m, m:] = X[m:, :m] = -eps
                solver_calls.update(eigh=0, components=0)
                _assert_dominant(X, perron_scaling(X))
                if bridge == "all" and eps > 0.0:
                    assert solver_calls["components"] == 0
                    retried += solver_calls["eigh"] == 2
    assert retried
    for X in (np.diag([3.0, 1.0, 2.0]), np.kron(np.eye(3), [[2.0, -1.0], [-1.0, 2.0]])):
        _assert_dominant(X, perron_scaling(X))


def test_comparison_split_solver_calls(solver_calls):
    """A decline is one eigvalsh and nothing else; a connected pass adds one eigh
    and no component analysis; a diagonal X needs the components but no eigh.  The
    comparison matrix of an X that (a) has found Hermitian never has its Hermiticity
    tested."""
    def split(pair):
        pair.report                             # (a) runs its own eigvalsh
        solver_calls.update(eigvalsh=0, eigh=0, components=0, hermitian=0)
        return decompose_comparison(pair), dict(solver_calls)

    out, calls = split(cyclic_pair(1.0))
    assert out.status == "not-applicable"
    assert calls == {"eigvalsh": 1, "eigh": 0, "components": 0, "hermitian": 0}
    out, calls = split(PairXY(CMP_X, CMP_Y))
    assert out.ok
    assert calls == {"eigvalsh": 1, "eigh": 1, "components": 0, "hermitian": 0}
    out, calls = split(PairXY(np.diag([2.0, 1.0]), np.array([[2.0, 3.0], [0.5, 1.0]])))
    assert out.ok
    assert calls == {"eigvalsh": 1, "eigh": 0, "components": 1, "hermitian": 0}


def test_comparison_route_refuses_a_non_hermitian_x(monkeypatch):
    """The comparison matrix is judged without a Hermiticity test, so a non-Hermitian X
    must stop at (a): ``conditions-violated``, before the split runs."""
    def no_split(pair):
        raise AssertionError("the split ran on a non-Hermitian X")

    monkeypatch.setattr(construct, "comparison_split", no_split)
    X = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    out = decompose_comparison(PairXY(X, np.full((3, 3), 2.0)))
    assert out.status == "conditions-violated" and not out.info["report"].holds_a


# A scaled, singular doubly non-negative X (so completely positive, n = 3): its comparison
# matrix's lowest eigenvalue, -4.9e-7, passes the PSD floor (1.8e-6, set by the entry
# 1755) but is far below what the small second row (3.5e-4) can absorb.
FLOOR_X = np.array([
    [1.7552510646390754e+03, 7.8557478674826697e-01, 9.5447545221929664e-01],
    [7.8557478674826697e-01, 3.5320631238452938e-04, 2.8227813250225025e-05],
    [9.5447545221929664e-01, 2.8227813250225025e-05, 9.8959019627109790e-02],
])


def test_perron_scaling_declines_a_comparison_matrix_psd_only_within_its_floor():
    """Perron rescaling leaves each row short of dominance by -lowest d_i^2.  When
    that explains the shortfall, the comparison matrix counts as not PSD: the split
    declines with its lowest eigenvalue, and the verdict runs the other routes."""
    lowest = np.linalg.eigvalsh(comparison_matrix(FLOOR_X))[0]
    assert -tolerances.psd_floor(np.linalg.eigvalsh(comparison_matrix(FLOOR_X))) < lowest < 0.0
    with pytest.raises(ComparisonNotPsdError) as err:
        perron_scaling(FLOOR_X)
    assert err.value.min_eigenvalue == lowest
    pair = PairXY(FLOOR_X, FLOOR_X)
    out = decompose_comparison(pair)
    assert out.status == "not-applicable" and out.info["min_eigenvalue"] == lowest
    verdict = separability_verdict(pair)
    assert verdict.verdict == "separable"
    assert verify_decomposition(verdict.certificate, pair, tol=1e-8)


def test_perron_scaling_still_raises_on_a_shortfall_nothing_explains(monkeypatch):
    """A PSD comparison matrix leaves no shortfall to explain: a scaling that misses
    dominance there is a bug and raises ``ConstructionError``."""
    monkeypatch.setattr(construct, "_perron_vector",
                        lambda M: np.broadcast_to(np.linspace(1.0, 0.01, M.shape[-1]), M.shape[:-1]))
    with pytest.raises(ConstructionError):
        perron_scaling(np.array([[2.0, -1.0, 0.5], [-1.0, 2.0, -0.9], [0.5, -0.9, 2.0]]))


def test_comparison_route_worked_example():
    """The complex 3x3 pair with exactly three core columns and empty slack."""
    pair = PairXY(CMP_X, CMP_Y)
    out = decompose_comparison(pair)
    assert out.ok
    assert out.decomposition.m == 3
    assert out.info["core_columns"] == 3
    assert verify_decomposition(out.decomposition, pair)

    r = 2.0 ** 0.25
    V_ref = np.array([[1, -r, 0], [1, 0, 1j * np.sqrt(2)], [0, 1 / r, 1]], complex)
    W_ref = np.array([[1, 1 / r, 0], [1, 0, 1], [0, r, np.sqrt(2)]], complex)
    np.testing.assert_allclose(phase_normalize_columns(out.decomposition.V),
                               phase_normalize_columns(V_ref), atol=1e-9)
    np.testing.assert_allclose(phase_normalize_columns(out.decomposition.W),
                               phase_normalize_columns(W_ref), atol=1e-9)


def test_comparison_route_declines_indefinite():
    out = decompose_comparison(cyclic_pair(1.0))
    assert out.status == "not-applicable"
    assert out.info["min_eigenvalue"] == pytest.approx(-1.0)


def test_comparison_decline_reports_one_real_eigvalsh():
    """A declined split reports the smallest eigenvalue of the comparison matrix
    exactly as one real ``eigvalsh`` of |x_ii| on, -|x_ij| off the diagonal gives it."""
    rng = np.random.default_rng(37)
    declined = 0
    for _ in range(60):
        pair = random_decomposable_pair(rng, int(rng.integers(3, 9)))
        out = decompose_comparison(pair)
        if out.ok:
            continue
        declined += 1
        M = -np.abs(pair.X)
        np.fill_diagonal(M, np.abs(np.diag(pair.X)))
        assert out.info["min_eigenvalue"] == np.linalg.eigvalsh(M)[0]
    assert declined > 30


def _dfs_components(adjacency: np.ndarray) -> list[list[int]]:
    """Reference: connected components by depth-first search, each sorted."""
    n = adjacency.shape[0]
    seen, comps = [False] * n, []
    for start in range(n):
        if seen[start]:
            continue
        seen[start], stack, comp = True, [start], []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.flatnonzero(adjacency[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        comps.append(sorted(comp))
    return comps


def test_graph_components_match_depth_first_search():
    """Complete, edgeless, path (diameter n - 1, labels shuffled) and seeded random
    graphs at n = 1..100, and the graph without vertices."""
    assert construct._graph_components(np.zeros((0, 0), bool)) == []
    rng = np.random.default_rng(43)
    for n in range(1, 101):
        order = rng.permutation(n)
        path = np.zeros((n, n), bool)
        path[order[:-1], order[1:]] = True
        graphs = [np.ones((n, n), bool), np.zeros((n, n), bool), path]
        for density in (0.5 / n, 1.5 / n, 0.2):
            upper = np.triu(rng.random((n, n)) < density, 1)
            graphs.append(upper)
        for g in graphs:
            g = g | g.T
            np.fill_diagonal(g, False)
            got = [list(c) for c in construct._graph_components(g)]
            assert got == _dfs_components(g)


def test_comparison_route_slack_columns():
    # inflate Y so the slack part is non-trivial
    pair = PairXY(CMP_X, CMP_Y + np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    out = decompose_comparison(pair)
    assert out.ok
    assert out.decomposition.m > out.info["core_columns"]
    assert verify_decomposition(out.decomposition, pair)


def test_comparison_route_diagonally_dominant_complex():
    X = np.array([[3, 1j, 0], [-1j, 3, 1], [0, 1, 3]], complex)
    Y = np.array([[3, 1, 1], [1, 3, 1], [1, 1, 3]], complex)
    out = decompose_comparison(PairXY(X, Y))
    assert out.ok
    assert verify_decomposition(out.decomposition, PairXY(X, Y))


@pytest.mark.parametrize("eps", [1e-17, 1e-12, 1e-9])
def test_comparison_route_nearly_decoupled_index(eps):
    """A weakly coupled third index gets a Perron weight near eps; the round-off
    flushes must still be judged against the input, not the rescaled pair."""
    X = np.array([[1, -0.15, eps], [-0.15, 1, eps], [eps, eps, 1]])
    Y = np.array([[1, 1.15, 1], [1.15, 1, 1], [1, 1, 1]])
    out = decompose_comparison(PairXY(X, Y))
    assert out.ok
    assert verify_decomposition(out.decomposition, PairXY(X, Y))


def test_comparison_split_declines_rather_than_raises(fixtures):
    """(d) admits |x_ij|^2 above y_ij y_ji within its slack.  With a very uneven
    ratio y_ij / y_ji the split cannot carry such an x_ij: it clamps |x_ij| to
    sqrt(y_ij y_ji) and leaves the verdict on what that drops to the
    verification, so a pair passing (a)-(e) is certified or declined, never
    raised on."""
    found, _ = load_pair_document(fixtures / "extreme_ratio_pair.json")
    X = np.eye(3, dtype=complex)
    X[0, 1] = X[1, 0] = 1e-11
    Y = np.ones((3, 3))
    Y[0, 1], Y[1, 0] = 1e-2, 1e-22           # ratio 1e20, product below |x12|^2
    diagonal = PairXY(X, Y)
    for pair in (found, diagonal):
        assert check_necessary(pair).all_hold
        for out in (decompose_comparison(pair), decompose_auto(pair)):
            assert out.status in ("decomposed", "not-applicable")
            if out.ok:
                rebuilt = reconstruct(out.decomposition)
                assert np.linalg.norm(rebuilt.X - pair.X) <= 1e-8 * np.linalg.norm(pair.X)
    assert decompose_comparison(diagonal).ok     # the clamp drops only 1e-11


# ---------------------------------------------------------------- isotropic

def test_isotropic_constants_identities():
    for n in range(2, 8):
        cp, cm = isotropic_constants(n)
        assert cp * cm == pytest.approx(n - 1, abs=1e-10)
        assert cp * cp + cm * cm == pytest.approx(n * n - n + 2, abs=1e-10)


def test_isotropic_pair_layout():
    pair = isotropic_pair(3, 3.0, -1.0)
    np.testing.assert_allclose(pair.X, 3 * np.eye(3) - np.ones((3, 3)))
    np.testing.assert_allclose(pair.Y, -np.eye(3) + 3 * np.ones((3, 3)))


def test_isotropic_grid():
    for n in (2, 3, 4, 5):
        a = 1.0
        for b in (-a / n, -a / (2 * n), 0.0, a / 2, a):
            out = decompose_isotropic(n, a, b)
            assert out.ok, (n, b, out.reason)
            assert verify_decomposition(out.decomposition, isotropic_pair(n, a, b))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 30])
def test_isotropic_columns_verify_across_n_and_scales(n):
    for scale in (1.0, 1e100, 1e-100):
        for a, b in ((1.0, -1.0 / n), (1.0, 1.0), (1.0, 0.3), (2.0, 0.0)):
            out = decompose_isotropic(n, a * scale, b * scale)
            assert out.ok, (n, scale, a, b, out.reason)
            assert verify_decomposition(out.decomposition, isotropic_pair(n, a * scale, b * scale))


def test_isotropic_extremes_and_interior():
    out = decompose_isotropic(3, 3.0, -1.0)
    assert out.ok and out.info["mixture"] == pytest.approx(1.0)
    out = decompose_isotropic(3, 3.0, 3.0)
    assert out.ok and out.info["mixture"] == pytest.approx(0.0)
    out = decompose_isotropic(3, 3.0, 1.0)
    assert out.ok and 0.0 < out.info["mixture"] < 1.0


def test_isotropic_out_of_range():
    assert decompose_isotropic(3, 1.0, 1.5).status == "conditions-violated"
    assert decompose_isotropic(3, 1.0, -0.5).status == "conditions-violated"
    assert decompose_isotropic(3, -1.0, 0.0).status == "conditions-violated"


def test_isotropic_zero():
    out = decompose_isotropic(4, 0.0, 0.0)
    assert out.ok
    np.testing.assert_allclose(reconstruct(out.decomposition).X, np.zeros((4, 4)), atol=1e-14)


# --------------------------------------------------------------------- auto

def test_auto_dispatch_order():
    assert decompose_auto(PairXY(np.diag([1.0, 2.0]), np.array([[1.0, 1], [1, 2]]))).method == "comparison"
    rng = np.random.default_rng(73)
    pair = random_2x2_abcd_pair(rng)
    out = decompose_auto(pair)
    assert out.ok and out.method == "comparison"
    out = decompose_auto(PairXY(CMP_X, CMP_Y))
    assert out.method == "comparison"
    # the regression pair is diagonally dominant, so it resolves before recursion
    out = decompose_auto(PairXY(REG_X, REG_Y))
    assert out.ok and out.method == "comparison"
    # all-ones: indefinite comparison matrix, so the row-by-row route takes it
    out = decompose_auto(PairXY(np.ones((3, 3)), np.ones((3, 3))))
    assert out.ok and out.method == "recursive"


def test_auto_collects_reasons(fixtures):
    pair, _ = load_pair_document(fixtures / "inconclusive_pair.json")
    out = decompose_auto(pair)
    assert out.status == "not-applicable"
    assert set(out.info["methods"]) == {"comparison", "recursive"}
    # a pair refuted by the norm-gap condition alone is reported as violated,
    # not merely out of reach of the routes
    out = decompose_auto(cyclic_pair(2.0))
    assert out.status == "conditions-violated"
    assert "e" in out.reason


def test_auto_evaluates_conditions_once(necessary_calls):
    for expected, pair in verdict_cases():
        necessary_calls.clear()
        decompose_auto(pair)
        assert len(necessary_calls) == 1, expected


def test_a_pair_evaluates_its_conditions_once(necessary_calls):
    """Every consumer of (a)-(e) reads the one report the pair keeps."""
    consumers = [separability_verdict, ppt_check, realignment_check, build_state,
                 decompose_comparison, decompose_recursive, decompose_auto, length_lower_bound]
    for expected, pair in verdict_cases():
        necessary_calls.clear()
        for consume in consumers:
            consume(pair)
        assert len(necessary_calls) == 1 and necessary_calls[0] is pair, expected


def test_auto_refutes_before_any_route(monkeypatch):
    """A pair failing (d) or (e) is conditions-violated without running a route."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a construction route ran on a refuted pair")

    monkeypatch.setattr(construct, "comparison_split", unreachable)
    monkeypatch.setattr(construct, "decompose_recursive", unreachable)
    refuted = [cyclic_pair(2.0)] + [pair for (verdict, _), pair in verdict_cases()
                                    if verdict == "entangled"]
    for pair in refuted:
        out = decompose_auto(pair)
        assert out.status == "conditions-violated"
        assert out.reason == f"necessary conditions {pair.report.failing()} fail"
        assert out.info == {"report": pair.report}


def _declining(route: str, calls: list):
    def declined(pair, *args, **kwargs):
        calls.append(route)
        return construct.ConstructorOutcome(construct.NOT_APPLICABLE, route,
                                            reason=f"{route} rebound")
    return declined


def test_auto_and_the_verdict_run_the_rebound_routes_in_table_order(monkeypatch, fixtures):
    """Each route looks its function up on ``construct`` when it runs, and
    ``info["methods"]`` follows the table, whether a route ran or was refuted."""
    assert list(construct.ROUTES) == ["comparison", "recursive"]
    calls: list = []
    for route in construct.ROUTES:
        monkeypatch.setattr(construct, f"decompose_{route}", _declining(route, calls))
    declined = [(r, f"{r} rebound") for r in construct.ROUTES]
    pair, _ = load_pair_document(fixtures / "comparison_pair.json")
    assert list(decompose_auto(pair).info["methods"].items()) == declined
    verdict = separability_verdict(pair)
    assert verdict.verdict == "inconclusive"
    assert list(verdict.outcome.info["methods"].items()) == declined
    assert calls == list(construct.ROUTES) * 2
    # a comparison route refuted from the report is recorded first, and never runs
    calls.clear()
    pair, _ = load_pair_document(fixtures / "inconclusive_pair.json")
    assert construct._comparison_refuted(pair)
    out = decompose_auto(pair)
    assert calls == ["recursive"]
    assert list(out.info["methods"].items()) == [
        ("comparison", construct._NOT_PSD), ("recursive", "recursive rebound")]


def _near_boundary_pair(rng, n, ratio) -> PairXY:
    """A pair meeting (a)-(e) for n >= 3 whose gap(X) / sum |x_ii| is ``ratio``: X is
    I + t (J - I) / (n - 1) under a random diagonal unitary, so its comparison matrix
    has 1^T M 1 = n (1 - t) and lowest eigenvalue 1 - t for t = ``ratio``, and Y is |X|."""
    X = np.eye(n) + ratio * (np.ones((n, n)) - np.eye(n)) / (n - 1)
    u = np.exp(2j * np.pi * rng.random(n))
    return PairXY(u[:, None] * X * u.conj()[None, :], X)


def _refutation_pairs() -> list[PairXY]:
    """Dense, sparse, diagonal and complex pairs at n = 1, 2, 5..8 and 30, the verdict
    cases, and pairs whose gap(X) lies within 1e-6 of sum |x_ii|, at scales 1, 1e-200
    and 1e150."""
    rng = np.random.default_rng(191)
    pairs = [pair for _, pair in verdict_cases()]
    for n in (1, 2, 5, 6, 7, 8, 30):
        real = reconstruct(PcpDecomposition(rng.standard_normal((n, n + 1)),
                                            rng.standard_normal((n, n + 1))))
        P = np.abs(rng.standard_normal((n, n)))
        pairs += [real, _sparse_pair(rng, n), PairXY(np.diag(np.diag(P)), P),
                  random_decomposable_pair(rng, n)]
    for n in (3, 5, 8, 30):
        pairs += [_near_boundary_pair(rng, n, 1.0 + delta)
                  for delta in (-1e-6, -1e-9, 0.0, 1e-9, 1e-8, 1e-7, 1e-6)]
    return [PairXY(pair.X * s, pair.Y * s) for s in (1.0, 1e-200, 1e150) for pair in pairs]


def _same_outcome(a, b) -> bool:
    """Whether two outcomes agree in status, method, reason, info, permutation and the
    bits of their certificates and residuals."""
    same = (a.status, a.method, a.reason, a.info, a.permutation, a.residuals) == \
        (b.status, b.method, b.reason, b.info, b.permutation, b.residuals)
    if a.decomposition is None or b.decomposition is None:
        return same and a.decomposition is b.decomposition
    return (same and np.array_equal(a.decomposition.V, b.decomposition.V)
            and np.array_equal(a.decomposition.W, b.decomposition.W))


def test_refuting_the_comparison_route_changes_no_outcome(monkeypatch):
    """``decompose_auto`` answers alike with the report's refutation of the comparison
    route and without it, and wherever the refutation fires, the route run on the pair
    declines for the reason ``decompose_auto`` records."""
    refuted = construct._comparison_refuted
    fired = []

    def recorded(pair):
        fired.append(pair)
        return refuted(pair)

    pairs = _refutation_pairs()
    monkeypatch.setattr(construct, "_comparison_refuted", recorded)
    with_refutation = [decompose_auto(pair) for pair in pairs]
    monkeypatch.setattr(construct, "_comparison_refuted", lambda pair: False)
    without = [decompose_auto(pair) for pair in pairs]
    monkeypatch.undo()
    for a, b in zip(with_refutation, without):
        assert _same_outcome(a, b)

    hits = [pair for pair in fired if refuted(pair)]
    assert 0 < len(hits) < len(fired)
    for pair in hits:
        out = construct.comparison_split(pair)
        assert out.status == "not-applicable" and out.reason == construct._NOT_PSD
    # the refutation fires close above 1^T M 1 = 0, and never at or below it
    near = [(pair, pair.report.x_gap / trace) for pair in fired
            if (trace := np.abs(pair.X.diagonal()).sum()) > 0.0]
    assert any(refuted(pair) for pair, ratio in near if ratio < 1.0 + 2e-7)
    assert not any(refuted(pair) for pair, ratio in near if ratio <= 1.0)


def test_decomposed_outcomes_carry_their_residuals():
    """Each route keeps the residuals of the one verification it passed."""
    routes = [decompose_comparison, decompose_recursive,
              lambda pair: decompose_recursive(pair, search_permutations=True), decompose_auto]
    outcomes = [(route(pair), pair) for _, pair in verdict_cases() for route in routes]
    outcomes += [(decompose_isotropic(4, 1.0, b), isotropic_pair(4, 1.0, b))
                 for b in (-0.25, 0.0, 0.6, 1.0, 2.0)]
    methods = set()
    for out, pair in outcomes:
        if out.ok:
            methods.add(out.method)
            assert out.residuals == residuals(out.decomposition, pair), out.method
        else:
            assert out.residuals is None, out.method
    assert methods == {"comparison", "recursive", "isotropic"}


def test_auto_conditions_violated():
    pair = PairXY(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2)))
    out = decompose_auto(pair)
    assert out.status == "conditions-violated"


# ------------------------------------------------------- closure properties

def test_closure_under_diagonal_append():
    """Adding (diag(P), P) for entrywise non-negative P preserves decomposability."""
    rng = np.random.default_rng(79)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        pair = random_decomposable_pair(rng, n)
        out = decompose_auto(pair)
        assert out.ok
        P = np.abs(rng.standard_normal((n, n)))
        extra = decompose_comparison(PairXY(np.diag(np.diag(P)), P))
        assert extra.ok
        joined = PcpDecomposition(
            np.hstack([out.decomposition.V, extra.decomposition.V]),
            np.hstack([out.decomposition.W, extra.decomposition.W]),
        )
        target = PairXY(pair.X + np.diag(np.diag(P)), pair.Y + P)
        assert verify_decomposition(joined, target)


def test_closure_under_positive_diagonal_scaling():
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        pair = random_decomposable_pair(rng, n)
        out = decompose_auto(pair)
        assert out.ok
        d = rng.uniform(0.2, 3.0, size=n)
        root = np.sqrt(d)[:, None]
        scaled = PcpDecomposition(out.decomposition.V * root, out.decomposition.W * root)
        target = PairXY(d[:, None] * pair.X * d[None, :], d[:, None] * pair.Y * d[None, :])
        assert verify_decomposition(scaled, target)


def test_closure_under_permutation():
    rng = np.random.default_rng(89)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        pair = random_decomposable_pair(rng, n)
        out = decompose_auto(pair)
        assert out.ok
        p = rng.permutation(n)
        permuted = PcpDecomposition(out.decomposition.V[p, :], out.decomposition.W[p, :])
        target = PairXY(pair.X[np.ix_(p, p)], pair.Y[np.ix_(p, p)])
        assert verify_decomposition(permuted, target)


def test_cp_matrix_paired_with_itself():
    """X = NN^T with N non-negative: (X, X) passes every condition, and the
    comparison route certifies it whenever the comparison matrix allows."""
    rng = np.random.default_rng(97)
    certified = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        N = np.abs(rng.standard_normal((n, int(rng.integers(1, n + 2)))))
        X = N @ N.T
        if rng.random() < 0.5:
            X = X + np.diag(np.abs(X).sum(axis=1))   # force diagonal dominance
        pair = PairXY(X, X)
        assert check_necessary(pair).all_hold
        from pcpkit.linalg import is_psd
        if is_psd(comparison_matrix(X)):
            out = decompose_auto(pair)
            assert out.ok
            certified += 1
    assert certified >= 20
