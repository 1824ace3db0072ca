import itertools
import math
from typing import Any

import numpy as np
import pytest

from pcpkit import (
    PairXY,
    PcpDecomposition,
    check_necessary,
    comparison_matrix,
    decompose_auto,
    decompose_comparison,
    decompose_isotropic,
    decompose_recursive,
    isotropic_constants,
    isotropic_pair,
    perron_scaling,
    reconstruct,
    tolerances,
    verify_decomposition,
)
from pcpkit.construct import _rowwise_passes
from pcpkit.errors import ComparisonNotPsdError
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
        searched = [(order, V.copy(), W.copy())
                    for order, V, W, witness in _rowwise_passes(X, Y, pair.scale, True)
                    if witness is None]
        reference = []
        for perm in itertools.permutations(range(n)):
            p = np.asarray(perm)
            _, V0, W0, witness = next(_rowwise_passes(X[np.ix_(p, p)], Y[np.ix_(p, p)],
                                                      pair.scale, False))
            if witness is None:
                V, W = np.zeros_like(V0), np.zeros_like(W0)
                V[p, :], W[p, :] = V0, W0
                reference.append((perm, V, W))
        assert [o for o, _, _ in searched] == [o for o, _, _ in reference]
        for (_, V, W), (_, V_ref, W_ref) in zip(searched, reference):
            assert np.array_equal(V, V_ref) and np.array_equal(W, W_ref)


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
    failure reason and exhausted rows in both groups."""
    rng = np.random.default_rng(83)
    reached = {True: set(), False: set()}
    for n, exhaustive, count in [(3, True, 10), (4, True, 10), (5, True, 8), (6, True, 4),
                                 (7, True, 1), (8, False, 40), (30, False, 40)]:
        for _ in range(count):
            pair = _elimination_pair(rng, n)
            args = (pair.X, pair.Y, pair.scale, exhaustive)
            for got, want in itertools.zip_longest(_rowwise_passes(*args),
                                                   _rowwise_passes_loop(*args)):
                assert got[0] == want[0] and got[3] == want[3]
                if want[3] is None:
                    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
                    if not np.abs(want[1]).max(axis=0).all():
                        reached[exhaustive].add("exhausted row")
                else:
                    reached[exhaustive].add(want[3]["reason"])
    for group in reached.values():
        assert group == {"exhausted row", "negative radicand",
                         "vanishing pivot with unexhausted row",
                         "zero denominator under a non-zero residual"}


def _rowwise_passes_loop(X: np.ndarray, Y: np.ndarray, scale: float, exhaustive: bool):
    """The reference for ``_rowwise_passes``: the same search, with a scalar
    loop over the remaining indices of each step.

    Yields ``(order, V, W, None)`` per completed pass, column k holding the k-th
    pivot's term over the original indices (valid until the next item), and
    ``(order, None, None, witness)`` per failed one: the failing position
    (1-based, in the ordering's coordinates) and what went wrong.  Orderings
    with a common prefix share its steps, and a failed step rules them all out.
    """
    n = X.shape[0]
    V = np.zeros((n, n), complex)
    W = np.zeros((n, n), complex)
    # |V|^2, |W|^2 and V.W, filled in one column per step
    absV, absW, A = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n), complex)
    neg_tol = tolerances.ZERO * scale
    res_tol = tolerances.RESIDUAL * scale
    pivot_tol = tolerances.ZERO * math.sqrt(scale)     # pivots are square roots of Y entries
    order: list[int] = []

    def step(k: int, i: int, rest: list[int]) -> dict[str, Any] | None:
        """Eliminate index i as the k-th pivot, ahead of ``rest``; a witness on failure."""
        def fail(j: int, radicand: float, reason: str) -> dict[str, Any]:
            return {"position": (k + 1, j + 1), "radicand": float(radicand), "reason": reason}
        V[:, k] = 0.0                         # columns >= k hold an earlier ordering's steps
        d = absW[:, :k] @ absV[i, :k]         # d_{i,j} over j
        c = A[:, :k] @ A[i, :k].conj()        # c_{j,i} over j
        rad = Y[i, :].real - d
        if rad.min() < -neg_tol:
            ranked = rad[order + [i] + rest]
            j = int(ranked.argmin())
            return fail(j, ranked[j], "negative radicand")
        rad = np.maximum(rad, 0.0)
        num = X[:, i] - c                     # x_{j,i} residuals over j
        s = math.sqrt(rad[i])
        vkk = num[i] / s if s >= pivot_tol else 0.0
        if abs(vkk) < pivot_tol:
            # Row i already exhausted: admissible only if nothing is left of it.
            if s < pivot_tol and rad.max() <= res_tol and np.abs(num[[i] + rest]).max() <= res_tol:
                W[:, k] = absV[:, k] = absW[:, k] = A[:, k] = 0.0
                return None
            return fail(k, rad[i], "vanishing pivot with unexhausted row")
        V[i, k] = vkk
        W[:, k] = np.sqrt(rad) / vkk
        for m, j in enumerate(rest, k + 1):
            r = math.sqrt(rad[j])
            if r >= pivot_tol:
                V[j, k] = num[j] / r
            elif abs(num[j]) > res_tol:
                return fail(m, rad[j], "zero denominator under a non-zero residual")
        absV[:, k] = np.abs(V[:, k]) ** 2
        absW[:, k] = np.abs(W[:, k]) ** 2
        A[:, k] = V[:, k] * W[:, k]
        return None

    stack = [(list(range(n)), list(range(n)) if exhaustive else [0])]   # (unpivoted, untried)
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
            yield tuple(order + [i] + rest), None, None, witness
        elif not rest:
            yield tuple(order + [i]), V, W, None
        else:
            order.append(i)
            stack.append((rest, rest[:] if exhaustive else rest[:1]))


def test_recursive_permutation_cap():
    # beyond n = 7 only the identity ordering is attempted
    X = np.eye(8)
    X[:3, :3] = REG_X
    Y = np.eye(8)
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


def _same_outcome(a, b) -> bool:
    same = (a.status, a.method, a.reason, a.permutation, repr(a.info)) == \
        (b.status, b.method, b.reason, b.permutation, repr(b.info))
    if a.decomposition is None or b.decomposition is None:
        return same and a.decomposition is b.decomposition
    return (same and np.array_equal(a.decomposition.V, b.decomposition.V)
            and np.array_equal(a.decomposition.W, b.decomposition.W))


def test_routes_accept_a_precomputed_report(necessary_calls):
    routes = [decompose_comparison, decompose_recursive,
              lambda pair, **kw: decompose_recursive(pair, search_permutations=True, **kw),
              decompose_auto]
    for expected, pair in verdict_cases():
        report = check_necessary(pair)
        for route in routes:
            necessary_calls.clear()
            given = route(pair, report=report)
            assert not necessary_calls, expected
            assert _same_outcome(route(pair), given), expected


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
