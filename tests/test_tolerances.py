"""The tolerance policy: every threshold lives in ``tolerances``, and answers
do not change under the problem's symmetries or under a global scale."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcpkit
from pcpkit import (
    PairXY,
    abs_ppt_check,
    certify_special_separable,
    check_necessary,
    decompose_auto,
    enumerate_orderings,
    separability_verdict,
    verify_decomposition,
)

from pcpkit.fileio import load_pair_document

from conftest import FIXTURES, random_decomposable_pair

SCALES = [1e-100, 1e-20, 1e-8, 1e-3, 1e3, 1e20, 1e100]
KINDS = ["decomposable", "ppt", "realignment"]


def test_no_tolerance_literal_outside_the_policy():
    """A float literal in (0, 1e-6) is a tolerance; only ``tolerances`` may hold one."""
    offenders = []
    for path in sorted(Path(pcpkit.__file__).parent.glob("*.py")):
        if path.name in ("tolerances.py", "ordering_data.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < node.value < 1e-6):
                offenders.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert offenders == []


def seeded_pair(kind: str, n: int, seed: int) -> PairXY:
    """A decomposable pair, one with a planted (d) violation, or a permuted
    direct sum of 3x3 cyclic blocks (PPT but realignment-entangled, n >= 3)."""
    rng = np.random.default_rng(seed)
    if kind == "realignment":
        n = max(n, 3)
        X = np.zeros((n, n))
        Y = np.zeros((n, n))
        for b in range(n // 3):
            c = rng.uniform(0.5, 2.0)
            a = rng.uniform(1.5, 4.0) ** rng.choice([-1, 1])
            s = slice(3 * b, 3 * b + 3)
            X[s, s] = c
            Y[s, s] = c * np.array([[1, a, 1 / a], [1 / a, 1, a], [a, 1 / a, 1]])
        for k in range(3 * (n // 3), n):
            X[k, k] = Y[k, k] = rng.uniform(0.5, 2.0)
        p = rng.permutation(n)
        return PairXY(X[np.ix_(p, p)], Y[np.ix_(p, p)])
    pair = random_decomposable_pair(rng, n)
    if kind == "decomposable":
        return pair
    X, Y = pair.X, pair.Y.copy()
    i, j = rng.choice(n, size=2, replace=False)
    Y[i, j] = rng.uniform(0.2, 0.8) * abs(X[i, j]) ** 2 / Y[j, i].real
    return PairXY(X, Y)


pairs = st.builds(seeded_pair, st.sampled_from(KINDS), st.integers(2, 6),
                  st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(pair=pairs, s=st.sampled_from(SCALES))
def test_verdict_is_scale_invariant(pair, s):
    base = separability_verdict(pair)
    scaled_pair = PairXY(s * pair.X, s * pair.Y)
    scaled = separability_verdict(scaled_pair)
    assert (scaled.verdict, scaled.criterion) == (base.verdict, base.criterion)
    if scaled.verdict == "separable":
        assert verify_decomposition(scaled.certificate, scaled_pair, tol=1e-8)


def test_a_large_entry_of_y_does_not_loosen_the_tests_of_x():
    """(b) is judged against Y, (c) against the two diagonals and (d) against
    X's largest diagonal entry: none against the whole pair, whose scale a
    single large entry of Y can set."""
    # y11 = 6 cannot come from any decomposition of a pair with x11 = 1
    bad_c = PairXY(np.eye(2), [[6.0, 1e10], [1e-10, 1.0]])
    assert not check_necessary(bad_c).holds_c
    assert not decompose_auto(bad_c).ok
    bad_b = PairXY(np.diag([1e10, 1.0]), [[1.0, 0.0], [-1e-3, 1.0]])
    assert check_necessary(bad_b).witnesses["b"]["position"] == (2, 1)
    # |x12|^2 = 0.81 against y12 y21 = 1e-10, beside y12 = 1e10
    bad_d = PairXY([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]],
                   [[1.0, 1e10, 1.0], [1e-20, 1.0, 1.0], [1.0, 1.0, 1.0]])
    verdict = separability_verdict(bad_d)
    assert (verdict.verdict, verdict.criterion) == ("entangled", "ppt")
    assert verdict.witness["position"] == (1, 2)
    assert decompose_auto(bad_d).status == "conditions-violated"


@pytest.mark.parametrize("X, Y", [
    # x12 = 1e-17 against y12 y21 = 0
    ([[1.0, 1e-17], [1e-17, 1.0]], [[1.0, 0.0], [1.0, 1.0]]),
    # y12 = -1e-17, which (b) accepts as a round-off zero, against x12 = 0
    (np.eye(2), [[1.0, -1e-17], [1e-17, 1.0]]),
    (np.eye(2), [[1.0, -1e-17], [1e10, 1.0]]),
])
def test_round_off_does_not_fail_condition_d(X, Y):
    """(d) tolerates the round-off that (a), (b) and the diagonal-X route
    tolerate, so a round-off entry never makes a separable pair entangled."""
    pair = PairXY(X, Y)
    assert check_necessary(pair).holds_d
    verdict = separability_verdict(pair)
    assert verdict.verdict == "separable"
    assert verify_decomposition(verdict.certificate, pair)


def symmetric_images(pair: PairXY, rng) -> dict[str, PairXY]:
    n = pair.n
    p = rng.permutation(n)
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    return {
        "permutation": PairXY(pair.X[np.ix_(p, p)], pair.Y[np.ix_(p, p)]),
        "diagonal unitary": PairXY(u[:, None] * pair.X * u.conj()[None, :], pair.Y),
        "conjugation": PairXY(pair.X.conj(), pair.Y),
        "Y transpose": PairXY(pair.X, pair.Y.T),
    }


@settings(max_examples=40, deadline=None)
@given(pair=pairs, seed=st.integers(0, 2**32 - 1))
def test_verdict_is_invariant_under_the_symmetries(pair, seed):
    rng = np.random.default_rng(seed)
    base = separability_verdict(pair)
    for name, image in symmetric_images(pair, rng).items():
        out = separability_verdict(image)
        assert (out.verdict, out.criterion) == (base.verdict, base.criterion), name
    # (e) is not invariant under positive diagonal scaling: only a flip
    # between separable and entangled would be wrong
    d = rng.uniform(0.2, 5.0, pair.n)
    scaled = separability_verdict(PairXY(d[:, None] * pair.X * d, d[:, None] * pair.Y * d))
    assert {base.verdict, scaled.verdict} != {"separable", "entangled"}


@pytest.mark.parametrize("scale", [1e-170, 1e-200])
def test_a_tiny_realignment_entangled_pair_and_its_images_stay_entangled(scale):
    """The norm bound that settles (e) without an SVD squares the entries of Y only after
    dividing them by the largest one.  Squared as they come, they underflow at these
    scales, the bound reads ||Y||_F = 0 and passes (e) for this entangled pair."""
    pair, _ = load_pair_document(FIXTURES / "cyclic_a2.json")
    tiny = PairXY(scale * pair.X, scale * pair.Y)
    images = {"scaled": tiny, **symmetric_images(tiny, np.random.default_rng(29))}
    for name, image in images.items():
        out = separability_verdict(image)
        assert (out.verdict, out.criterion) == ("entangled", "realignment"), name


@pytest.mark.parametrize("kind", KINDS)
def test_conditions_are_judged_alike_at_extreme_scales(kind):
    """(a)-(e) hold or fail alike at scales 1, 1e-200 and 1e160: (d) squares the entries
    of X and Y only after dividing them by X's largest diagonal entry, so the squares
    neither underflow to 0 nor overflow.  Verdicts, whose residual norms square the
    entries, are left out: above about 1e154 those norms overflow."""
    pair = seeded_pair(kind, 6, 11)
    base = check_necessary(pair)
    assert base.failing() == {"decomposable": [], "ppt": ["d"], "realignment": ["e"]}[kind]
    for s in (1e-200, 1e160):
        report = check_necessary(PairXY(s * pair.X, s * pair.Y))
        assert report.failing() == base.failing(), s
        assert report.witnesses.keys() == base.witnesses.keys()
        if "d" in base.witnesses:
            assert report.witnesses["d"]["position"] == base.witnesses["d"]["position"]
        assert report.x_gap == pytest.approx(s * base.x_gap, rel=1e-12)
        assert report.y_gap == pytest.approx(s * base.y_gap, rel=1e-12)


def test_entries_near_the_largest_float_keep_the_gaps_finite():
    """X = I against y_12 = y_21 = 1e308: ||Y||_1 and ||Y||_tr exceed the largest float.
    (e) takes its sums on the pair divided by a power of two, so (a)-(e) pass with
    finite gaps (summed as they come, gap(Y) read inf - inf = NaN and (e) failed), no
    overflow warns, and the separable pair is never answered entangled.  The gaps
    stay finite whether (e) is settled by the SVD of Y or, for the second pair, by
    the norm bound, which leaves gap(Y) to be computed on first read."""
    pair, _ = load_pair_document(FIXTURES / "huge_entries_pair.json")
    bound_settled = PairXY(np.diag([1.0, 1e308]), [[1.0, 1e308], [1e308, 1e308]])
    for image in (pair, bound_settled):
        report = check_necessary(image)
        assert report.all_hold
        assert math.isfinite(report.x_gap) and math.isfinite(report.y_gap)
    assert separability_verdict(pair).verdict != "entangled"


def test_transposing_y_keeps_every_verdict():
    """A single row-by-row search decides some of these pairs in only one
    orientation of Y (seeds 65, 97 and 123): the route must search both."""
    for seed in range(150):
        pair = seeded_pair("decomposable", 4 + seed % 3, seed)
        base = separability_verdict(pair).verdict
        assert separability_verdict(PairXY(pair.X, pair.Y.T)).verdict == base, seed


def seeded_spectrum(n: int, kind: int, seed: int) -> np.ndarray:
    """A passing spectrum inside the Gurvits-Barnum ball, a random one, or a pure state."""
    rng = np.random.default_rng(seed)
    d = n * n
    if kind == 0:
        delta = rng.dirichlet(np.ones(d)) - 1.0 / d
        lam = 1.0 / d + np.sqrt((1.0 / (d - 1) - 1.0 / d) / (delta @ delta)) * 0.9 * delta
    elif kind == 1:
        lam = rng.dirichlet(np.full(d, rng.uniform(0.3, 30.0)))
    else:
        lam = np.eye(d)[0]
    return np.sort(lam)[::-1]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), kind=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
       s=st.sampled_from(SCALES))
def test_abs_ppt_check_is_scale_invariant(n, kind, seed, s):
    """A passing spectrum is certified at every ordering and every scale: each item
    of a batch reads its own thresholds, which follow the scale."""
    lam = seeded_spectrum(n, kind, seed)
    base = abs_ppt_check(n, lam)
    assert abs_ppt_check(n, s * lam) == base
    if not base[0]:
        table = enumerate_orderings(n)[base[1]]
        assert certify_special_separable(table, s * lam).status == "not-applicable"
        return
    for scale in SCALES:
        scaled = scale * lam
        for table in enumerate_orderings(n):
            out = certify_special_separable(table, scaled)
            assert out.ok and verify_decomposition(out.decomposition, out.info["pair"], tol=1e-8)
