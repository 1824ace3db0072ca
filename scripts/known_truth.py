"""Known-truth corpus: verdicts on pair families whose answer is known.

The reduction of separability to decomposability makes (X, X) decomposable
exactly when X is completely positive (CP), and the CP literature names
members of both kinds:

* (BB^T, BB^T) with B >= 0 entrywise is separable: BB^T is CP by definition;
* (X, X) with X doubly non-negative (DNN: PSD and entrywise >= 0) and
  n <= 4 is separable, since DNN = CP for n <= 4 (Maxfield & Minc, 1962);
* rank-one (bb^T, bb^T) with b >= 0 is separable;
* the 5-cycle X_c (unit diagonal, c on the cycle's edges, c in (0.5, 0.618])
  is entangled: X_c is DNN, the Horn matrix H is copositive (Hall & Newman,
  1963) and <H, X_c> = 5 - 10c < 0, so X_c is not CP.

One family pairs X with another Y: the all-ones J against the cyclic Y_a with
weights (1, a, 1/a).  It meets (a)-(d), so its state is PPT, but for a != 1
realignment fails in closed form (gap(Y_a) < 6 = gap(J)), so it is entangled;
at a = 1 it is (J, J), rank-one CP, so separable.

Every member also appears as an image under maps that keep decomposability:
a simultaneous permutation, a positive diagonal scaling (DXD, DYD) and the
filter (X, D_a Y D_a^-1).  For each family, size and form (plain or image)
the script prints how many members were answered separable, entangled and
inconclusive, how many raised an error instead, and how many were answered
against their truth; a separable answer whose certificate does not verify at
1e-8 counts against the truth too.  It exits with status 1 when any member
raised or was answered against its truth.

Run:  python3 scripts/known_truth.py [--seed 0] [--fraction 1.0]
"""

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pcpkit import PairXY, PcpkitError, separability_verdict, verify_decomposition

SEPARABLE, ENTANGLED, INCONCLUSIVE, RAISED = "separable", "entangled", "inconclusive", "raised"


def gram_of_nonnegative(rng, n: int) -> np.ndarray:
    """BB^T for an entrywise non-negative B with some zero entries."""
    B = rng.random((n, int(rng.integers(1, 2 * n + 1))))
    B[rng.random(B.shape) < 0.3] = 0.0
    return B @ B.T


def doubly_nonnegative(rng, n: int) -> np.ndarray:
    """GG^T for a real G of random rank and sign, drawn until it is entrywise >= 0."""
    while True:
        G = rng.standard_normal((n, int(rng.integers(1, n + 1)))) + rng.uniform(0.0, 1.0)
        X = G @ G.T
        if X.min() >= 0.0:
            return X


def rank_one(rng, n: int) -> np.ndarray:
    b = rng.random(n)
    return np.outer(b, b)


def same(make: Callable[[np.random.Generator, int], np.ndarray]):
    """The generator of the members (X, X) for a generator of X."""
    def member(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        X = make(rng, n)
        return X, X
    return member


def cyclic(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(J, Y_a) with log a drawn from (-2.5, 2.5): entangled though PPT."""
    a = np.exp(rng.uniform(-2.5, 2.5))
    return np.ones((3, 3)), np.array([[1.0, a, 1.0 / a], [1.0 / a, 1.0, a], [a, 1.0 / a, 1.0]])


def five_cycle(rng, n: int) -> np.ndarray:
    """X_c with c drawn from (0.5, 0.618]: DNN but not CP."""
    c = 0.5 + 0.118 * (1.0 - rng.random())
    X = np.eye(5)
    for i in range(5):
        X[i, (i + 1) % 5] = X[(i + 1) % 5, i] = c
    return X


@dataclass(frozen=True)
class Family:
    name: str
    truth: str
    make: Callable[[np.random.Generator, int], tuple]   # (rng, n) -> the member (X, Y)
    sizes: tuple[tuple[int, int], ...]                   # (n, members) per size


FAMILIES = (
    Family("BB^T, B >= 0", SEPARABLE, same(gram_of_nonnegative),
           ((3, 200), (4, 200), (5, 100), (6, 100), (8, 100))),
    Family("DNN, n <= 4", SEPARABLE, same(doubly_nonnegative), ((3, 200), (4, 400))),
    Family("rank-one", SEPARABLE, same(rank_one), tuple((n, 100) for n in range(2, 7))),
    Family("5-cycle X_c", ENTANGLED, same(five_cycle), ((5, 200),)),
    Family("cyclic, a!=1", ENTANGLED, cyclic, ((3, 380),)),
    Family("cyclic, a=1", SEPARABLE, same(lambda rng, n: np.ones((n, n))), ((3, 20),)),
)


def image(rng, X: np.ndarray, Y: np.ndarray) -> PairXY:
    """(X, Y) under a random simultaneous permutation, scaling (DXD, DYD) and filter
    (X, D_a Y D_a^-1), with D and D_a over 10^-2..10^2."""
    n = X.shape[0]
    p = rng.permutation(n)
    d = 10.0 ** rng.uniform(-2.0, 2.0, n)
    a = 10.0 ** rng.uniform(-2.0, 2.0, n)
    X, Y = (d[:, None] * M[np.ix_(p, p)] * d for M in (X, Y))
    return PairXY(X, a[:, None] * Y / a)


def answered_against(truth: str, pair: PairXY) -> tuple[str, bool]:
    """The verdict on ``pair`` (or ``raised``) and whether it contradicts ``truth``."""
    try:
        out = separability_verdict(pair)
    except PcpkitError:
        return RAISED, False
    if out.verdict == SEPARABLE:
        wrong = truth != SEPARABLE or not verify_decomposition(out.certificate, pair, tol=1e-8)
    else:
        wrong = out.verdict == ENTANGLED and truth != ENTANGLED
    return out.verdict, wrong


def run(seed: int = 0, fraction: float = 1.0) -> list[dict]:
    """One row per family, size and form (plain or image): its verdict counts."""
    rows = []
    for index, family in enumerate(FAMILIES):
        for n, members in family.sizes:
            counts = {form: dict.fromkeys((SEPARABLE, ENTANGLED, INCONCLUSIVE, RAISED,
                                           "against truth"), 0) for form in ("plain", "image")}
            rng = np.random.default_rng([seed, index, n])
            for _ in range(max(1, round(members * fraction))):
                X, Y = family.make(rng, n)
                for form, pair in (("plain", PairXY(X, Y)), ("image", image(rng, X, Y))):
                    verdict, wrong = answered_against(family.truth, pair)
                    counts[form][verdict] += 1
                    counts[form]["against truth"] += wrong
            rows += [{"family": family.name, "n": n, "form": form, "truth": family.truth, **c}
                     for form, c in counts.items()]
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fraction", type=float, default=1.0,
                        help="share of each family's members to run (at least one per size)")
    args = parser.parse_args()
    rows = run(args.seed, args.fraction)
    print(f"{'family':<14} {'n':>2} {'form':<6} {'truth':<10} {'separable':>9} {'entangled':>9} "
          f"{'inconclusive':>12} {'raised':>6} {'against truth':>13}")
    for r in rows:
        print(f"{r['family']:<14} {r['n']:>2} {r['form']:<6} {r['truth']:<10} {r[SEPARABLE]:>9} "
              f"{r[ENTANGLED]:>9} {r[INCONCLUSIVE]:>12} {r[RAISED]:>6} {r['against truth']:>13}")
    return 1 if any(r[RAISED] or r["against truth"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
