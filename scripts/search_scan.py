"""Scan seeded random decomposable pairs through the verdict and its permutation search.

For each n, draws pairs X = sum (v.w)(v.w)*, Y = |V|^2 |W|^2^T with complex
Gaussian V, W and m in [n, 2n+1] terms (the generator of the test suite and
of the benchmark), from numpy's default_rng(n).  Every pair is decomposable,
so a correct verdict is `separable` or `inconclusive`; the inconclusive count
is the rate the row-by-row route's search leaves undecided.  `attempts` is
the recursive route's count summed over the pairs that reached it (failed
steps, dropped search nodes and completed passes); the times are those of
`separability_verdict` alone, one pair at a time.

Run:  python3 scripts/search_scan.py [--n 4,5,6,7,8] [--pairs 40]
"""

import argparse
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from pcpkit import (
    PairXY,
    PcpDecomposition,
    decompose_recursive,
    reconstruct,
    separability_verdict,
    verify_decomposition,
)


@dataclass
class ScanConfig:
    sizes: list = field(default_factory=lambda: [4, 5, 6, 7, 8])
    pairs: int = 40


def random_decomposable_pair(rng, n: int) -> PairXY:
    m = int(rng.integers(n, 2 * n + 2))
    V = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    W = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return reconstruct(PcpDecomposition(V, W))


def scan(n: int, pairs: int) -> dict:
    """Verdict counts, summed attempts and verdict times (ms) of ``pairs`` pairs at n."""
    rng = np.random.default_rng(n)
    counts = {"separable": 0, "inconclusive": 0, "wrong": 0}
    attempts = 0
    times = []
    for _ in range(pairs):
        pair = random_decomposable_pair(rng, n)
        start = time.perf_counter()
        out = separability_verdict(pair)
        times.append((time.perf_counter() - start) * 1e3)
        if out.verdict == "separable":
            counts["separable"] += 1
            counts["wrong"] += not verify_decomposition(out.certificate, pair, tol=1e-8)
        elif out.verdict == "inconclusive":
            counts["inconclusive"] += 1
        else:
            counts["wrong"] += 1
        if out.criterion == "recursive":
            attempts += out.outcome.info["attempts"]
        elif out.verdict == "inconclusive":   # the route ran and failed: count it untimed
            attempts += decompose_recursive(pair, search_permutations=True).info["attempts"]
    return {"n": n, "pairs": pairs, **counts, "attempts": attempts,
            "median_ms": float(np.median(times)), "worst_ms": max(times)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default=None, help="comma-separated sizes (default 4,5,6,7,8)")
    parser.add_argument("--pairs", type=int, default=40, help="pairs per size, seed = n")
    args = parser.parse_args()
    cfg = ScanConfig(pairs=args.pairs)
    if args.n:
        cfg.sizes = [int(v) for v in args.n.split(",")]
    print(f"{'n':>2} {'pairs':>5} {'separable':>9} {'inconclusive':>12} {'attempts':>8} "
          f"{'median ms':>9} {'worst ms':>8}")
    wrong = 0
    for n in cfg.sizes:
        r = scan(n, cfg.pairs)
        wrong += r["wrong"]
        print(f"{r['n']:>2} {r['pairs']:>5} {r['separable']:>9} {r['inconclusive']:>12} "
              f"{r['attempts']:>8} {r['median_ms']:>9.2f} {r['worst_ms']:>8.1f}")
    if wrong:
        print(f"{wrong} pairs got an entangled verdict or a certificate that does not verify")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
