"""Scan the one-parameter cyclic 3x3 family and watch the criteria separate.

X is the all-ones matrix; Y cycles the weights (1, a, 1/a) around the three
positions.  Every member passes conditions (a)-(d) -- in particular the
entrywise product test that encodes positivity of the partial transpose --
but the norm-gap condition (e) fails for every a != 1, so the whole family
except a = 1 is entangled while remaining PPT.

Run:  python3 scripts/cyclic_scan.py [--values 0.25,0.5,1,2,4]
"""

import argparse
from dataclasses import dataclass, field

import numpy as np

from pcpkit import PairXY, separability_verdict
from pcpkit.linalg import entrywise_one_norm, trace_norm


@dataclass
class ScanConfig:
    values: list = field(default_factory=lambda: [0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0, 8.0])


def cyclic_pair(a: float) -> PairXY:
    X = np.ones((3, 3), complex)
    Y = np.array([[1.0, a, 1.0 / a],
                  [1.0 / a, 1.0, a],
                  [a, 1.0 / a, 1.0]])
    return PairXY(X, Y)


def closed_forms(a: float) -> tuple[float, float]:
    s = 1.0 + a + a * a
    return 3.0 * s / a, (s + 2.0 * abs(a - 1.0) * np.sqrt(s)) / a


def run_scan(cfg: ScanConfig) -> None:
    print(f"{'a':>7} {'gap(X)':>8} {'gap(Y)':>10} {'|closed-form err|':>18} "
          f"{'(a)-(d)':>8} {'(e)':>5}   verdict")
    for a in cfg.values:
        pair = cyclic_pair(a)
        report = pair.report
        one_c, tr_c = closed_forms(a)
        err = max(abs(entrywise_one_norm(pair.Y) - one_c),
                  abs(trace_norm(pair.Y) - tr_c))
        abcd = all((report.holds_a, report.holds_b, report.holds_c, report.holds_d))
        v = separability_verdict(pair)
        verdict = v.verdict + (f" ({v.criterion})" if v.criterion else "")
        print(f"{a:>7.3g} {report.x_gap:>8.4f} {report.y_gap:>10.4f} {err:>18.2e} "
              f"{'pass' if abcd else 'FAIL':>8} {'pass' if report.holds_e else 'FAIL':>5}   {verdict}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", default=None, help="comma-separated values of a")
    args = parser.parse_args()
    cfg = ScanConfig()
    if args.values:
        cfg.values = [float(v) for v in args.values.split(",")]
    run_scan(cfg)


if __name__ == "__main__":
    main()
