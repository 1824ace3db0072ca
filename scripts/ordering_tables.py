"""Exact tables of realizable product orderings, written to ``pcpkit.ordering_data``.

With x = log alpha sorted in decreasing order, an ordering of the products
alpha_k alpha_l is an order of the n(n+1)/2 linear forms x_k + x_l (k <= l);
the minus products follow in reverse order of the plus products.  The search
grows such orders one form at a time, depth first.  A form is placed only
after every form that dominates it ((k', l') with k' <= k and l' <= l), and a
prefix is kept only when a strict-feasibility LP has a solution:

    placed forms decrease by at least 1 from one to the next,
    the last placed form exceeds every unplaced form by at least 1,
    2 x_k - 2 x_{k+1} >= 1 (alpha strictly decreasing), x_0 = 0,

minimizing the span x_0 - x_{n-1}.  Every kept prefix therefore extends to a
complete order, and the LP solution of a complete order, rounded to 3
decimals, is its stored witness.  The counts are 1, 2, 10, 114 for n = 2..5.

Run:  python3 scripts/ordering_tables.py           # rewrite the data module
      python3 scripts/ordering_tables.py --check   # exit 1 if it differs

Needs scipy (``scipy.optimize.linprog``); the package itself does not.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from pcpkit.abssep import OrderingTable, decode_ordering

DATA_PATH = Path(__file__).resolve().parents[1] / "src" / "pcpkit" / "ordering_data.py"
DIMS = (2, 3, 4, 5)
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

HEADER = '''"""Realizable orderings of the products alpha_k alpha_l, for n = 2..5.

Generated by scripts/ordering_tables.py; do not edit.  One line per ordering,
in canonical ordering order: the forms x_k + x_l (x = log alpha) from largest
to smallest, as base-36 indices into the row-major list of pairs k <= l, then
a log-space witness x realizing that order.
"""
'''


def _feasible(n: int, forms, prefix: list[int], remaining: set[int]):
    """An x realizing the prefix with every unplaced form below it, or None."""
    rows = [forms[b] - forms[a] for a, b in zip(prefix, prefix[1:])]
    rows += [forms[r] - forms[prefix[-1]] for r in sorted(remaining)]
    for k in range(n - 1):
        row = np.zeros(n)
        row[k], row[k + 1] = -2.0, 2.0
        rows.append(row)
    cost = np.zeros(n)
    cost[0], cost[-1] = 1.0, -1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=-np.ones(len(rows)),
                  A_eq=np.eye(1, n), b_eq=[0.0], bounds=(None, None), method="highs")
    return res.x if res.status == 0 else None


def orders(n: int) -> list[tuple[list[int], np.ndarray]]:
    """Every realizable order of the forms for dimension n, with its LP witness."""
    pairs = [(k, l) for k in range(n) for l in range(k, n)]
    forms = [np.eye(n)[k] + np.eye(n)[l] for k, l in pairs]
    dominators = [{j for j, (a, b) in enumerate(pairs) if j != i and a <= k and b <= l}
                  for i, (k, l) in enumerate(pairs)]
    found = []

    def grow(prefix: list[int], remaining: set[int], x) -> None:
        if not remaining:
            found.append((prefix, x))
            return
        for f in sorted(remaining):
            if dominators[f] & remaining:
                continue
            rest = remaining - {f}
            y = _feasible(n, forms, prefix + [f], rest)
            if y is not None:
                grow(prefix + [f], rest, y)

    grow([], set(range(len(pairs))), None)
    return found


def tables(n: int) -> list[tuple[str, tuple[float, ...]]]:
    """The stored entries for dimension n, in canonical ordering order."""
    entries = []
    for order, x in orders(n):
        code = "".join(DIGITS[i] for i in order)
        witness = tuple(round(float(v), 3) + 0.0 for v in x)
        entries.append((code, witness))
    entries.sort(key=lambda e: OrderingTable.sort_key(decode_ordering(n, *e)))
    return entries


def render(all_tables: dict[int, list]) -> str:
    lines = [HEADER, "TABLES = {"]
    for n, entries in all_tables.items():
        lines.append(f'    {n}: """')
        lines += [" ".join([code, *(repr(v).removesuffix(".0") for v in x)])
                  for code, x in entries]
        lines.append('""",')
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed data module instead of writing it")
    args = parser.parse_args()
    all_tables = {}
    for n in DIMS:
        start = time.perf_counter()
        all_tables[n] = tables(n)
        print(f"n = {n}: {len(all_tables[n])} orderings "
              f"({time.perf_counter() - start:.2f} s)")
    text = render(all_tables)
    if args.check:
        if DATA_PATH.read_text() != text:
            print(f"{DATA_PATH} differs from the regenerated tables", file=sys.stderr)
            return 1
        print(f"{DATA_PATH} matches the regenerated tables")
        return 0
    DATA_PATH.write_text(text)
    print(f"wrote {DATA_PATH} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
