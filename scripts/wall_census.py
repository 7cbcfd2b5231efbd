#!/usr/bin/env python3
"""Tabulate the rank-1 wall candidate census per slice and n: how many shapes
each effectivity filter removes, how many survive, and where the surviving
walls sit relative to the extremal fiber wall."""

import argparse
from collections import Counter

from hilbnef import Wall, rank1_candidates, slice_for


def census(label: str, n: int, bound: int) -> dict:
    sl = slice_for(label, n)
    cands = rank1_candidates(sl, bound)
    eliminated = Counter(c.filtered_by for c in cands if c.filtered_by)
    survivors = [c for c in cands if c.filtered_by is None]
    nonempty = [
        c.wall
        for c in survivors
        if isinstance(c.wall, Wall) and not c.wall.is_empty
    ]
    distinct = Counter((w.center, w.radius_sq) for w in nonempty)
    return {
        "slice": label,
        "n": n,
        "candidates": len(cands),
        "eliminated": dict(eliminated),
        "survivors": len(survivors),
        "nonempty_walls": len(nonempty),
        "distinct_walls": {
            f"center {c}, radius^2 {r}": k for (c, r), k in sorted(distinct.items())
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--max-degree", type=int, default=3)
    args = ap.parse_args()

    for n in args.n:
        for label in ("A1", "A2"):
            row = census(label, n, args.max_degree)
            print(f"== {label}, n={n} ==")
            print(f"  candidates {row['candidates']}, survivors {row['survivors']},"
                  f" nonempty walls {row['nonempty_walls']}")
            print(f"  eliminated: {row['eliminated']}")
            for desc, count in row["distinct_walls"].items():
                print(f"  {count:5d} x {desc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
