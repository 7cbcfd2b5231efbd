#!/usr/bin/env python3
"""Sweep the bounding-cone coverage experiment over n and seeds.  Reports the
decomposition success rate and the `stalled` count: the trials whose reduced
nef part still has H-degree above STALL_DEGREE (or whose descent hit its step
cap).  The flag measures the size of the reduced class, not a failed
reduction: on the seed-0 trials at degrees 3 and 4, a descent over all 240
root translations gives the same stalled counts."""

import argparse

from hilbnef import CoverageConfig, coverage_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--samples", type=int, default=100)
    args = ap.parse_args()

    print(f"{'n':>3} {'seed':>5} {'decomposed':>11} {'stalled':>8} {'max reduced h':>14}")
    all_passed = True
    for n in args.n:
        for seed in args.seeds:
            rep = coverage_experiment(CoverageConfig(n, samples=args.samples, seed=seed))
            all_passed = all_passed and rep.passed
            print(
                f"{n:>3} {seed:>5} {rep.successes:>6}/{args.samples:<4}"
                f" {rep.stalled_count:>8} {str(rep.max_reduced_h):>14}"
            )
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
