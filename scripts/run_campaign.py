#!/usr/bin/env python3
"""Run the full certification campaign over a range of n and write the
verdict JSON.  Exit status mirrors the CLI: 0 certified, 1 falsified."""

import argparse
import sys
import time

from hilbnef import Campaign, CampaignUsageError, dumps_json, run_and_write


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-start", type=int, default=3)
    ap.add_argument("--n-end", type=int, default=8)
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--slices", default="A1,A2")
    ap.add_argument("--out", default="campaign.json")
    args = ap.parse_args()

    campaign = Campaign(
        n_start=args.n_start,
        n_end=args.n_end,
        max_h_degree=args.max_degree,
        slices=tuple(args.slices.split(",")),
    )
    started = time.monotonic()
    try:
        result = run_and_write(campaign, args.out)
    except CampaignUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started

    summary = {
        "verdict": result.verdict,
        "checks": len(result.checks),
        "failing": [c.name for c in result.checks if not c.passed],
        "seconds": round(elapsed, 2),
        "out": args.out,
    }
    sys.stdout.write(dumps_json(summary))
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
