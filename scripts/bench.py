"""Compare two commits on the perfbench workloads and write BENCH_<label>.json.

Usage, from the root of a git checkout:

    python3 scripts/bench.py --label LABEL --parent REV

REV and HEAD are exported with `git archive` into a temporary directory, so
only committed files are measured.  For each workload of BENCHMARK.json the
script runs `perfbench/run.py --trace 0 --seed i` in the two trees
alternately, PAIRS pairs, the side that runs first alternating from pair to
pair; each run measures its own tree with that tree's runner, for the run
length that runner sets.  Pair i uses seed i (only `cover` reads it).  One
run yields one median per end-to-end metric.

BENCH_<label>.json, written at the root of the checkout, holds per workload
and metric both sides' samples (one per run) with their median and
quartiles, how many pairs the change won (ties count for neither side) and
the bound from BENCHMARK.json; per run the failed and attempted operations
and whether perfbench judged its outputs correct; and the Python version,
nproc, both commits and the settings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """Write the committed tree of `commit` under dest with `git archive`."""
    dest.mkdir()
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", commit], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in `tree`; its JSON result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"error: perfbench in {tree} exited {done.returncode}: {done.stderr[-500:]}"
        )
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def compare(runs: list[dict], metric: dict) -> dict:
    """Both sides' samples of one end-to-end metric, with the pairs won."""
    name = metric["name"]
    sides = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
    lower = metric["better"] == "lower"
    wins = sum(
        (c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"])
    )
    parent, change = summary(sides["parent"]), summary(sides["change"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "change_wins": wins,
        "pairs": len(runs),
        "relative_change": (change["median"] - parent["median"]) / parent["median"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="the commit compared with HEAD")
    args = parser.parse_args()
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    report: dict = {
        "label": args.label,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commits": commits,
        "settings": {
            "command": "perfbench/run.py --trace 0",
            "pairs": PAIRS,
            "seeds": f"pair index 0..{PAIRS - 1}",
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="hilbnef-bench-") as tmp:
        trees = {side: export(commits[side], Path(tmp) / side) for side in SIDES}
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = []
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"pair": i, "first": order[0]}
                for side in order:
                    run[side] = run_once(trees[side], workload, i)
                    print(f"{workload} pair {i} {side}: {run[side]['metrics']}", file=sys.stderr)
                runs.append(run)
            report["workloads"][workload] = {
                "metrics": {m["name"]: compare(runs, m) for m in benchmark["end_to_end"]},
                "runs": runs,
            }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
