"""Run every capped command at its cap in two commits; write SCALING_<label>.json.

Usage, from the root of a git checkout:

    python3 scripts/scaling.py --label LABEL --parent REV

REV and HEAD are exported with `git archive` into a temporary directory, as
`scripts/bench.py` does, so only committed files are measured.  Each command
of the README cap table runs at its cap as `python -m hilbnef ...` in the two
trees alternately, PAIRS pairs, the side that runs first alternating from
pair to pair.  Each tree first runs one small command, untimed, so that its
bytecode cache is written before the first timed run.  A run's stdout goes
to a file, its wall time is read around the process and its peak RSS from
`os.wait4`.  Linux reports a child's peak RSS as at least the peak of the
memory it was spawned from, which for this script, after the exports, is
about 20 MB, more than some commands use.  So every run is spawned by a
small helper process (SPAWNER), started before the exports; its own peak,
the floor under every sample, is recorded too.

SCALING_<label>.json, written at the root of the checkout, holds per command
its arguments and, per side, the wall-time and peak-RSS samples with their
median and quartiles, and every run's exit code, stdout size and stdout
SHA-256; per command whether the two sides printed the same bytes with the
same exit code; and the Python version, nproc, both commits, the settings
and the spawner's peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import ROOT, SIDES, export, git, summary

PAIRS = 5

# (name, arguments at the cap), one per row of the README cap table, plus an
# earlier cap where a row's cap moved
COMMANDS = [
    ("weyl_orbit_h_deg15", ["weyl", "orbit", "--start", "H", "--max-degree", "15"]),
    # window^2 - D.D = 1 + 224 = 225, the walk cap
    ("weyl_orbit_h_15e1_deg1", ["weyl", "orbit", "--start", "H+15E1", "--max-degree", "1"]),
    # the parent runs these at its default --max-degree 3: its cap of 200 is gone
    ("surface_nef_h", ["surface", "nef", "--divisor", "H"]),
    # T_v(H) for v = 166(E1-E2+E3-E4): step bound 18 * 166^2 = 496,008, the
    # largest k under MAX_NEF_STEPS, walked in 996 reflections
    (
        "surface_nef_translate_k166",
        [
            "surface",
            "nef",
            "--divisor",
            "496009H-164838E1-165834E2-164838E3-165834E4-165336E5-165336E6-165336E7-165336E8"
            "-165336E9",
        ],
    ),
    (
        "hilb_check_theorem_n3_deg6",
        ["hilb", "check-theorem", "--n", "3", "--max-degree", "6"],
    ),
    # degree 5, the cap before the rows went by orbit, keeps the two sides
    # comparable; the parent refuses degree 9 with exit 2
    (
        "walls_gieseker_a2_n3_deg5",
        ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "5"],
    ),
    (
        "walls_gieseker_a2_n3_deg9",
        ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "9"],
    ),
    ("campaign_run_deg6", ["campaign", "run", "--max-degree", "6"]),
    # the north star's n axis at its cap: 124 (slice, n) wall certificates
    (
        "campaign_run_n64_deg6",
        ["campaign", "run", "--n-end", "64", "--max-degree", "6"],
    ),
    ("coneconj_cover_n3_deg6", ["coneconj", "cover", "--n", "3", "--max-degree", "6"]),
    (
        "coneconj_cover_n3_deg6_samples10000",
        ["coneconj", "cover", "--n", "3", "--max-degree", "6", "--samples", "10000"],
    ),
]
WARM_UP = ["weyl", "orbit", "--start", "E9", "--max-degree", "0"]

# Reads one JSON job [argv, env, stdout path] per line, runs it and answers
# [wall seconds, peak RSS in KiB, exit code]; at the end of its input it
# answers with the peak RSS of its own memory (VmHWM, in KiB), the one its
# children are spawned from.
SPAWNER = r"""
import json, os, sys, time
for line in sys.stdin:
    argv, env, out = json.loads(line)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]), flush=True)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), flush=True)
"""


def run_once(spawner: subprocess.Popen, tree: Path, args: list[str], out: Path) -> dict:
    """One `python -m hilbnef` process from `tree`, stdout to `out`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    job = [[sys.executable, "-m", "hilbnef", *args], env, str(out)]
    spawner.stdin.write(json.dumps(job) + "\n")
    spawner.stdin.flush()
    wall, rss_kib, code = json.loads(spawner.stdout.readline())
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return {
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(rss_kib / 1024, 2),
        "exit_code": code,
        "stdout_bytes": out.stat().st_size,
        "stdout_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names SCALING_<label>.json")
    parser.add_argument("--parent", required=True, help="the commit compared with HEAD")
    args = parser.parse_args()
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    report: dict = {
        "label": args.label,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commits": commits,
        "settings": {"command": "python -m hilbnef", "pairs": PAIRS},
        "commands": {},
    }
    spawner = subprocess.Popen(
        [sys.executable, "-S", "-c", SPAWNER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    with tempfile.TemporaryDirectory(prefix="hilbnef-scaling-") as tmp:
        trees = {side: export(commits[side], Path(tmp) / side) for side in SIDES}
        out = Path(tmp) / "stdout"
        for side in SIDES:
            run_once(spawner, trees[side], WARM_UP, out)
        for name, argv in COMMANDS:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run = run_once(spawner, trees[side], argv, out)
                    runs[side].append(run)
                    print(f"{name} pair {i} {side}: {run}", file=sys.stderr)
            entry: dict = {"argv": argv}
            for side in SIDES:
                entry[side] = {
                    "wall_s": summary([r["wall_s"] for r in runs[side]]),
                    "peak_rss_mb": summary([r["peak_rss_mb"] for r in runs[side]]),
                    "runs": runs[side],
                }
            outputs = {
                side: {(r["exit_code"], r["stdout_sha256"]) for r in runs[side]}
                for side in SIDES
            }
            entry["same_output"] = outputs["parent"] == outputs["change"]
            report["commands"][name] = entry
    spawner.stdin.close()
    report["spawner_peak_rss_mb"] = round(int(spawner.stdout.readline()) / 1024, 2)
    spawner.wait()
    path = ROOT / f"SCALING_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
