"""Certification benchmark for the hilbnef CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign|walls|cover --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --record   # rewrite perfbench/expected.json

Every measured operation is one `python -m hilbnef ...` process, spawned
serially, so the package's caches start cold as they do for a user.  CPU
time and peak RSS come from os.wait4 on that one child.  With --trace 0 the
run times the workload for S seconds and reports setup_s, verdict_s, cpu_s
and peak_rss_mb.  With --trace 1 it runs the workload once untraced and once
under perfbench/trace_child.py, and reports the per-layer metrics.  Each
output is checked by perfbench/checks.py; the last stdout line is the JSON
result.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
EXPECTED = BENCH / "expected.json"
CHECKS = BENCH / "checks.py"

# cover seeds fold into the range whose output digests are recorded
COVER_SEEDS = 32
# setup_s samples: some before the first op and some after each, so that
# they span the run rather than one moment of the host's load
SETUP_FIRST, SETUP_PER_OP = 3, 2
DEADLINE_S = 170.0  # the whole run, so that it ends within 180 s


def workload_args(workload: str, seed: int) -> list[str]:
    """The CLI arguments of one workload.  Only cover uses the seed;
    campaign and walls are deterministic and ignore it."""
    if workload == "campaign":
        return ["campaign", "run", "--n-start", "3", "--n-end", "12", "--max-degree", "3"]
    if workload == "walls":
        return ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "4"]
    return ["coneconj", "cover", "--n", "3", "--samples", "100", "--max-degree", "4",
            "--seed", str(seed % COVER_SEEDS)]


# the same subcommand at the smallest size: imports and compiles every module
# the workload uses, so that .pyc writing is not in the first timed sample
WARMUP_ARGS = {
    "campaign": ["campaign", "run", "--n-start", "3", "--n-end", "3", "--max-degree", "1"],
    "walls": ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "1"],
    "cover": ["coneconj", "cover", "--n", "3", "--samples", "1", "--max-degree", "1"],
}

E2E_UNITS = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # keep the .pyc cache a user has
    return env


class Child:
    """One finished child process: its exit code, wall time from spawn to
    exit, CPU time and peak RSS, with stdout and stderr in files."""

    def __init__(self, argv: list[str], tag: str, timeout: float):
        self.stdout = OUT / f"{tag}.out"
        self.stderr = OUT / f"{tag}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.stderr), flags, 0o644),
        ]
        self.timed_out = False
        reaped = False
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                             file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 0.1))[0]:
                self.timed_out = True
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            reaped = True
        finally:
            os.close(pidfd)
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self.wall_s = time.perf_counter() - start
        self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    def digest(self) -> str:
        h = hashlib.sha256()
        with open(self.stdout, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()

    def discard(self) -> None:
        self.stdout.unlink(missing_ok=True)
        self.stderr.unlink(missing_ok=True)


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.args = workload_args(workload, seed)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.problems: list[str] = []
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, argv: list[str]) -> Child:
        self.count += 1
        return Child(argv, f"{self.workload}-{self.count}", self.remaining())

    def check(self, child: Child) -> tuple[str | None, dict]:
        """Exit code, then the verdict fields, checked in a separate process."""
        if child.timed_out:
            return "timed out", {}
        if child.code != 0:
            tail = child.stderr.read_text(errors="replace").strip().splitlines()[-1:]
            return f"exit code {child.code} {tail}", {}
        try:
            done = subprocess.run(
                [sys.executable, str(CHECKS), self.workload, str(child.stdout)],
                capture_output=True, text=True, timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return "checker timed out", {}
        if done.returncode != 0:
            return f"checker failed: {done.stderr.strip()[-300:]}", {}
        result = json.loads(done.stdout)
        return result["reason"], result["facts"]

    def expected_digest(self) -> str:
        digests = json.loads(EXPECTED.read_text())["digests"]
        if self.workload == "cover":
            return digests["cover"][str(self.seed % COVER_SEEDS)]
        return digests[self.workload]

    def prepare(self) -> None:
        """Untimed: one import that compiles the .pyc files and proves the
        package comes from this checkout, then the workload's warm-up."""
        probe = self.spawn(["-c", "import hilbnef.cli; print(hilbnef.cli.__file__)"])
        where = probe.stdout.read_text().strip()
        probe.discard()
        if probe.code != 0 or Path(where).resolve() != ROOT / "src" / "hilbnef" / "cli.py":
            raise SystemExit(f"error: hilbnef.cli did not import from {ROOT / 'src'}")
        warm = self.spawn(["-m", "hilbnef", *WARMUP_ARGS[self.workload]])
        warm.discard()
        if warm.code != 0:
            self.problems.append(f"warm-up exited {warm.code}")

    def time_imports(self, count: int) -> list[float]:
        """Wall times of fresh interpreters importing hilbnef.cli."""
        times = []
        for _ in range(count):
            child = self.spawn(["-c", "import hilbnef.cli"])
            child.discard()
            if child.code != 0:
                self.problems.append(f"setup import exited {child.code}")
            times.append(child.wall_s)
        return times


def environment() -> str:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
        except FileNotFoundError:
            done = None
        if done and done.returncode == 0:
            commit = done.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hilbnef").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))} "
            f"commit={commit} source_sha256={src.hexdigest()[:16]}")


def tail_percentile(values: list[float]) -> str:
    """The highest of p50..p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(ordered, n=100)[p - 1]
            return f"p{p}={cut:.4f}"
    return "no percentile has 10 samples beyond it"


def measure(run: Run, seconds: int) -> dict:
    run.prepare()
    setup = run.time_imports(SETUP_FIRST)
    ops: list[Child] = []
    failed = 0
    digests = 0
    expected = run.expected_digest()
    start = time.perf_counter()
    while True:
        child = run.spawn(["-m", "hilbnef", *run.args])
        reason, _ = run.check(child)
        digests += child.digest() == expected
        child.discard()
        ops.append(child)
        setup += run.time_imports(SETUP_PER_OP)
        if reason:
            failed += 1
            run.problems.append(f"op {len(ops)}: {reason}")
        elapsed = time.perf_counter() - start
        # stop before an op that would end past the measuring window
        if child.timed_out or elapsed + child.wall_s > min(seconds, run.remaining() - 10):
            break
    walls = [c.wall_s for c in ops]
    print(f"ops={len(ops)} digest_matches={digests}/{len(ops)}")
    print(f"verdict_s samples: {' '.join(f'{w:.4f}' for w in walls)}; "
          f"{tail_percentile(walls)}")
    print(f"setup_s samples: {' '.join(f'{w:.4f}' for w in setup)}")
    metrics = {
        "setup_s": statistics.median(setup),
        "verdict_s": statistics.median(walls),
        "cpu_s": statistics.median(c.cpu_s for c in ops),
        "peak_rss_mb": statistics.median(c.rss_mb for c in ops),
    }
    for name, value in metrics.items():
        print(f"{name:<12} {value:12.4f} {E2E_UNITS[name]}")
    print(f"{'failed_ratio':<12} {failed / len(ops):12.4f} ratio ({failed}/{len(ops)})")
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


# trace facts that must equal the certificate facts from checks.py
TRACE_FACTS = {
    "campaign": {"pairings": "hilb.pairings"},
    "walls": {"shapes": "bridgeland.shapes", "survivors": "bridgeland.survivors"},
    "cover": {
        "reduce_steps": "translations.reduce_steps",
        "stalled": "translations.stalled",
        "decompose_calls": "hilb.decompose_calls",
    },
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "1/s" if name.endswith("_per_s") else "s"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    return "bytes" if name == "reporting.bytes" else "count"


def trace(run: Run) -> dict:
    run.prepare()
    plain = run.spawn(["-m", "hilbnef", *run.args])
    traced = run.spawn([str(BENCH / "trace_child.py"), *run.args])
    expected = run.expected_digest()
    failed = 0
    facts = {}
    for label, child in (("untraced", plain), ("traced", traced)):
        reason, facts[label] = run.check(child)
        if reason:
            failed += 1
            run.problems.append(f"{label}: {reason}")
    digests = [plain.digest(), traced.digest()]
    if digests[0] != digests[1]:
        run.problems.append("traced stdout differs from untraced stdout")
    try:
        layers = json.loads(traced.stderr.read_text().strip().splitlines()[-1])
    except (IndexError, ValueError):
        run.problems.append("traced run wrote no span summary")
        layers = {}
    plain.discard()
    traced.discard()
    for fact, metric in TRACE_FACTS[run.workload].items():
        want = facts["untraced"].get(fact)
        if layers.get(metric) != want:
            run.problems.append(f"trace {metric}={layers.get(metric)} but certificate {fact}={want}")
    layers["reporting.digest_match"] = sum(d == expected for d in digests)
    layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    if layers.get("trace.span_coverage", 0) < 0.95:
        print(f"warning: span coverage {layers.get('trace.span_coverage')} < 0.95")
    for name, value in layers.items():
        print(f"{name:<32} {value:16.6g} {layer_unit(name)}")
    return {
        "attempted": 2,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()},
    }


def record() -> None:
    """Write expected.json from the current tree: output digests of every
    workload input and the verdict fields of the walls certificate."""
    sys.path.insert(0, str(BENCH))
    from checks import walls_fields

    OUT.mkdir(exist_ok=True)
    digests: dict = {"cover": {}}
    walls = None
    inputs = [("campaign", 0), ("walls", 0)] + [("cover", s) for s in range(COVER_SEEDS)]
    for workload, seed in inputs:
        child = Child(["-m", "hilbnef", *workload_args(workload, seed)],
                      f"record-{workload}-{seed}", 600.0)
        if child.code != 0:
            raise SystemExit(f"error: {workload} seed {seed} exited {child.code}")
        if workload == "walls":
            walls = walls_fields(json.loads(child.stdout.read_bytes()))
            del walls["certified"]
        if workload == "cover":
            digests["cover"][str(seed)] = child.digest()
        else:
            digests[workload] = child.digest()
        child.discard()
        print(f"recorded {workload} seed {seed}", file=sys.stderr)
    data = {"recorded_at": environment(), "walls": walls, "digests": digests}
    EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("campaign", "walls", "cover"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "hilbnef" / "cli.py").is_file():
        print(f"error: no hilbnef source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        OUT.mkdir(exist_ok=True)
        run = Run(args.workload, args.seed)
        print(f"# workload={args.workload} seed={args.seed} cli_args={' '.join(run.args)} "
              f"trace={args.trace} {environment()}")
        result = trace(run) if args.trace else measure(run, args.seconds)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    for problem in run.problems:
        print(f"problem: {problem}")
    print(f"runner_maxrss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    print(json.dumps({"correct": not run.problems, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
