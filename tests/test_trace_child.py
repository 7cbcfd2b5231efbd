"""perfbench/trace_child.py wraps package functions by name; it must keep
running the CLI unchanged.  A deleted or renamed wrapped function fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

ARGS = [
    ["campaign", "run", "--n-start", "3", "--n-end", "3", "--max-degree", "1"],
    ["coneconj", "cover", "--n", "3", "--samples", "2", "--max-degree", "1"],
    ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "2"],
]


def _run(prefix: list[str], args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *prefix, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("args", ARGS, ids=[a[0] for a in ARGS])
def test_tracer_keeps_cli_stdout(args):
    traced = _run([str(ROOT / "perfbench" / "trace_child.py")], args)
    assert traced.returncode == 0, traced.stderr
    plain = _run(["-m", "hilbnef"], args)
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    metrics = json.loads(traced.stderr.strip().splitlines()[-1])
    assert metrics["cli.self_s"] >= 0
    assert "translations.reduce_steps" in metrics
    if args[0] == "walls":
        # the tracer walks the pool shape by shape; the certificate sums the
        # orbit sizes of its rows
        cert = json.loads(plain.stdout)["certificate"]
        assert metrics["bridgeland.shapes"] == cert["candidate_count"]
        assert metrics["bridgeland.survivors"] == cert["survivor_count"]
