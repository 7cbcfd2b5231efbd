"""Verdict checks on the stdout of one benchmark workload.

Usage: python3 perfbench/checks.py WORKLOAD STDOUT_FILE

Prints one JSON line, {"reason": null | str, "facts": {...}}.  A non-null
reason means the output is wrong.  The facts are certificate counts that the
traced run compares with its own counters.  The benchmark runs this in its
own process so that parsing a 20 MB certificate never enlarges the process
that spawns the measured children (a child's maxrss starts from its parent's).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def walls_fields(doc: dict) -> dict:
    """The verdict fields of a `walls gieseker` certificate."""
    cert = doc["certificate"]
    return {
        "certified": cert["certified"],
        "fiber_wall": {
            "center": cert["fiber_wall"]["center"],
            "radius_sq": cert["fiber_wall"]["radius_sq"],
        },
        "min_survivor_center": cert["min_survivor_center"],
        "candidate_count": cert["candidate_count"],
        "survivor_count": cert["survivor_count"],
    }


def check_campaign(doc: dict, expected: dict) -> tuple[str | None, dict]:
    checks = [c for row in doc["results"] for c in row["checks"]]
    facts = {
        "pairings": sum(
            c["detail"]["pairings_checked"]
            for c in checks
            if c["name"] == "duality_scan"
        )
    }
    if doc["verdict"] != "certified":
        return f"verdict is {doc['verdict']!r}", facts
    if not checks:
        return "no checks in the campaign report", facts
    failed = [c["name"] for c in checks if c["passed"] is not True]
    if failed:
        return f"checks not passed: {failed}", facts
    return None, facts


def check_walls(doc: dict, expected: dict) -> tuple[str | None, dict]:
    fields = walls_fields(doc)
    facts = {
        "shapes": fields["candidate_count"],
        "survivors": fields["survivor_count"],
    }
    want = dict(expected["walls"], certified=True)
    wrong = sorted(k for k in want if fields[k] != want[k])
    if wrong:
        return f"verdict fields differ from the recorded ones: {wrong}", facts
    return None, facts


def check_cover(doc: dict, expected: dict) -> tuple[str | None, dict]:
    facts = {
        "reduce_steps": sum(t["steps"] for t in doc["trials"]),
        "stalled": doc["stalled"],
        "decompose_calls": doc["samples"],
    }
    if doc["passed"] is not True:
        return "coverage experiment did not pass", facts
    if doc["successes"] != doc["samples"]:
        return f"{doc['successes']} successes of {doc['samples']} samples", facts
    return None, facts


CHECKS = {"campaign": check_campaign, "walls": check_walls, "cover": check_cover}


def check_file(workload: str, path: str) -> tuple[str | None, dict]:
    expected = json.loads(EXPECTED_PATH.read_text())
    try:
        doc = json.loads(Path(path).read_bytes())
        return CHECKS[workload](doc, expected)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}", {}


if __name__ == "__main__":
    reason, facts = check_file(sys.argv[1], sys.argv[2])
    print(json.dumps({"reason": reason, "facts": facts}))
