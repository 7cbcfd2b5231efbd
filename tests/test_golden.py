"""Byte-for-byte comparison of CLI output against committed golden files.

The files under tests/golden/ were written by the CLI before the duality scan
moved to per-degree dot profiles; any change to the certificate bytes fails
here.  Regenerate one with, e.g.,
`PYTHONPATH=src python -m hilbnef hilb check-theorem --n 3 > tests/golden/hilb_check_theorem_n3.json`
only when the output is meant to change.
"""

from pathlib import Path

import pytest

from hilbnef.cli import main

GOLDEN = Path(__file__).with_name("golden")

CASES = [
    ("hilb_check_theorem_n3.json", ["hilb", "check-theorem", "--n", "3"]),
    ("hilb_check_theorem_n12.json", ["hilb", "check-theorem", "--n", "12"]),
    (
        "campaign_run_n3_n4.json",
        ["campaign", "run", "--n-start", "3", "--n-end", "4"],
    ),
]


@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden_bytes(capsys, name, args):
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
