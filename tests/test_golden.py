"""Byte-for-byte comparison of CLI output against committed golden files.

The files under tests/golden/ were written by the CLI before the duality scan
moved to per-degree dot profiles, before the rank-1 shape pool moved to E2..E9
orbits and (the `coneconj cover` file) before the section transvections moved
to one integer formula; any change to the certificate bytes fails here.  Regenerate
one with, e.g.,
`PYTHONPATH=src python -m hilbnef hilb check-theorem --n 3 > tests/golden/hilb_check_theorem_n3.json`
only when the output is meant to change.  The degree-3 `walls gieseker`
certificates (about 3 MB each) are pinned by their SHA-256 digest instead.
"""

import hashlib
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
    (
        "campaign_run_n3_n12.json",
        ["campaign", "run", "--n-start", "3", "--n-end", "12"],
    ),
    (
        "walls_gieseker_a1_n3_deg2.json",
        ["walls", "gieseker", "--slice", "A1", "--n", "3", "--max-degree", "2"],
    ),
    (
        "walls_gieseker_a2_n3_deg2.json",
        ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "2"],
    ),
    (
        "coneconj_cover_n3_seed0.json",
        ["coneconj", "cover", "--n", "3", "--seed", "0"],
    ),
]

DIGESTS = [
    (
        "A1",
        "ac1e799a03372214c88ccd42dd388712b22e766c237a902406176bdfd5dd8b28",
        2967751,
    ),
    (
        "A2",
        "967bfd8a70e6cab70f5f7f41b0037647555d4893802478efebd9778a30ba35e8",
        3066516,
    ),
]


@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden_bytes(capsys, name, args):
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("label,digest,size", DIGESTS, ids=[d[0] for d in DIGESTS])
def test_degree3_walls_match_golden_digest(capsys, label, digest, size):
    args = ["walls", "gieseker", "--slice", label, "--n", "3", "--max-degree", "3"]
    assert main(args) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest
