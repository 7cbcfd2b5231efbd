"""Byte-for-byte comparison of CLI output against committed golden files.

The files under tests/golden/ were written by the CLI before the duality scan
moved to per-degree dot profiles, before the rank-1 shape pool moved to E2..E9
orbits and (the `coneconj cover` file) before the section transvections moved
to one integer formula; any change to the certificate bytes fails here.  The
two `hilb check-theorem` files were written again when the scan began to print
one curve row per S9 orbit of (-1)-curves, labelled by its representative
with its arrangement count; each row is the earlier per-curve row of its
representative plus that count.  Regenerate
one with, e.g.,
`PYTHONPATH=src python -m hilbnef hilb check-theorem --n 3 > tests/golden/hilb_check_theorem_n3.json`
only when the output is meant to change.  The two `walls gieseker` files, the
degree-3 `walls gieseker` digests and the three `walls_*` DEEP_DIGESTS were
written again when the certificate began to list one candidate row per
E2..E9 orbit, with its arrangement count, in place of one row per shape.
The four `campaign run` and `walls gieseker` files, the degree-3 `walls
gieseker` digests, `campaign_run_deg5` and the three `walls_*` DEEP_DIGESTS
were written again when each certificate began to carry one rank-2 radius
bound, the exact one, under `rank2_radius_bound` (the quoted replay moved to
a discrepancy row of its own).  The two `campaign run` files and
`campaign_run_deg5` were written again when the `ample_A1` and `ample_A2`
checks began to read the chamber walk: each check's detail is now the nef
certificate of the polarization, with its standard form, plus `"ample"`, in
place of the closed-form pencil-family pairings.
The degree-3 `walls gieseker` certificates are pinned by their SHA-256
digest instead of a file, and
so are the degree-5 and degree-6 outputs in DEEP_DIGESTS, which were recorded
from the CLI while the Weyl orbits still came from a breadth-first search and
the duality scan still paired every orbit class with every curve (all but the
`weyl orbit`, `walls gieseker` and `surface nef` reports and the degree-6 `hilb
check-theorem` report, whose recording the DEEP_DIGESTS comment gives).
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
        "b3658cae39208287d7c70ad4cd6f626b76bfe88a22d7ac39d6cd6308ce22e565",
        23955,
    ),
    (
        "A2",
        "7935cca16d1a79c78ae70bdf3f7722f222cf4a27f3efd97f1535ec3b526d75c3",
        24800,
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


# (name, argv, exit code, SHA-256 of stdout, stdout bytes).  `hilb check-theorem` at
# degree 6 exits 1: 72 (-1)-curves of degree 6, the S9 orbit of
# 6H-3E1-2E2-...-2E8, have no orthogonality witness inside the window, so this
# pins the window-edge output; it was recorded again when the scan began to
# print one curve row per S9 orbit.  The degree-4 and
# degree-5 `walls gieseker` certificates were recorded again when the
# certificate began to list one candidate row per E2..E9 orbit; the A2
# degree-4 one is the `walls` workload's output, whose digest in
# perfbench/expected.json still pins the earlier per-shape bytes.  The three `weyl orbit` reports were
# recorded when it began to print one row per sorted S9 representative with
# its arrangement count instead of every class; each row expands to the
# listed orbit in tests/test_cli.py.  The three `surface nef` reports were
# recorded again when the nef test began to decide nefness for all curves from
# the chamber walk; each prints the witness that the bounded scan printed.
# The larger `coneconj cover` outputs were recorded while the coverage pool
# still lifted every orbit class up front.
DEEP_DIGESTS = [
    (
        "campaign_run_deg5",
        ["campaign", "run", "--max-degree", "5"],
        0,
        "114212c20da9c512a1a951adf26db8362accb2b6d33474b2f5587e3e9762a688",
        69038,
    ),
    (
        "hilb_check_theorem_n3_deg6",
        ["hilb", "check-theorem", "--n", "3", "--max-degree", "6"],
        1,
        "75bbc49a606aa722c1fa04fddd930bf86c9d2da3c52c423a7d2d1a65dbd2e4a2",
        2600,
    ),
    (
        "weyl_orbit_h_deg6",
        ["weyl", "orbit", "--start", "H", "--max-degree", "6"],
        0,
        "92498c4a3a7a4107141eafe5326f6498380a50061d00a7a1e0dd0039f9297fd9",
        1181,
    ),
    (
        "weyl_orbit_e9_deg6",
        ["weyl", "orbit", "--start", "E9", "--max-degree", "6"],
        0,
        "3832e634ca7439a8f9d76ee3c318360048840a71478ce14f54ef3aa548164f3c",
        1115,
    ),
    (
        "coneconj_cover_n3_deg5_seed0",
        ["coneconj", "cover", "--n", "3", "--max-degree", "5", "--seed", "0"],
        0,
        "68afea596c819ace72450eb934cb5a7488aeca399e398637bdf71c6583737637",
        16799,
    ),
    (
        "walls_a2_n3_deg4",
        ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "4"],
        0,
        "56bf994f33e4a47c7cd8085beb7e24f8cd0f3a3eac0a0e2eb9dccb801368fd25",
        83658,
    ),
    (
        "walls_a2_n3_deg5",
        ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "5"],
        0,
        "4999daa7c64159aefa145e4974cdfa4ab913712299b7e12fc4630867b03be7e7",
        246003,
    ),
    (
        "walls_a1_n5_deg4",
        ["walls", "gieseker", "--slice", "A1", "--n", "5", "--max-degree", "4"],
        0,
        "eec103a5a9c96e8a6b308e4e308177b1ee935ba8d20d85b64f84f54574861904",
        80703,
    ),
    (
        "weyl_orbit_h_deg8",
        ["weyl", "orbit", "--start", "H", "--max-degree", "8"],
        0,
        "5c4da3109a8e7ac2070dd572c212a95f7b7989fe2321cb00e4b797b28043094d",
        2220,
    ),
    (
        "surface_nef_h",
        ["surface", "nef", "--divisor", "H"],
        0,
        "8b70a49b660712962d7d0a2603210fe5de88e47edff033546d1c8ddcb71ff04a",
        326,
    ),
    (
        "surface_nef_h_e1_e2",
        ["surface", "nef", "--divisor", "H-E1-E2"],
        1,
        "940360c0d93ece24fade71285cecc469deb23a2280fa05fe24b15b61d39e6e30",
        381,
    ),
    (
        # F + (3/2)(6H - 2E1 - ... - 3E5 - ... - 2E7 - 2E9): its one negative
        # pairing is with that degree-6 (-1)-class, whose E-numerators are unsorted
        "surface_nef_rational",
        ["surface", "nef", "--divisor", "12H-4E1-4E2-4E3-4E4-11/2E5-4E6-4E7-E8-4E9"],
        1,
        "682cbce0f7931b62f4bbc0920ecd31c49a9d0c7c30c8743c967c559e3d9e1f50",
        400,
    ),
    (
        "coneconj_cover_n3_deg6_seed0",
        ["coneconj", "cover", "--n", "3", "--max-degree", "6", "--seed", "0"],
        0,
        "715c54478cde8d24c93c7c08b4f870b4ce2e487dbd59d1c37e24e923ab5e419f",
        16726,
    ),
    (
        "coneconj_cover_n5_300_deg4_seed7",
        [
            "coneconj",
            "cover",
            "--n",
            "5",
            "--samples",
            "300",
            "--max-degree",
            "4",
            "--seed",
            "7",
        ],
        0,
        "34133ec304d22b830a0b8fd3c4234a6624f47031fd9e681dc83c4b21d5b93909",
        50714,
    ),
]


@pytest.mark.parametrize(
    "name,args,code,digest,size", DEEP_DIGESTS, ids=[d[0] for d in DEEP_DIGESTS]
)
def test_deep_outputs_match_recorded_digest(capsys, name, args, code, digest, size):
    assert main(args) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest
