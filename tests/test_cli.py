import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilbnef import cli, weyl
from hilbnef.bridgeland import WallCandidate, _degree_orbits
from hilbnef.lattice import E, F, H, parse_divisor
from hilbnef.cli import main

from conftest import distinct_permutations, listed_orbit

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")
ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, args):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weyl_orbit_command(capsys):
    code, out, _ = run_cli(capsys, ["weyl", "orbit", "--start", "E9", "--max-degree", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 171
    assert data["counts_by_degree"] == {"0": 9, "1": 36, "2": 126}
    assert data["representatives"] == [
        {"arrangements": 9, "representative": "E9"},
        {"arrangements": 36, "representative": "H-E1-E2"},
        {"arrangements": 126, "representative": "2H-E1-E2-E3-E4-E5"},
    ]


def test_weyl_orbit_fixed_class(capsys):
    code, out, _ = run_cli(capsys, ["weyl", "orbit", "--start", "F", "--max-degree", "3"])
    assert code == 0
    assert json.loads(out)["total"] == 1


def test_weyl_orbit_empty_class_list(capsys):
    # -F is a negative multiple of F: its orbit has no class of degree >= 0
    code, out, _ = run_cli(capsys, ["weyl", "orbit", "--start=-F"])
    assert code == 0
    assert '\n  "representatives": [],\n' in out
    assert json.loads(out)["total"] == 0


ORBIT_STARTS = {"H": H, "H-E1": H - E[0], "E9": E[8], "2F": 2 * F}


@pytest.mark.parametrize("degree", range(10))
@pytest.mark.parametrize("name", sorted(ORBIT_STARTS))
def test_weyl_orbit_rows_expand_to_the_listed_orbit(capsys, name, degree):
    # each row stands for the distinct arrangements of its representative's
    # E-part, and the representative is the least of them
    code, out, _ = run_cli(
        capsys, ["weyl", "orbit", "--start", name, "--max-degree", str(degree)]
    )
    assert code == 0
    data = json.loads(out)
    expanded = []
    for row in data["representatives"]:
        rep = parse_divisor(row["representative"])
        classes = [(rep.nums[0],) + e for e in distinct_permutations(rep.nums[1:])]
        assert row["arrangements"] == len(classes)
        assert min(classes) == rep.nums
        expanded += classes
    orbit = listed_orbit(ORBIT_STARTS[name], degree)
    assert sorted(expanded) == [c.nums for c in orbit]
    counts = {}
    for c in orbit:
        counts[str(c.nums[0])] = counts.get(str(c.nums[0]), 0) + 1
    assert data["total"] == len(orbit)
    assert data["counts_by_degree"] == counts


def test_weyl_orbit_lists_no_orbit(capsys, monkeypatch):
    # the rows come from the sorted representatives: no class is unranked
    unranked = []
    real = weyl._unrank
    monkeypatch.setattr(weyl, "_unrank", lambda *args: unranked.append(args) or real(*args))
    code, out, _ = run_cli(capsys, ["weyl", "orbit", "--start", "H", "--max-degree", "9"])
    assert (code, unranked) == (0, [])
    data = json.loads(out)
    assert (data["total"], len(data["representatives"])) == (99_838, 27)


@pytest.mark.parametrize("start", ["--start=E1-E2", "--start=-H"])
def test_weyl_orbit_refuses_a_start_without_a_finite_window(capsys, start):
    # E1-E2 pairs 0 with F and squares to -2; -H pairs -3 with F
    code, out, err = run_cli(capsys, ["weyl", "orbit", start, "--max-degree", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "finite orbit window" in err
    assert "Traceback" not in err


def test_surface_nef_accepts(capsys):
    code, out, _ = run_cli(capsys, ["surface", "nef", "--divisor", "H"])
    assert code == 0
    data = json.loads(out)
    assert (data["scope"], data["verdict"]) == ("all curves", "nef")
    assert data["standard_form"] == ["1"] + ["0"] * 9
    assert data["word"] == []


def test_surface_nef_has_no_degree_option(capsys):
    code, out, err = run_cli(capsys, ["surface", "nef", "--divisor", "H", "--max-degree", "3"])
    assert (code, out) == (2, "")
    assert "--max-degree" in err


def test_surface_nef_rejects_with_witness(capsys):
    code, out, _ = run_cli(capsys, ["surface", "nef", "--divisor", "H-2E1"])
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "not_nef"
    assert data["witness_pairing"] == "-1"
    assert data["witness"] == {"h": "1", "e": ["-1", "-1", "0", "0", "0", "0", "0", "0", "0"]}


def test_surface_nef_accepts_the_zero_class_as_printed(capsys):
    # str(ZERO) is "0"; it reads back as the class "0H" names
    _, zero_h, _ = run_cli(capsys, ["surface", "nef", "--divisor", "0H"])
    code, out, _ = run_cli(capsys, ["surface", "nef", "--divisor", "0"])
    assert code == 0
    assert out == zero_h
    assert json.loads(out)["divisor"] == {"h": "0", "e": ["0"] * 9}


def test_surface_nef_json_divisor_argument(capsys):
    arg = json.dumps({"h": "1", "e": ["0"] * 9})
    code, out, _ = run_cli(capsys, ["surface", "nef", "--divisor", arg])
    assert code == 0


def test_surface_ample_family(capsys):
    code, out, _ = run_cli(capsys, ["surface", "ample-family", "--n", "3", "--which", "A1"])
    assert code == 0
    data = json.loads(out)
    assert data["ample"] is True
    assert data["which"] == "A1"
    assert data["scope"] == "all curves"
    assert Fraction(data["standard_form"][-1]) > 0


def test_hilb_check_theorem(capsys):
    code, out, _ = run_cli(capsys, ["hilb", "check-theorem", "--n", "3", "--max-degree", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["nef_candidates"] == 441
    assert data["curve_candidates"] == 173
    assert data["pairings_checked"] == 76293
    assert data["min_pairing"] == "0"
    # contracted, fiber, and the S9 orbits of E9, H-E1-E2 and 2H-E1-...-E5
    assert [row["arrangements"] for row in data["curves"]] == [1, 1, 9, 36, 126]
    for row in data["curves"]:
        assert RATIONAL.match(row["min_pairing"])


def test_walls_gieseker(capsys):
    code, out, _ = run_cli(capsys, ["walls", "gieseker", "--slice", "A2", "--n", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["wall"] == {"center": "-1", "radius_sq": "1"}
    assert data["certificate"]["certified"] is True
    assert data["certificate"]["survivor_count"] == 17


def test_coneconj_cover(capsys):
    code, out, _ = run_cli(
        capsys, ["coneconj", "cover", "--n", "3", "--samples", "5", "--seed", "0"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["successes"] == 5
    assert data["passed"] is True


def test_campaign_run(capsys):
    # every run certifies both slices
    code, out, _ = run_cli(capsys, ["campaign", "run", "--n-start", "3", "--n-end", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "certified"
    assert data["slices"] == ["A1", "A2"]
    assert [c["name"] for c in data["results"][0]["checks"]] == [
        "duality_scan",
        "ample_A1",
        "extremal_wall_A1",
        "wall_to_nef_A1",
        "ample_A2",
        "extremal_wall_A2",
        "wall_to_nef_A2",
    ]


@pytest.mark.parametrize(
    "args,message",
    [
        (["--n-start", "2"], "--n-start must be at least 3"),
        (["--n-start", "5", "--n-end", "4"], "--n-start 5 is over --n-end 4"),
        (["--slices", "A1"], "unrecognized arguments: --slices A1"),
    ],
    ids=["n-start-below-3", "empty-range", "slices-unknown"],
)
def test_campaign_run_refusals(capsys, monkeypatch, args, message):
    # refused before any work; --n-end over its cap is a CAPPED case below
    monkeypatch.setattr(cli, "run_campaign", _no_work)
    code, out, err = run_cli(capsys, ["campaign", "run", *args])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "args",
    [
        ["campaign", "run", "--n-start", "2", "--n-end", "2"],
        ["campaign", "run", "--n-start", "3", "--n-end", "3", "--slices", "A1,A1"],
        ["hilb", "check-theorem", "--n", "3", "--max-degree", "-1"],
        ["hilb", "check-theorem", "--n", "2"],
        ["surface", "nef", "--divisor", "H+Q3"],
        ["walls", "gieseker", "--slice", "A3", "--n", "3"],
        ["bogus"],
        [],
    ],
)
def test_usage_errors_exit_two(capsys, args):
    code, _, err = run_cli(capsys, args)
    assert code == 2
    assert err


def test_out_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "orbit.json"
    code, out, _ = run_cli(
        capsys,
        ["weyl", "orbit", "--start", "H", "--max-degree", "1", "--out", str(out_path)],
    )
    assert code == 0
    assert out_path.read_text() == out


def test_runs_are_byte_deterministic(capsys, tmp_path):
    args = ["coneconj", "cover", "--n", "3", "--samples", "3", "--seed", "1"]
    first = run_cli(capsys, args)
    second = run_cli(capsys, args)
    assert first == second
    assert first[1].endswith("\n")


def test_rational_strings_everywhere(capsys):
    code, out, _ = run_cli(capsys, ["surface", "ample-family", "--n", "4", "--which", "A2"])
    assert code == 0

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, str) and "/" in node:
            assert RATIONAL.match(node), node

    walk(json.loads(out))


@pytest.mark.parametrize(
    "divisor",
    [
        json.dumps({"h": "1/0", "e": ["0"] * 9}),
        "1/0H",
        '{"h": Infinity, "e": [0,0,0,0,0,0,0,0,0]}',
        '{"h": 1e400, "e": [0,0,0,0,0,0,0,0,0]}',
        '{"h": 0.1, "e": [0,0,0,0,0,0,0,0,0]}',
        '{"h": true, "e": [0,0,0,0,0,0,0,0,0]}',
        '{"h": "1", "e": [0,0,0,0,0,0,0,0,0], "x": 1}',
    ],
    ids=[
        "json",
        "text",
        "json-infinity",
        "json-overflow",
        "json-float",
        "json-bool",
        "json-extra-key",
    ],
)
def test_zero_denominator_divisor_exits_two(capsys, divisor):
    code, out, err = run_cli(capsys, ["surface", "nef", "--divisor", divisor])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unsigned_later_term_exits_two(capsys):
    # read as H-E1+E2, the check would certify a class other than the one
    # typed
    code, out, err = run_cli(capsys, ["surface", "nef", "--divisor", "H-E1 E2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_star_without_coefficient_exits_two(capsys):
    # read as H-E1, the check would certify a class the text does not spell
    code, out, err = run_cli(capsys, ["surface", "nef", "--divisor", "H-*E1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_deeply_nested_divisor_exits_two(capsys):
    divisor = '{"h":' * 3000 + "1" + "}" * 3000
    code, out, err = run_cli(capsys, ["surface", "nef", "--divisor", divisor])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "divisor",
    ['{"h":' * 3000 + "1" + "}" * 3000, "H+" + "Q" * 5000, "9" * 5000 + "/0H"],
    ids=["nested-json", "long-garbage", "long-zero-denominator"],
)
def test_long_bad_divisor_gives_short_error_line(capsys, divisor):
    code, out, err = run_cli(capsys, ["surface", "nef", "--divisor", divisor])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.encode()) < 300
    assert "..." in err
    assert "Traceback" not in err


def test_crash_exits_three_not_falsified(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(cli, "cmd_surface_nef", broken)
    code, out, err = run_cli(capsys, ["surface", "nef", "--divisor", "H"])
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert err.rstrip().splitlines()[-1].startswith("error:")
    assert "handler bug" in err


@pytest.mark.parametrize(
    "args",
    [
        ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "1"],
    ],
    ids=["walls"],
)
def test_row_rendering_crash_exits_three_and_writes_nothing(
    capsys, monkeypatch, tmp_path, args
):
    def broken(*a, **k):
        raise RuntimeError("row renderer bug")

    monkeypatch.setattr(WallCandidate, "to_json", broken)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, args + ["--out", str(out_path)])
    assert code == 3
    assert out == ""
    assert err.rstrip().splitlines()[-1].startswith("error:")
    assert "row renderer bug" in err
    assert not out_path.exists()


def test_unwritable_out_exits_two_with_empty_stdout(capsys, tmp_path):
    out_path = tmp_path / "missing" / "orbit.json"
    code, out, err = run_cli(
        capsys,
        ["weyl", "orbit", "--start", "H", "--max-degree", "1", "--out", str(out_path)],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not out_path.exists()


def test_seed_belongs_to_cover_only(capsys):
    code, _, err = run_cli(capsys, ["hilb", "check-theorem", "--n", "3", "--seed", "1"])
    assert code == 2
    assert "--seed" in err


class _WallsReached(Exception):
    pass


def _no_walls(*args, **kwargs):
    raise _WallsReached


@pytest.mark.parametrize("degree", ["10", "1000"])
def test_walls_gieseker_refuses_unlistable_degree(capsys, monkeypatch, degree):
    # the degree is checked against MAX_WALLS_DEGREE: no wall is computed
    monkeypatch.setattr(cli, "gieseker_wall", _no_walls)
    code, out, err = run_cli(
        capsys, ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", degree]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"--max-degree is {degree}, over this command's cap of 9" in err


def test_walls_gieseker_lists_degree_nine(capsys, monkeypatch):
    # degree 9 (107,622,237 shapes) is the cap and goes on to the walls
    assert cli.MAX_WALLS_DEGREE == 9
    assert sum(row[1] for a in range(10) for row in _degree_orbits(a)) == 107_622_237
    monkeypatch.setattr(cli, "gieseker_wall", _no_walls)
    code, out, err = run_cli(
        capsys, ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "9"]
    )
    assert (code, out) == (3, "")  # the stub's exception surfaces as a crash
    assert "_WallsReached" in err


def test_walls_gieseker_lists_degree_five(capsys):
    # one row per E2..E9 orbit: 1,943 rows for 1,104,956 shapes
    code, out, _ = run_cli(
        capsys, ["walls", "gieseker", "--slice", "A2", "--n", "3", "--max-degree", "5"]
    )
    assert code == 0
    cert = json.loads(out)["certificate"]
    rows = cert["candidates"]
    assert len(rows) == 1943
    assert sum(row["arrangements"] for row in rows) == cert["candidate_count"] == 1_104_956


# (argv before the capped value, flag, cap, the cli name doing the work); the
# flag's value is the capped value, except for `surface nef`, whose divisor
# v(H + E1 - E2) has the step bound v: a = v, f = 3v and D.D = -v^2
CAPPED = [
    (["weyl", "orbit", "--start", "H"], "--max-degree", "MAX_ORBIT_DEGREE", "_degree_groups"),
    (["surface", "nef"], "--divisor", "MAX_NEF_STEPS", "is_nef"),
    (
        ["hilb", "check-theorem", "--n", "3"],
        "--max-degree",
        "MAX_THEOREM_DEGREE",
        "cone_duality_check",
    ),
    (["campaign", "run"], "--max-degree", "MAX_CAMPAIGN_DEGREE", "run_campaign"),
    (["campaign", "run"], "--n-end", "MAX_CAMPAIGN_N", "run_campaign"),
    (
        ["walls", "gieseker", "--slice", "A2", "--n", "3"],
        "--max-degree",
        "MAX_WALLS_DEGREE",
        "gieseker_wall",
    ),
    (
        ["coneconj", "cover", "--n", "3"],
        "--max-degree",
        "MAX_COVER_DEGREE",
        "coverage_experiment",
    ),
    (
        ["coneconj", "cover", "--n", "3"],
        "--samples",
        "MAX_COVER_SAMPLES",
        "coverage_experiment",
    ),
]


class _WorkReached(Exception):
    pass


def _no_work(*args, **kwargs):
    raise _WorkReached


@pytest.mark.parametrize("prefix,flag,cap,worker", CAPPED, ids=[c[2] for c in CAPPED])
def test_cap_refuses_before_any_work(capsys, monkeypatch, prefix, flag, cap, worker):
    monkeypatch.setattr(cli, worker, _no_work)
    limit = getattr(cli, cap)
    spell = (lambda v: f"{v}H+{v}E1-{v}E2") if flag == "--divisor" else str
    for value in (limit + 1, 10**9):
        code, out, err = run_cli(capsys, prefix + [flag, spell(value)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and f"is {value}, over this command's cap of {limit}" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
    # the cap itself is allowed and reaches the work
    code, out, err = run_cli(capsys, prefix + [flag, spell(limit)])
    assert (code, out) == (3, "")
    assert "_WorkReached" in err


def test_orbit_cap_covers_the_start_degree(capsys, monkeypatch):
    # the orbit window is max(--max-degree, H-degree of --start)
    monkeypatch.setattr(cli, "_degree_groups", _no_work)
    start = f"{cli.MAX_ORBIT_DEGREE + 1}H"
    code, out, err = run_cli(
        capsys, ["weyl", "orbit", "--start", start, "--max-degree", "0"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "H-degree of --start" in err
    code, _, err = run_cli(
        capsys, ["weyl", "orbit", "--start", f"{cli.MAX_ORBIT_DEGREE}H", "--max-degree", "0"]
    )
    assert code == 3 and "_WorkReached" in err


@pytest.mark.parametrize(
    "over,cap",
    [
        # H+1000E1 has degree 1, but its walk covers sum b_i^2 = 10^6
        ("H+1000E1", "MAX_ORBIT_SQUARES"),
    ],
)
def test_orbit_walk_and_size_caps_refuse_before_listing(capsys, monkeypatch, over, cap):
    monkeypatch.setattr(cli, "_degree_groups", _no_work)
    limit = getattr(cli, cap)
    code, out, err = run_cli(capsys, ["weyl", "orbit", "--start", over, "--max-degree", "0"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"cap of {limit}" in err
    assert "Traceback" not in err
    # H+15E1 walks exactly MAX_ORBIT_SQUARES = 225
    code, _, err = run_cli(capsys, ["weyl", "orbit", "--start", "H+15E1", "--max-degree", "1"])
    assert code == 3 and "_WorkReached" in err


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_two_in_process(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["weyl", "orbit", "--start", "H", "--max-degree", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Broken pipe" in err
    assert "Traceback" not in err


def test_cli_import_loads_no_class_generator():
    # -S keeps site-packages' start-up hooks out of the module list
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys, hilbnef.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'traceback'}"
        " & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_closed_stdout_exits_two_in_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = ["weyl", "orbit", "--start", "H", "--max-degree", "2"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hilbnef", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before the report is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "Exception ignored" not in err
