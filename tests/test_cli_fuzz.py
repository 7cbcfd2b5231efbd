"""Argv fuzzing of the CLI contract: any argv drawn from the command grammar
exits 0, 1 or 2 (never a crash), prints canonical JSON or nothing on stdout,
and never a traceback on stderr."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from hilbnef import cli
from hilbnef.campaign import N_CAP
from hilbnef.cli import main
from hilbnef.reporting import dumps_json

JUNK = ["", "x", "3.5", "--", "1e9", "é", "--bogus"]


def _ints(cap: int | None = None) -> list:
    return [-1, 0, 1, 3] + ([] if cap is None else [cap + 1]) + [10**9]


CLASSES = ["H", "H-2E1", "E9", "F", "1/2H", "9H", "-H", "H+Q3", "1/0H", '{"h": "1"}']
SLICES = ["A1", "A2", "A3"]

# command -> flag -> (a value that works, the values to try); junk is added to
# every flag.  The working --max-degree is 1 to keep a drawn run cheap.
GRAMMAR = {
    ("weyl", "orbit"): {
        "--start": ("H", CLASSES),
        "--max-degree": (1, _ints(cli.MAX_ORBIT_DEGREE)),
    },
    ("surface", "nef"): {
        "--divisor": ("H", CLASSES),
        "--max-degree": (1, _ints(cli.MAX_NEF_DEGREE)),
    },
    ("surface", "ample-family"): {
        "--n": (3, _ints()),
        "--which": ("A1", SLICES),
    },
    ("hilb", "check-theorem"): {
        "--n": (3, _ints()),
        "--max-degree": (1, _ints(cli.MAX_THEOREM_DEGREE)),
    },
    ("walls", "gieseker"): {
        "--slice": ("A2", SLICES),
        "--n": (3, _ints()),
        "--max-degree": (1, _ints(cli.MAX_WALLS_DEGREE)),
    },
    ("coneconj", "cover"): {
        "--n": (3, _ints()),
        "--samples": (3, _ints(cli.MAX_COVER_SAMPLES)),
        "--max-degree": (1, _ints(cli.MAX_COVER_DEGREE)),
        "--seed": (0, _ints()),
    },
    ("campaign", "run"): {
        "--n-start": (3, _ints()),
        "--n-end": (3, _ints(N_CAP)),
        "--max-degree": (1, _ints(cli.MAX_CAMPAIGN_DEGREE)),
        "--slices": ("A1,A2", ["A1", "A2,A1", "A1,A1", "A3", ","]),
    },
}


@st.composite
def argvs(draw) -> list[str]:
    """One command; one of its flags (or none) gets a drawn value, the others
    a working one, and now and then a flag is left out or a stray token is
    inserted."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = GRAMMAR[command]
    target = draw(st.sampled_from([None, *sorted(flags)]))
    argv = list(command)
    for flag in draw(st.permutations(sorted(flags))):
        working, values = flags[flag]
        if flag == target:
            argv += [flag, str(draw(st.sampled_from(values + JUNK)))]
        elif flag == "--max-degree" or draw(st.integers(0, 7)):
            # a left-out --max-degree would run the costlier default 3
            argv += [flag, str(working)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_any_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    text = out.getvalue()
    assert text == "" or text == dumps_json(json.loads(text)), argv
    assert "Traceback" not in err.getvalue(), argv
