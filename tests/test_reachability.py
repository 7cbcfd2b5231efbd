"""Every function and method of the package is reached by a CLI command.

One child process installs a `sys.setprofile` hook before it imports
`hilbnef.cli` (importing the lattice already runs `DivisorClass.__neg__` for
F = -K), runs each argv of COMMANDS in process and prints where every code
object it saw called begins.  The parent walks src/hilbnef with `ast` and
fails on a function or method that no command reached and that ALLOWED does
not name, and on an ALLOWED entry that is gone or was reached, so the list
cannot go stale.  Code that only the tests reach does not belong in the
package: the tests check the code that stays, with oracles of their own.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hilbnef"

# (argv, exit code): the golden commands, then every other subcommand, each
# branch of the nef test, the exit-1 duality scan at the window edge and three
# refusals
COMMANDS = [(args, 0) for _, args in CASES] + [
    (["weyl", "orbit", "--start", "H-E1", "--max-degree", "4"], 0),
    (["surface", "nef", "--divisor", "H-2E1"], 1),
    (["surface", "nef", "--divisor", json.dumps({"h": "1/2", "e": [0] * 9})], 0),
    (["surface", "nef", "--divisor", "E1-E2"], 1),
    (["surface", "nef", "--divisor=-F"], 1),
    (["surface", "nef", "--divisor=-H"], 1),
    (["surface", "nef", "--divisor=500001H+500001E1-500001E2"], 2),
    (["surface", "ample-family", "--n", "3", "--which", "A1"], 0),
    (["surface", "ample-family", "--n", "3", "--which", "A2"], 0),
    (["hilb", "check-theorem", "--n", "3", "--max-degree", "6"], 1),
    (["surface", "nef", "--divisor", "2Q"], 2),
    (["walls", "gieseker", "--slice", "A1", "--n", "3", "--max-degree", "10"], 2),
]

# Qualified name -> why no command reaches it.  Three kinds:
# (a) a failure path that no command takes on the general surface;
# (b) the Record protocol, a value-type operator, or a view the tests compare;
# (c) a name perfbench/trace_child.py binds or iterates.
ALLOWED = {
    "bridgeland.GiesekerFalsified.__init__": "(a) a wall certificate that fails",
    "bridgeland.Wall.__str__": "(a) the message of a fiber wall that fails its checks",
    "bridgeland.VerticalWall.__str__": "(a) the message of a wall that is not a circle",
    "bridgeland.DegenerateWall.__str__": "(a) the message of a wall that is not a circle",
    "bridgeland.CandidatePool.__iter__": (
        "(a) a falsified wall walks the pool for its first failing shape; "
        "(c) trace_child counts the survivors by iterating the pool"
    ),
    "bridgeland._pool_shapes": "(a) the pool order of a falsified wall's walk",
    "hilb.DecompositionError.__init__": "(a) a divisor with no nef part plus ray",
    "record._restore": "(b) Record protocol: copying and unpickling",
    "record.Record.__setattr__": "(b) Record protocol: immutable fields",
    "record.Record.__delattr__": "(b) Record protocol: immutable fields",
    "record.Record.__reduce__": "(b) Record protocol: copying and pickling",
    "record.Record.__repr__": "(b) Record protocol: the field-by-field repr",
    "lattice.DivisorClass.__lt__": "(b) value-type operator: class order",
    "lattice.DivisorClass.coords": "(b) the Fraction view the lattice oracles compare",
    "lattice.DivisorClass.e": "(b) the Fraction view the lattice oracles compare",
    "hilb.HilbDivisor.__lt__": "(b) value-type operator: divisor order",
    "hilb.HilbDivisor.__sub__": "(b) value-type operator: difference",
}

CHILD = """
import contextlib, io, json, sys

seen = set()


def hook(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
import hilbnef.cli

codes = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes.append(hilbnef.cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "seen": sorted(seen)}))
"""


def definitions(module: str, source: str) -> dict[str, int]:
    """Qualified name -> first line of the code object (its first decorator's
    line, if any) of every function and method in source."""
    found: dict[str, int] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                found[name] = min(lines)
                walk(child, name)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}")
            else:
                walk(child, prefix)

    walk(ast.parse(source), module)
    return found


def problems(
    sources: dict[str, str], reached: set[tuple[str, int]], allowed: dict[str, str]
) -> list[str]:
    """The functions of the modules in sources (module -> source) whose
    (module, first line) is not in reached and that allowed does not name,
    then the allowed names that are gone or were reached."""
    names: dict[str, bool] = {}
    for module, source in sources.items():
        for name, line in definitions(module, source).items():
            names[name] = (module, line) in reached
    out = [
        f"unreached: {name}"
        for name, hit in names.items()
        if not hit and name not in allowed
    ]
    out += [f"stale: {name}" for name in allowed if names.get(name, True)]
    return out


def _trace_commands() -> tuple[list[int], set[tuple[str, int]]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    argv = [args for args, _ in COMMANDS]
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    package = PACKAGE.resolve()
    reached = set()
    for filename, line in data["seen"]:
        path = Path(filename).resolve()
        if path.parent == package:
            reached.add((path.stem, line))
    return data["codes"], reached


def test_every_package_function_is_reached_by_a_command():
    assert all(reason[:3] in ("(a)", "(b)", "(c)") for reason in ALLOWED.values())
    started = time.monotonic()
    codes, reached = _trace_commands()
    assert codes == [code for _, code in COMMANDS]
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert problems(sources, reached, ALLOWED) == []
    assert time.monotonic() - started < 10


def test_gate_flags_an_unreached_def():
    source = (
        "from functools import lru_cache\n"
        "\n"
        "\n"
        "@lru_cache\n"
        "def used():\n"
        "    pass\n"
        "\n"
        "\n"
        "class A:\n"
        "    def spare(self):\n"
        "        pass\n"
    )
    reached = {("m", 4)}
    assert problems({"m": source}, reached, {}) == ["unreached: m.A.spare"]
    assert problems({"m": source}, reached, {"m.A.spare": "kept", "m.used": "kept"}) == [
        "stale: m.used"
    ]
