"""The package computes exactly and needs only the standard library.

An AST scan of every module in src/hilbnef fails on a float literal, a
float() call, a float-valued `math` function, or an import from outside
the standard library and the package.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hilbnef"
MODULES = sorted(PACKAGE.glob("*.py"))

# the `math` functions that return ints on int or Fraction arguments
INT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "trunc"}


def _import_roots(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def inexact_constructs(source: str) -> list[str]:
    """One line per offending construct, as 'line N: what'."""
    tree = ast.parse(source)
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{where}: float literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"{where}: float() call")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in INT_MATH
        ):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INT_MATH:
                    found.append(f"{where}: from math import {alias.name}")
        for root in _import_roots(node):
            if root != "hilbnef" and root not in sys.stdlib_module_names:
                found.append(f"{where}: import of non-stdlib module {root}")
    return found


def test_package_modules_found():
    assert len(MODULES) >= 10
    assert PACKAGE / "lattice.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact_and_stdlib_only(path):
    assert inexact_constructs(path.read_text()) == []


@pytest.mark.parametrize(
    "source, what",
    [
        ("x = 0.5", "float literal"),
        ("x = 1e3", "float literal"),
        ("x = float('1/2')", "float() call"),
        ("import math\nx = math.sqrt(2)", "math.sqrt"),
        ("import math as m\nx = m.log(2)", "math.log"),
        ("from math import exp", "from math import exp"),
        ("import numpy", "non-stdlib module numpy"),
        ("from sympy.core import Rational", "non-stdlib module sympy"),
    ],
)
def test_scan_flags_each_construct(source, what):
    found = inexact_constructs(source)
    assert len(found) == 1 and what in found[0], found


def test_scan_accepts_exact_stdlib_code():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from math import gcd, isqrt\n"
        "from fractions import Fraction\n"
        "from .lattice import dot_int\n"
        "x = Fraction(1, 2) + math.lcm(4, 6) + isqrt(10) + 16 ** 2\n"
    )
    assert inexact_constructs(source) == []
