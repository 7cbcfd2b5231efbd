"""The package exports no name that only the tests use.

An AST scan of src/hilbnef/__init__.py fails on an imported name that no
other module of the package loads and tests/test_acceptance.py does not
name: such a name is public API kept alive by its own tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hilbnef"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _loaded(source: str) -> set[str]:
    return {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _imported(source: str) -> list[str]:
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def unused_exports(init_source: str, module_sources, acceptance_source: str) -> list[str]:
    """Names __init__ imports that no other module loads and the acceptance
    tests neither import nor load.  A module importing a name it never
    loads does not keep it alive."""
    used = set(_imported(acceptance_source)) | _loaded(acceptance_source)
    for source in module_sources:
        used |= _loaded(source)
    return [name for name in _imported(init_source) if name not in used]


def test_no_export_is_used_only_by_the_tests():
    modules = [
        path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(modules) >= 10
    found = unused_exports(
        (PACKAGE / "__init__.py").read_text(), modules, ACCEPTANCE.read_text()
    )
    assert found == []


def test_guard_flags_an_unused_export():
    init = "from .lattice import dot_int, spare_name\nfrom .hilb import lift\n"
    modules = ["from .lattice import dot_int, spare_name\nx = dot_int(a, b)\n"]
    acceptance = "from hilbnef import lift\n"
    assert unused_exports(init, modules, acceptance) == ["spare_name"]


def test_guard_accepts_names_the_acceptance_tests_use():
    init = "from .lattice import H\nfrom .weyl import weyl_orbit\n"
    acceptance = "from hilbnef import H\nfrom hilbnef.weyl import weyl_orbit\n"
    assert unused_exports(init, [], acceptance) == []
