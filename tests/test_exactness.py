"""The package computes without floating point: no module under superbc/
holds a float or complex literal or calls float or complex."""

import ast
from pathlib import Path

import superbc

PACKAGE = Path(superbc.__file__).parent


def _inexact_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            yield node.lineno, f"{node.func.id}(...)"


def test_no_float_or_complex_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {"exactalg.py", "symmfunc.py", "interpbc.py", "cli.py"} <= {m.name for m in modules}
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in modules
        for line, what in _inexact_sites(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
