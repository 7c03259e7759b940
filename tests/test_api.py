"""Tolerances are module constants, not keyword knobs.

Every function and method defined in the package reads its tolerances from
named constants.  The one exception is ``require_hermitian``, whose callers
need different Hermiticity limits (the relative default, 1e-8 and no limit).
"""

import ast
from pathlib import Path

import posmap

ALLOWED = {("matkernel.py", "require_hermitian", "tol")}


def tolerance_parameters():
    found = set()
    for path in sorted(Path(posmap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if "tol" in arg.arg:
                        found.add((path.name, node.name, arg.arg))
    return found


def test_no_tolerance_parameters():
    assert tolerance_parameters() == ALLOWED
