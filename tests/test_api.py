"""Tolerances are module constants, not keyword knobs.

Every function and method defined in the package reads its tolerances from
named constants.  The one exception is ``require_hermitian``, whose callers
need different Hermiticity limits (the relative default, 1e-8 and no limit).
The number of parameters with defaults is capped, so that a new solver
setting arrives as a named constant rather than as one more knob.
"""

import ast
from pathlib import Path

import posmap

ALLOWED = {("matkernel.py", "require_hermitian", "tol")}

#: Parameters with defaults in ``src/posmap/*.py``, methods and the two
#: exception constructors included.
MAX_DEFAULTED = 21


def functions():
    for path in sorted(Path(posmap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node


def tolerance_parameters():
    found = set()
    for name, node in functions():
        a = node.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            if "tol" in arg.arg:
                found.add((name, node.name, arg.arg))
    return found


def defaulted_parameters():
    count = 0
    for _, node in functions():
        a = node.args
        count += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return count


def test_no_tolerance_parameters():
    assert tolerance_parameters() == ALLOWED


def test_defaulted_parameters_capped():
    assert defaulted_parameters() <= MAX_DEFAULTED
