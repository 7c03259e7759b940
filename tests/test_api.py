"""Tolerances are module constants, not keyword knobs.

Every function and method defined in the package reads its tolerances from
named constants.  The one exception is ``require_hermitian``, whose callers
need different Hermiticity limits (the relative default, 1e-8 and no limit).
The number of parameters with defaults is capped, so that a new solver
setting arrives as a named constant rather than as one more knob.  No module
but the package's ``__init__`` imports a name it does not use.
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


def unused_imports():
    """``(module, name)`` for every imported name a module never reads."""
    found = set()
    for path in sorted(Path(posmap.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.update((path.name, name) for name in imported - used)
    return found


def test_no_unused_imports():
    assert unused_imports() == set()
