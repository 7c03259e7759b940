"""Tolerances are module constants, not keyword knobs.

Every function and method defined in the package reads its tolerances from
named constants.  The one exception is ``require_hermitian``, whose callers
need different Hermiticity limits (the relative default, 1e-8 and no limit).
The number of parameters with defaults is capped, so that a new solver
setting arrives as a named constant rather than as one more knob.  No module
but the package's ``__init__`` imports a name it does not use.

The failure contract: a posmap error is about the input, and a LAPACK
failure is numpy's ``LinAlgError``, which nothing in the library translates.
Only the front end's exit-code map and the battery's criterion runner
handle it, and every posmap error class is raised somewhere.
"""

import ast
import inspect
from pathlib import Path

import posmap
from posmap import exceptions

ALLOWED = {("matkernel.py", "require_hermitian", "tol")}

#: Parameters with defaults in ``src/posmap/*.py``, methods and the two
#: exception constructors included.
MAX_DEFAULTED = 21


def modules():
    for path in sorted(Path(posmap.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def functions():
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield name, node


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
    for name, tree in modules():
        if name == "__init__.py":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.update((name, unused) for unused in imported - used)
    return found


def test_no_unused_imports():
    assert unused_imports() == set()


def linalg_handlers():
    """``(module, top-level definition)`` for every ``except`` naming ``LinAlgError``."""
    found = set()
    for module, tree in modules():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.ExceptHandler) and node.type is not None
                        and "LinAlgError" in ast.unparse(node.type)):
                    found.add((module, getattr(top, "name", None)))
    return found


def raised_names():
    found = set()
    for _, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    found.add(exc.id)
    return found


def test_linalg_error_is_handled_only_by_the_exit_map_and_the_battery():
    assert linalg_handlers() == {("cli.py", "main"), ("acceptance.py", "criterion")}


def test_every_posmap_error_is_raised():
    defined = {name for name, cls in inspect.getmembers(exceptions, inspect.isclass)
               if cls.__module__ == exceptions.__name__}
    assert defined - raised_names() == set()
