"""JSON wire format for complex matrices, and the one JSON writer.

A matrix travels as ``{"rows": R, "cols": C, "data": [[re, im], ...]}`` with
the entries flattened in row-major order; ``rows`` and ``cols`` are JSON
integers of at least 0.  Floats are emitted with Python's shortest
round-trip repr, so a save/load cycle is bit-faithful.  Entries must be
finite: the ``NaN`` and ``Infinity`` tokens that ``json`` accepts are
rejected with :class:`ParseError`, as is every other malformed file (not
UTF-8, nested too deeply, an integer literal too long for ``int``, or a
matrix object of the wrong shape).

Every JSON file and stream that ``posmap`` writes (matrices from
:func:`save_matrix` and ``posmap tang``, and the reports of ``classify``,
``decompose`` and ``canonical``) goes through :func:`write_json`: one line
of compact JSON, encoded by ``json``'s C encoder, which runs only when no
``indent`` is set.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any

import numpy as np

from .exceptions import ParseError


def write_json(obj, path) -> None:
    """Write ``obj`` as one line of compact JSON to ``path``, or stdout if None."""
    text = json.dumps(obj) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def matrix_to_obj(matrix) -> dict:
    M = np.asarray(matrix, dtype=np.complex128)
    if M.ndim != 2:
        raise ParseError(f"expected a 2-D matrix, got ndim={M.ndim}")
    flat = M.reshape(-1)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": np.stack([flat.real, flat.imag], -1).tolist(),
    }


def _size(obj: dict, key: str) -> int:
    value = obj.get(key)
    # ``bool`` is an ``int`` subclass; ``true`` is not a size.
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"{key} must be an integer of at least 0, got {value!r}")
    return value


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"matrix object must be a dict, got {type(obj).__name__}")
    rows, cols = _size(obj, "rows"), _size(obj, "cols")
    data = obj.get("data")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(
            f"data must hold rows*cols = {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    try:
        pairs = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"entries must be [re, im] pairs: {exc}") from exc
    if data and pairs.shape != (len(data), 2):
        raise ParseError(f"entries must be [re, im] pairs, got shape {pairs.shape}")
    if not np.all(np.isfinite(pairs)):
        raise ParseError("matrix entries must be finite, got NaN or infinity")
    try:
        return pairs.reshape(-1, 2).view(np.complex128).reshape(rows, cols)
    except ValueError as exc:  # an empty matrix with a size numpy cannot hold
        raise ParseError(f"cannot shape the entries as {rows}x{cols}: {exc}") from exc


def save_matrix(path, matrix) -> None:
    write_json(matrix_to_obj(matrix), path)


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers too
    # long for ``int``; RecursionError covers nesting too deep to parse.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_obj(obj)


def matrix_digest(matrix) -> str:
    """Content hash of a matrix, stable under save/load round trips."""
    M = np.ascontiguousarray(np.asarray(matrix, dtype=np.complex128))
    h = hashlib.sha256()
    h.update(f"{M.shape[0]}x{M.shape[1]}:".encode())
    h.update(M.tobytes())
    return h.hexdigest()


def jsonable(value) -> Any:
    """Recursively convert report values into JSON-encodable data."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return matrix_to_obj(value)
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        c = complex(value)
        return [c.real, c.imag]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if value is None or isinstance(value, str):
        return value
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    return str(value)
