"""JSON wire format for complex matrices and report serialization helpers.

A matrix travels as ``{"rows": R, "cols": C, "data": [[re, im], ...]}`` with
the entries flattened in row-major order.  Floats are emitted with Python's
shortest round-trip repr, so a save/load cycle is bit-faithful.  Entries must
be finite: the ``NaN`` and ``Infinity`` tokens that ``json`` accepts are
rejected with :class:`ParseError`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .exceptions import ParseError


def matrix_to_obj(matrix) -> dict:
    M = np.asarray(matrix, dtype=np.complex128)
    if M.ndim != 2:
        raise ParseError(f"expected a 2-D matrix, got ndim={M.ndim}")
    flat = M.reshape(-1)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in flat],
    }


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"matrix object must be a dict, got {type(obj).__name__}")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(
            f"data must hold rows*cols = {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    try:
        flat = np.array(
            [complex(float(re), float(im)) for re, im in data], dtype=np.complex128
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"entries must be [re, im] pairs: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise ParseError("matrix entries must be finite, got NaN or infinity")
    return flat.reshape(rows, cols)


def save_matrix(path, matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_obj(matrix), fh)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
