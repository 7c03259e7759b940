"""Per-layer spans around posmap's public functions, recorded from outside.

The tracer wraps each traced function and installs the wrapper wherever the
name is looked up: in the defining module and in every ``posmap`` module that
imported the name, because the package imports names directly (for example
``posmap.cli.decompose`` and ``posmap.cpdecomp.psd_project``).  LAPACK's
``eigh`` is wrapped as the attribute ``numpy.linalg.eigh``.  Nothing under
``src/`` changes.

A span records its name, start, end, parent span and operation id.  Spans are
kept in memory in flat arrays and written out when the run ends.  Self time is
a span's duration minus the time its child spans cover, accumulated while the
run goes on.  Wrappers only record while :attr:`LayerTracer.active` is set,
so the benchmark's own checks are not counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """A traced function: span name, defining module and attribute path."""

    name: str
    module: str
    attr: str
    hook: Callable | None = None


def _decompose_hook(tracer, result):
    tracer.extra["decompose.iterations"] += result.iterations
    tracer.extra["decompose.converged"] += bool(result.decomposed)


def _witness_hook(tracer, result):
    tracer.extra["witness_search.found"] += bool(result.found)


TARGETS = (
    Target("cli.main", "posmap.cli", "main"),
    Target("cli.build_classification", "posmap.cli", "build_classification"),
    Target("cli.emit", "posmap.cli", "_emit"),
    Target("io.load_matrix", "posmap.io", "load_matrix"),
    Target("choi.from_array", "posmap.choi", "ChoiMatrix.from_array"),
    Target("choi.extract_blocks", "posmap.choi", "extract_blocks"),
    Target("positivity.block_positive_choi", "posmap.positivity", "block_positive_choi"),
    Target("positivity.block_positive_2x2", "posmap.positivity", "block_positive_2x2"),
    Target("positivity.face_structure_report", "posmap.positivity", "face_structure_report"),
    Target("positivity.coupling_bound_check", "posmap.positivity", "coupling_bound_check"),
    Target("positivity.certify_positivity", "posmap.positivity", "certify_positivity"),
    Target("cpdecomp.decompose", "posmap.cpdecomp", "decompose", _decompose_hook),
    Target("cpdecomp.kadison_constraints", "posmap.cpdecomp", "kadison_constraints"),
    Target("cpdecomp.validate_certificate", "posmap.cpdecomp", "validate_certificate"),
    Target("cpdecomp.witness_search", "posmap.cpdecomp", "witness_search", _witness_hook),
    Target("cpdecomp.ppt_project", "posmap.cpdecomp", "ppt_project"),
    Target("extremal.equality_case_detect", "posmap.extremal", "equality_case_detect"),
    Target("extremal.check_row_dependence", "posmap.extremal", "check_row_dependence"),
    Target("extremal.canonicalize", "posmap.extremal", "canonicalize"),
    Target("matkernel.psd_check", "posmap.matkernel", "psd_check"),
    Target("matkernel.psd_sqrt", "posmap.matkernel", "psd_sqrt"),
    Target("matkernel.psd_project", "posmap.matkernel", "psd_project"),
    Target("matkernel.partial_transpose", "posmap.matkernel", "partial_transpose"),
    Target("matkernel.hermitian_eig", "posmap.matkernel", "hermitian_eig"),
    Target("matkernel.lapack_eigh", "numpy.linalg", "eigh"),
)


class LayerTracer:
    """Records spans of the traced functions while :attr:`active` is set."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.index = {t.name: k for k, t in enumerate(self.targets)}
        n = len(self.targets)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_time = [0.0] * n
        self.extra: dict[str, float] = {"decompose.iterations": 0.0,
                                        "decompose.converged": 0.0,
                                        "witness_search.found": 0.0}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.op_id = -1
        self.active = False
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for k, target in enumerate(self.targets):
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                wrapped = classmethod(self._wrap(k, raw.__func__, target.hook))
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(k, original, target.hook)
            for mod in self._lookup_modules(module):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    @staticmethod
    def _lookup_modules(defining):
        mods = [defining]
        for name, mod in list(sys.modules.items()):
            if mod is not defining and (name == "posmap" or name.startswith("posmap.")):
                mods.append(mod)
        return mods

    def _wrap(self, k: int, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            idx = len(self.span_start)
            self.span_name.append(k)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op_id)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.span_end[idx] = t1
                self.calls[k] += 1
                self.incl[k] += dur
                self.self_time[k] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def stats(self, name: str) -> tuple[int, float, float]:
        k = self.index[name]
        return self.calls[k], self.incl[k], self.self_time[k]

    def write_spans(self, path: Path) -> None:
        """Write every span as flat arrays (``.npz``) plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array([t.name for t in self.targets]),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def _share(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


#: Per-layer metrics that are not a span's ``calls``, ``s`` or ``self_s`` per
#: operation: name -> function of (tracer, tracing overhead).
DERIVED_METRICS = {
    "cpdecomp.decompose.iterations":
        lambda tr, _: _share(tr.extra["decompose.iterations"],
                             tr.stats("cpdecomp.decompose")[0]),
    "cpdecomp.decompose.converged_share":
        lambda tr, _: _share(tr.extra["decompose.converged"],
                             tr.stats("cpdecomp.decompose")[0]),
    "cpdecomp.witness_search.found_share":
        lambda tr, _: _share(tr.extra["witness_search.found"],
                             tr.stats("cpdecomp.witness_search")[0]),
    # Share of hermitian_eig spent outside its own eigh call: the
    # re-validation (Hermiticity, reconstruction, orthonormality).
    "matkernel.validation_share":
        lambda tr, _: _share(tr.stats("matkernel.hermitian_eig")[2],
                             tr.stats("matkernel.hermitian_eig")[1]),
    "trace.overhead_share": lambda tr, overhead: overhead,
}

#: Position in :meth:`LayerTracer.stats` of a span metric's suffix.
SPAN_STATS = {"calls": 0, "s": 1, "self_s": 2}


def layer_metric(tracer: LayerTracer, name: str, ops: int, overhead: float) -> float:
    """A per-layer metric by name: derived, or ``<span>.calls|s|self_s`` per op."""
    if name in DERIVED_METRICS:
        return float(DERIVED_METRICS[name](tracer, overhead))
    span, _, stat = name.rpartition(".")
    return tracer.stats(span)[SPAN_STATS[stat]] / ops


def layer_metrics(tracer: LayerTracer, specs: list[dict], ops: int,
                  overhead: float) -> dict:
    """Every metric of ``specs`` (``per_layer`` entries of BENCHMARK.json)."""
    return {spec["name"]: {"value": layer_metric(tracer, spec["name"], ops, overhead),
                           "unit": spec["unit"]}
            for spec in specs}


def layer_table(tracer: LayerTracer, ops: int, op_seconds: float) -> list[dict]:
    """Every traced span per operation, with its share of the traced op time."""
    rows = []
    for target in tracer.targets:
        calls, incl, own = tracer.stats(target.name)
        rows.append({
            "layer": target.name,
            "calls_per_op": calls / ops,
            "s_per_op": incl / ops,
            "self_s_per_op": own / ops,
            "share_of_op": _share(incl, op_seconds),
        })
    return rows


def format_table(rows: list[dict]) -> str:
    lines = [f"{'layer':36s} {'calls/op':>12s} {'s/op':>11s} {'self s/op':>11s} {'of op':>7s}"]
    for r in rows:
        lines.append(
            f"{r['layer']:36s} {r['calls_per_op']:12.1f} {r['s_per_op']:11.5f} "
            f"{r['self_s_per_op']:11.5f} {100 * r['share_of_op']:6.1f}%"
        )
    return "\n".join(lines)


def write_table(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
