"""Command-line front end.

Subcommands: ``tang`` (generate family members), ``classify`` (full report
for a Choi matrix file), ``decompose`` (one projection run), ``canonical``
(equality-case canonical form, for every n >= 1: at n = 1 the rows Y and Z
are single entries, always dependent), and ``verify`` (the built-in
battery, one ``[Ck] PASS|FAIL title: detail (N.NNs)`` line per criterion).
``decompose`` prints the run's ``iterations``, ``residual`` and ``stop``,
and either its split ``certificate`` with the ``kadison`` margins, its PPT
``witness`` (``rho`` and ``value``, as in ``classify``), or a note that a
search that found neither is not a nondecomposability proof.

``classify`` runs its stages in this order.  The split search
(``decompose``) runs first.  It reads the CP and coCP verdicts (``psd_check``
of ``H`` and of ``PT(H)``, cached on the Choi matrix) and tries the trivial
splits ``(H, 0)`` and ``(0, H)`` before any projection; when one decides,
``decomposition.iterations`` is 0 and ``lower_bound`` is the smallest
eigenvalue of ``H`` or of ``PT(H)``.  A split proves positivity, since a
decomposable map is positive: every unit product vector ``v`` has ``<v, H v>
>= lower_bound = min_eig_H1 + min_eig_H2_pt - residual``, read off the
certificate.  A split is accepted only when that bound is at least
``-PSD_TOL`` (see :mod:`posmap.cpdecomp`), the tolerance that decides the
engine's margin and the CP and coCP flags too, so ``decomposable: yes``
always comes with ``positive`` reading ``{"status": "proved",
"lower_bound": ..., "evidence": "split", "witness": null}``, which holds up
to the rounding in those three fields.  It has no ``margin``, and the
positivity engine does not run, so ``timings`` has no ``positivity`` entry.
A split found by the projection of an input not in face form normally comes
from its shifted pass (see :mod:`posmap.cpdecomp`): it is interior, with
``min_eig_H1``, ``min_eig_H2_pt`` and ``lower_bound`` all positive and a
residual of rounding size.  A trivial split is singular wherever ``H`` or
``PT(H)`` is, and a face-form split is singular by its zero row ``d``.
Without a split the engine runs and ``positive`` carries its ``status``
(``certified`` or ``violation_found``), ``margin`` and ``witness``, and
``refine``, unless a non-PSD diagonal block decided the verdict before the
Bloch-sphere search ran: the ``steps`` of its safeguarded Newton refinement
and their ``stop``, ``converged`` once no start improves or ``cap`` after
``positivity.REFINE_STEPS`` steps.  The CP and coCP flags and the face-form
stages follow.  The flags read the cached verdicts, so ``timings.cp_ccp`` is a
lookup and the two checks' cost falls in ``timings.decompose``.
Without a split, the unrestricted witness search runs last.  The
projection runs are cached on the Choi matrix, one per face and cap: when
the input is not in face form, the split search already made the
unrestricted run, so the witness search returns it without projecting again
and ``timings.witness_search`` is near 0.  A face-form input gets two runs,
the face-restricted one, then the unrestricted one.  The run's witness
(``rho`` and ``value``) gives ``decomposable: no-witness``; without one,
``decomposable`` reads ``unknown`` and ``witness`` holds ``found: false``,
the run's own ``residual``, ``iterations`` and ``stop``, and its ``budget``.
The witness of a map with a clear product violation comes from the first
cycle of the shifted pass, and one of a positive nondecomposable map from
the restart on ``H`` after that pass gave up; ``iterations`` counts the
cycles of both passes, and ``residual`` is ``||X||_F`` on the target of the
pass that ended the run.

Every report (``classify``, ``decompose``, ``canonical``) and every matrix
(``tang``) is written, to ``--out`` or to stdout, as one line of compact
JSON followed by a newline; ``python -m json.tool FILE`` prints it indented.
An existing ``--out`` file is overwritten in place, not truncated first
(see :func:`posmap.io.write_json`).

Exit codes: 0 success, 1 battery criterion failed (``verify``; a criterion
whose solver raised a posmap error or ``LinAlgError`` fails with a line
naming the error, and the other criteria still run), 2 bad parameters,
3 the input or the output file, 4 a LAPACK failure; 2, 3 and 4 come with an
``error:`` line on stderr.  :func:`main` holds the one map from failure to
exit code, for every command.  A :class:`~posmap.exceptions.BadParamsError`
exits 2.  Any other posmap error is about the input and exits 3: a file
that does not load as a Choi matrix (malformed, NaN or infinite entries
included), or an input with no answer, such as one with no canonical form
(not in face form, rows Y and Z independent, or a form that does not rebuild
the input, see :func:`posmap.extremal.canonicalize`).  So a posmap error
raised while solving ``classify`` or ``decompose`` exits 3, as one raised by
``canonical`` does; it used to exit 4, like a LAPACK failure.  A
``LinAlgError`` (an eigensolver or SVD that did not converge) exits 4.  An
output path that cannot be written, such as a missing directory or a
directory, exits 3 with ``error: cannot write PATH: ...``, for ``tang`` too.

The stochastic subcommands, ``classify`` and ``verify``, derive every
stream from one seed (``--seed``, or the ``POSMAP_SEED`` environment
variable as set when :func:`main` runs; unset or empty means 0).  A
``POSMAP_SEED`` that is not an integer exits 2 with an ``error:`` line, as
``--seed`` with such a value does; it is read only when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time

import numpy as np

from .acceptance import run_battery
from .choi import STRUCT_TOL, UNITAL_TOL, ChoiMatrix, extract_blocks, unital_face_defects
from .cpdecomp import (
    PLATEAU_TOL,
    STATE_TOL,
    STATE_TRACE_TOL,
    WITNESS_TOL,
    _kadison_margins,
    decompose,
    witness_search,
)
from .exceptions import BadParamsError, NotInFaceFormError, PosmapError
from .extremal import (
    DEPENDENCE_TOL,
    EQUALITY_TOL,
    canonicalize,
    check_row_dependence,
    equality_case_detect,
)
from .io import jsonable, load_matrix, matrix_digest, matrix_to_obj, write_json
from .matkernel import PSD_TOL
from .positivity import (
    PROVED,
    STRICT_TOL,
    block_positive_choi,
    coupling_bound_check,
    face_structure_report,
)
from .tang import TangParams, build_pipeline

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
EXIT_SOLVER = 4

#: The constants that decide the booleans of a ``classify`` report.  ``psd``
#: decides every nonnegativity verdict: the engine's margin, the CP and coCP
#: flags, the face-structure relations and, times ``min(1, ||H||_F)``, the
#: acceptance of a split, whose ``lower_bound`` is then at least ``-psd``.
#: ``witness`` is scaled by ``min(1, ||H||_F)`` too, ``plateau_relative`` by
#: ``max(1, ||H||_F)``, and the others are absolute.  ``strict`` decides
#: ``coupling_bound.strict`` and ``dependence`` ``row_dependence.dependent``.
TOLERANCES = {
    "psd": PSD_TOL,
    "struct": STRUCT_TOL,
    "unital": UNITAL_TOL,
    "equality": EQUALITY_TOL,
    "strict": STRICT_TOL,
    "dependence": DEPENDENCE_TOL,
    "witness": WITNESS_TOL,
    "plateau_relative": PLATEAU_TOL,
    "state_trace": STATE_TRACE_TOL,
    "state": STATE_TOL,
}


def _error(message, code: int) -> int:
    """Print ``error: message`` to stderr and return the exit code ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(obj: dict, out: str | None) -> int:
    """Every subcommand's JSON output: to ``out``, or to stdout if None.

    Returns the command's exit code: ``EXIT_OK``, or ``EXIT_IO`` with an
    ``error: cannot write ...`` line when the file system refuses the write.
    A named step of its own, so that ``perfbench`` can time it as ``cli.emit``.
    """
    try:
        write_json(obj, out)
    except OSError as exc:
        return _error(f"cannot write {out or 'stdout'}: {exc}", EXIT_IO)
    return EXIT_OK


def _on_file(args, solve) -> int:
    """The one path of the file commands: load ``args.input``, solve, write.

    ``solve(args, matrix, choi)`` returns the report, and :func:`_emit`
    writes it; :func:`main` maps every failure to its exit code.
    """
    matrix = load_matrix(args.input)
    report = solve(args, matrix, ChoiMatrix.from_array(matrix))
    return _emit(report, args.out)


@contextlib.contextmanager
def _stage(timings: dict[str, float], key: str):
    """Time the ``with`` body into ``timings[key]``, in seconds."""
    t0 = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - t0


def _or_error(solver, blocks) -> dict:
    """``solver(blocks)`` as a report entry, or ``{"error": ...}`` on a posmap error.

    Such an entry is an input-level failure: these blocks have no answer to
    the stage's question.  A ``LinAlgError`` passes through to :func:`main`.
    """
    try:
        return jsonable(solver(blocks))
    except PosmapError as exc:
        return {"error": str(exc)}


def build_classification(
    choi: ChoiMatrix,
    budget: int = 64,
    max_iters: int = 20000,
    seed: int = 0,
) -> dict:
    """Assemble the full machine-readable classification report.

    The split search runs first; see the module docstring for the stages.
    """
    timings: dict[str, float] = {}
    report: dict = {"shape": {"domain": 2, "codomain": choi.dim}}

    with _stage(timings, "decompose"):
        dec = decompose(choi, max_iters=max_iters)
    if dec.decomposed:
        positive = {"status": PROVED, "lower_bound": dec.certificate.lower_bound,
                    "evidence": "split", "witness": None}
    else:
        with _stage(timings, "positivity"):
            pos = block_positive_choi(choi, budget=budget, seed=seed)
        positive = {"status": pos.status, "margin": pos.margin,
                    "witness": jsonable(pos.witness)}
        if pos.refine is not None:
            positive["refine"] = jsonable(pos.refine)
    flags: dict = {"positive": positive}

    with _stage(timings, "cp_ccp"):
        cp, ccp = choi.psd_verdicts
    flags["cp"] = bool(cp.is_psd)
    flags["ccp"] = bool(ccp.is_psd)
    report["cp_min_eigenvalue"] = cp.min_eigenvalue
    report["ccp_min_eigenvalue"] = ccp.min_eigenvalue

    try:
        blocks = extract_blocks(choi)
    except NotInFaceFormError as exc:
        report["face_form"] = {"in_face_form": False, "reason": str(exc)}
    else:
        report["face_form"] = {"in_face_form": True}
        with _stage(timings, "face_structure"):
            report["face_structure"] = jsonable(
                face_structure_report(blocks, budget=min(budget, 16), seed=seed)
            )
            report["coupling_bound"] = _or_error(coupling_bound_check, blocks)
        unital = not unital_face_defects(blocks)
        report["unital_face_form"] = unital
        flags["equality_case"] = None
        if unital:
            with _stage(timings, "equality_case"):
                eq = equality_case_detect(blocks)
                report["equality_case"] = jsonable(eq)
                flags["equality_case"] = bool(eq.equality)
                if eq.equality:
                    dep = check_row_dependence(blocks)
                    report["row_dependence"] = jsonable(dep)
                    if dep.dependent:
                        report["canonical_form"] = _or_error(canonicalize, blocks)

    if dec.decomposed:
        flags["decomposable"] = "yes"
        report["decomposition"] = {
            "certificate": jsonable(dec.certificate),
            "iterations": dec.iterations,
            "stop": dec.stop,
            # decompose accepted the split by the test kadison_constraints repeats.
            "kadison": jsonable(_kadison_margins(choi, dec.certificate)),
        }
    else:
        with _stage(timings, "witness_search"):
            wit = witness_search(choi, max_iters=max_iters)
        if wit.found:
            flags["decomposable"] = "no-witness"
            report["witness"] = jsonable(wit.witness)
        else:
            flags["decomposable"] = "unknown"
            report["witness"] = {
                "found": False,
                "residual": wit.residual,
                "iterations": wit.iterations,
                "stop": wit.stop,
                "budget": {"max_iters": max_iters},
            }
        report["decomposition"] = {
            "residual": dec.residual,
            "iterations": dec.iterations,
            "stop": dec.stop,
        }
    report["flags"] = flags
    report["tolerances"] = dict(TOLERANCES)
    report["timings"] = timings
    return report


def _cmd_tang(args) -> int:
    pipe = build_pipeline(TangParams(args.mu, args.eps))
    print(
        f"rho={pipe.rho!r} delta={pipe.delta!r} alpha={pipe.alpha!r} "
        f"beta={pipe.beta!r} gamma={pipe.gamma!r}",
        file=sys.stderr,
    )
    matrix = pipe.H0.H if args.stage == "raw" else pipe.Hfinal.H
    return _emit(matrix_to_obj(matrix), args.out)


def _cmd_classify(args, matrix, choi) -> dict:
    # The digest identifies the file's matrix; ``choi.H`` is its Hermitian part.
    return {"input_digest": matrix_digest(matrix), **build_classification(
        choi, budget=args.budget, max_iters=args.max_iters, seed=args.seed
    )}


def _cmd_decompose(args, matrix, choi) -> dict:
    result = decompose(choi, max_iters=args.max_iters)
    obj: dict = {"decomposed": result.decomposed, "iterations": result.iterations,
                 "residual": result.residual, "stop": result.stop}
    if result.decomposed:
        obj["certificate"] = jsonable(result.certificate)
        obj["kadison"] = jsonable(_kadison_margins(choi, result.certificate))
    elif result.found:
        obj["witness"] = jsonable(result.witness)
    else:
        obj["note"] = ("no decomposition found within the iteration budget; "
                       "this is not a nondecomposability proof")
    return obj


def _cmd_canonical(args, matrix, choi) -> dict:
    return jsonable(canonicalize(extract_blocks(choi)))


def _cmd_verify(args) -> int:
    results = run_battery(grid_k=args.grid, seed=args.seed)
    failures = 0
    for res in results:
        print(res.line())
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return EXIT_OK if failures == 0 else EXIT_CRITERION


def _default_seed() -> int:
    """``POSMAP_SEED`` as an integer, 0 when it is unset or empty.

    Any other value that is not an integer raises :class:`BadParamsError`.
    """
    env = os.environ.get("POSMAP_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise BadParamsError(f"POSMAP_SEED must be an integer, got {env!r}") from None


def _int_at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """An ``argparse`` type: an integer of at least 1 (its name appears in errors)."""
    return _int_at_least(1, text)


def nonnegative_int(text: str) -> int:
    """An ``argparse`` type: an integer of at least 0 (its name appears in errors)."""
    return _int_at_least(0, text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posmap",
        description="Choi-matrix toolkit for positive maps on 2x2 matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tang", help="generate a member of the two-parameter family")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--stage", choices=["raw", "normalized"], default="raw")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_tang)

    p = sub.add_parser("classify", help="full classification report for a Choi matrix")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.add_argument("--budget", type=nonnegative_int, default=64,
                   help="seeded random points added to the fixed Bloch-sphere "
                        "scan of the positivity search")
    p.add_argument("--witness-restarts", type=int, default=16,
                   help="ignored: the witness search no longer restarts; "
                        "accepted so that existing command lines still parse")
    p.add_argument("--max-iters", type=positive_int, default=20000,
                   help="iteration cap of the split search, and of the "
                        "witness search when no split is found")
    p.add_argument("--seed", type=int, default=None,
                   help="default: POSMAP_SEED, or 0")
    p.set_defaults(func=functools.partial(_on_file, solve=_cmd_classify))

    p = sub.add_parser("decompose", help="search for a CP + coCP split")
    p.add_argument("input")
    p.add_argument("--max-iters", type=positive_int, default=20000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=functools.partial(_on_file, solve=_cmd_decompose))

    p = sub.add_parser("canonical", help="canonical form of an equality-case map")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=functools.partial(_on_file, solve=_cmd_canonical))

    p = sub.add_parser("verify", help="run the built-in verification battery")
    p.add_argument("--grid", type=positive_int, default=3,
                   help="parameter grid size (1 = smoke mode)")
    p.add_argument("--seed", type=int, default=None,
                   help="default: POSMAP_SEED, or 0")
    p.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: building takes far longer than parsing.
    return make_parser()


def main(argv=None) -> int:
    """Run one command; the one map from its failures to exit codes."""
    args = _parser().parse_args(argv)
    try:
        if vars(args).get("seed", 0) is None:
            args.seed = _default_seed()
        return args.func(args)
    except BadParamsError as exc:
        return _error(exc, EXIT_BAD_PARAMS)
    except PosmapError as exc:
        return _error(exc, EXIT_IO)
    except np.linalg.LinAlgError as exc:
        return _error(exc, EXIT_SOLVER)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
