"""Command-line front end.

Subcommands: ``tang`` (generate family members), ``classify`` (full report
for a Choi matrix file), ``decompose`` (one projection run), ``canonical``
(equality-case canonical form), and ``verify`` (the built-in battery).
``decompose`` prints the run's ``iterations``, ``residual`` and ``stop``,
and either its split ``certificate`` with the ``kadison`` margins, its PPT
``witness`` (``rho`` and ``value``, as in ``classify``), or a note that a
search that found neither is not a nondecomposability proof.

``classify`` runs its stages in this order.  The split search
(``decompose``) runs first.  A split proves positivity, since a decomposable
map is positive: every unit product vector ``v`` has ``<v, H v> >=
lower_bound = min_eig_H1 + min_eig_H2_pt - residual``, read off the
certificate.  When that bound is at least ``-POSITIVITY_TOL``, ``positive``
reads ``{"status": "proved", "lower_bound": ..., "evidence": "split",
"witness": null}``, which holds up to the rounding in those three fields; it
has no ``margin``, and the positivity engine does not run, so ``timings``
has no ``positivity`` entry.  Otherwise (no split, or a split whose bound is
below ``-POSITIVITY_TOL``) the engine runs and ``positive`` carries its
``status`` (``certified`` or ``violation_found``), ``margin`` and
``witness``.  The CP and coCP checks and the face-form stages follow.
Without a split, the unrestricted witness search runs last.  Its witness
(``rho`` and ``value``) gives ``decomposable: no-witness``; without one,
``decomposable`` reads ``unknown`` and ``witness`` holds ``found: false``,
the run's own ``residual``, ``iterations`` and ``stop``, and its ``budget``.

Every report (``classify``, ``decompose``, ``canonical``) and every matrix
(``tang``) is written, to ``--out`` or to stdout, as one line of compact
JSON followed by a newline; ``python -m json.tool FILE`` prints it indented.

Exit codes: 0 success, 1 battery criterion failed, 2 bad parameters,
3 I/O or parse error (any malformed input file, NaN or infinite entries
included), 4 solver failure after the input loaded (``classify`` and
``decompose``: an eigensolver that did not converge, or a certificate that
failed its re-check).  The stochastic subcommands, ``classify`` and
``verify``, derive every stream from one seed (``--seed``, or the
``POSMAP_SEED`` environment variable as set when :func:`main` runs).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from .acceptance import run_battery
from .choi import STRUCT_TOL, UNITAL_TOL, ChoiMatrix, extract_blocks, unital_face_defects
from .cpdecomp import (
    FEAS_TOL,
    PLATEAU_TOL,
    STATE_TOL,
    STATE_TRACE_TOL,
    WITNESS_TOL,
    DecompositionCertificate,
    decompose,
    kadison_constraints,
    witness_search,
)
from .exceptions import (
    BadParamsError,
    NotInFaceFormError,
    ParseError,
    PosmapError,
)
from .extremal import EQUALITY_TOL, canonicalize, check_row_dependence, equality_case_detect
from .io import jsonable, load_matrix, matrix_digest, matrix_to_obj, write_json
from .matkernel import PSD_TOL, partial_transpose, psd_check
from .positivity import (
    POSITIVITY_TOL,
    PROVED,
    block_positive_choi,
    coupling_bound_check,
    face_structure_report,
)
from .tang import TangParams, build_pipeline, resolve_y_entry, tang_choi

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
EXIT_SOLVER = 4

#: The constants that decide ``classify``'s flags; ``plateau_relative`` is
#: scaled by ``max(1, ||H||_F)``, ``feas`` and ``witness`` by
#: ``min(1, ||H||_F)``, and the others are absolute.  ``positivity`` decides
#: both the engine's margin and a split's ``lower_bound`` (``proved``).
TOLERANCES = {
    "positivity": POSITIVITY_TOL,
    "psd": PSD_TOL,
    "struct": STRUCT_TOL,
    "unital": UNITAL_TOL,
    "equality": EQUALITY_TOL,
    "feas": FEAS_TOL,
    "witness": WITNESS_TOL,
    "plateau_relative": PLATEAU_TOL,
    "state_trace": STATE_TRACE_TOL,
    "state": STATE_TOL,
}


def _emit(obj: dict, out: str | None) -> None:
    """Every subcommand's JSON output: to ``out``, or to stdout if None.

    A named step of its own, so that ``perfbench`` can time it as ``cli.emit``.
    """
    write_json(obj, out)


def _split_lower_bound(cert: DecompositionCertificate) -> float:
    """A lower bound on ``<v, H v>`` over unit product vectors ``v``, from a split.

    With ``X = H1 + H2 - H`` and ``v = lam (x) eta``,
    ``<v, H1 v> >= min_eig_H1``, ``<v, H2 v> = <w, PT(H2) w> >= min_eig_H2_pt``
    for the unit ``w = conj(lam) (x) eta``, and ``|<v, X v>| <= ||X||_2 <=
    ||X||_F = residual``.  Exact up to the rounding in those three fields.
    """
    return float(cert.min_eig_H1 + cert.min_eig_H2_pt - cert.residual)


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

    t0 = time.perf_counter()
    dec = decompose(choi, max_iters=max_iters)
    timings["decompose"] = time.perf_counter() - t0
    bound = _split_lower_bound(dec.certificate) if dec.decomposed else -np.inf
    if bound >= -POSITIVITY_TOL:
        positive = {"status": PROVED, "lower_bound": bound, "evidence": "split",
                    "witness": None}
    else:
        t0 = time.perf_counter()
        pos = block_positive_choi(choi, budget=budget, seed=seed)
        timings["positivity"] = time.perf_counter() - t0
        positive = {"status": pos.status, "margin": pos.margin,
                    "witness": jsonable(pos.witness)}
    flags: dict = {"positive": positive}

    t0 = time.perf_counter()
    cp = psd_check(choi.H)
    ccp = psd_check(partial_transpose(choi.H, choi.dim))
    timings["cp_ccp"] = time.perf_counter() - t0
    flags["cp"] = bool(cp.is_psd)
    flags["ccp"] = bool(ccp.is_psd)
    report["cp_min_eigenvalue"] = cp.min_eigenvalue
    report["ccp_min_eigenvalue"] = ccp.min_eigenvalue

    blocks = None
    try:
        blocks = extract_blocks(choi)
    except NotInFaceFormError as exc:
        report["face_form"] = {"in_face_form": False, "reason": str(exc)}
    if blocks is not None:
        report["face_form"] = {"in_face_form": True}
        t0 = time.perf_counter()
        report["face_structure"] = jsonable(
            face_structure_report(blocks, budget=min(budget, 16), seed=seed)
        )
        try:
            report["coupling_bound"] = jsonable(coupling_bound_check(blocks))
        except PosmapError as exc:
            report["coupling_bound"] = {"error": str(exc)}
        timings["face_structure"] = time.perf_counter() - t0
        unital = not unital_face_defects(blocks)
        report["unital_face_form"] = unital
        if unital:
            t0 = time.perf_counter()
            eq = equality_case_detect(blocks)
            report["equality_case"] = jsonable(eq)
            flags["equality_case"] = bool(eq.equality)
            if eq.equality:
                dep = check_row_dependence(blocks)
                report["row_dependence"] = jsonable(dep)
                if dep.dependent:
                    try:
                        report["canonical_form"] = jsonable(canonicalize(blocks))
                    except PosmapError as exc:
                        report["canonical_form"] = {"error": str(exc)}
            timings["equality_case"] = time.perf_counter() - t0
        else:
            flags["equality_case"] = None

    if dec.decomposed:
        flags["decomposable"] = "yes"
        report["decomposition"] = {
            "certificate": jsonable(dec.certificate),
            "iterations": dec.iterations,
            "stop": dec.stop,
            "kadison": jsonable(kadison_constraints(choi, dec.certificate)),
        }
    else:
        t0 = time.perf_counter()
        wit = witness_search(choi, max_iters=max_iters)
        timings["witness_search"] = time.perf_counter() - t0
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
    try:
        params = TangParams(args.mu, args.eps)
    except BadParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    pipe = build_pipeline(params)
    print(
        f"rho={pipe.rho!r} delta={pipe.delta!r} alpha={pipe.alpha!r} "
        f"beta={pipe.beta!r} gamma={pipe.gamma!r}",
        file=sys.stderr,
    )
    matrix = pipe.H0.H if args.stage == "raw" else pipe.Hfinal.H
    _emit(matrix_to_obj(matrix), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    try:
        matrix = load_matrix(args.input)
        choi = ChoiMatrix.from_array(matrix)
    except (ParseError, PosmapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    # The digest identifies the file's matrix; ``choi.H`` is its Hermitian part.
    report = {"input_digest": matrix_digest(matrix)}
    try:
        report.update(build_classification(
            choi, budget=args.budget, max_iters=args.max_iters, seed=args.seed
        ))
    except (PosmapError, np.linalg.LinAlgError) as exc:
        # LinAlgError too: the positivity engine and the state checks call
        # LAPACK directly.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _emit(report, args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    try:
        choi = ChoiMatrix.from_array(load_matrix(args.input))
    except (ParseError, PosmapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        result = decompose(choi, max_iters=args.max_iters)
        if result.decomposed:
            kadison = kadison_constraints(choi, result.certificate)
    except (PosmapError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    obj: dict = {"decomposed": result.decomposed, "iterations": result.iterations,
                 "residual": result.residual, "stop": result.stop}
    if result.decomposed:
        obj["certificate"] = jsonable(result.certificate)
        obj["kadison"] = jsonable(kadison)
    elif result.found:
        obj["witness"] = jsonable(result.witness)
    else:
        obj["note"] = ("no decomposition found within the iteration budget; "
                       "this is not a nondecomposability proof")
    _emit(obj, args.out)
    return EXIT_OK


def _cmd_canonical(args) -> int:
    try:
        choi = ChoiMatrix.from_array(load_matrix(args.input))
        blocks = extract_blocks(choi)
        canon = canonicalize(blocks)
    except (ParseError, PosmapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    _emit(jsonable(canon), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_battery(grid_k=args.grid, seed=args.seed)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{res.key}] {status} {res.name}: {res.detail} ({res.seconds:.2f}s)")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return EXIT_OK if failures == 0 else EXIT_CRITERION


def _default_seed() -> int:
    env = os.environ.get("POSMAP_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        return 0


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
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", help="search for a CP + coCP split")
    p.add_argument("input")
    p.add_argument("--max-iters", type=positive_int, default=20000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("canonical", help="canonical form of an equality-case map")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_canonical)

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
    args = _parser().parse_args(argv)
    if vars(args).get("seed", 0) is None:
        args.seed = _default_seed()
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
