"""Command-line front end.

Subcommands: ``tang`` (generate family members), ``classify`` (full report
for a Choi matrix file), ``decompose`` (split certificate), ``canonical``
(equality-case canonical form), and ``verify`` (the built-in battery).

Exit codes: 0 success, 1 battery criterion failed, 2 bad parameters,
3 I/O or parse error (including NaN or infinite entries).  The stochastic
subcommands, ``classify`` and ``verify``, derive every stream from one seed
(``--seed`` or the ``POSMAP_SEED`` environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .acceptance import run_battery
from .choi import ChoiMatrix, extract_blocks
from .cpdecomp import decompose, kadison_constraints, witness_search
from .exceptions import (
    BadParamsError,
    NotInFaceFormError,
    ParseError,
    PosmapError,
)
from .extremal import canonicalize, check_row_dependence, equality_case_detect
from .io import jsonable, load_matrix, matrix_digest, matrix_to_obj, save_matrix
from .matkernel import partial_transpose, psd_check
from .positivity import (
    NotPSDError,
    block_positive_choi,
    coupling_bound_check,
    face_structure_report,
)
from .tang import TangParams, build_pipeline, resolve_y_entry, tang_choi

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_choi(path: str) -> ChoiMatrix:
    return ChoiMatrix.from_array(load_matrix(path))


def build_classification(
    choi: ChoiMatrix,
    budget: int = 64,
    witness_restarts: int = 16,
    max_iters: int = 20000,
    seed: int = 0,
) -> dict:
    """Assemble the full machine-readable classification report."""
    timings: dict[str, float] = {}
    report: dict = {
        "input_digest": matrix_digest(choi.H),
        "shape": {"domain": 2, "codomain": choi.dim},
    }

    t0 = time.perf_counter()
    pos = block_positive_choi(choi, budget=budget, seed=seed)
    timings["positivity"] = time.perf_counter() - t0
    flags: dict = {
        "positive": {"status": pos.status, "margin": pos.margin,
                     "witness": jsonable(pos.witness)},
    }

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
        except (NotPSDError, PosmapError) as exc:
            report["coupling_bound"] = {"error": str(exc)}
        timings["face_structure"] = time.perf_counter() - t0
        unital = abs(blocks.a - 1.0) <= 1e-8 and np.linalg.norm(blocks.C) <= 1e-8
        report["unital_face_form"] = bool(unital)
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

    t0 = time.perf_counter()
    dec = decompose(choi, max_iters=max_iters)
    timings["decompose"] = time.perf_counter() - t0
    if dec.decomposed:
        flags["decomposable"] = "yes"
        report["decomposition"] = {
            "certificate": jsonable(dec.certificate),
            "iterations": dec.iterations,
            "kadison": jsonable(kadison_constraints(choi, dec.certificate)),
        }
    else:
        t0 = time.perf_counter()
        wit = witness_search(choi, restarts=witness_restarts, seed=seed)
        timings["witness_search"] = time.perf_counter() - t0
        if wit.found:
            flags["decomposable"] = "no-witness"
            report["witness"] = jsonable(wit.certificate)
        else:
            flags["decomposable"] = "unknown"
            report["witness"] = {
                "found": False,
                "best_value": wit.best_value,
                "budget": {"restarts": witness_restarts},
            }
        report["decomposition"] = {
            "residual": dec.residual,
            "iterations": dec.iterations,
        }
    report["flags"] = flags
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
    if args.out:
        save_matrix(args.out, matrix)
    else:
        print(json.dumps(matrix_to_obj(matrix)))
    return EXIT_OK


def _cmd_classify(args) -> int:
    try:
        choi = _load_choi(args.input)
    except (ParseError, PosmapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = build_classification(
        choi,
        budget=args.budget,
        witness_restarts=args.witness_restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    try:
        choi = _load_choi(args.input)
    except (ParseError, PosmapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    result = decompose(choi, max_iters=args.max_iters)
    obj: dict = {"decomposed": result.decomposed, "iterations": result.iterations,
                 "residual": result.residual}
    if result.decomposed:
        obj["certificate"] = jsonable(result.certificate)
        obj["kadison"] = jsonable(kadison_constraints(choi, result.certificate))
    else:
        obj["note"] = ("no decomposition found within the iteration budget; "
                       "this is not a nondecomposability proof")
    _emit(obj, args.out)
    return EXIT_OK


def _cmd_canonical(args) -> int:
    try:
        choi = _load_choi(args.input)
        blocks = extract_blocks(choi)
        canon = canonicalize(blocks)
    except (ParseError, PosmapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    _emit(jsonable(canon), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_battery(grid_k=args.grid, seed=args.seed, smoke=args.grid <= 1)
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
    p.add_argument("--budget", type=int, default=64,
                   help="seeded random points added to the fixed Bloch-sphere "
                        "scan of the positivity search")
    p.add_argument("--witness-restarts", type=int, default=16)
    p.add_argument("--max-iters", type=int, default=20000,
                   help="iteration cap for the split search")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", help="search for a CP + coCP split")
    p.add_argument("input")
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("canonical", help="canonical form of an equality-case map")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("verify", help="run the built-in verification battery")
    p.add_argument("--grid", type=int, default=3,
                   help="parameter grid size (1 = smoke mode)")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
