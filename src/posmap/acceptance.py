"""Built-in verification battery reproducing the library's headline claims.

Each criterion is a standalone check with pinned tolerances; the battery is
what ``posmap verify`` runs and what the acceptance test suite asserts.
All randomness is derived from one seed, stage by stage.

Every criterion is a check wrapped by one runner, :func:`criterion`, which
states its key, title and time limit once.  The check returns
``(passed, detail)``, or raises ``_Fail(detail)`` to stop early with a
failure.  The runner times the whole check and builds the
:class:`CriterionResult`.  A criterion that runs as long as its limit or
longer fails, with its runtime appended to the detail: 1 s for C2, 60 s for
C4 and 30 s for C10; the others have none.  C1 keeps its own 1 ms limit on
one construction.  A :class:`~posmap.exceptions.PosmapError` or
``numpy.linalg.LinAlgError`` raised inside a check ends that criterion as a
failure whose detail names the error, and the battery goes on.
:meth:`CriterionResult.line` is the one format of a result line.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .choi import (
    ChoiBlocks,
    ChoiMatrix,
    assemble_blocks,
    choi_from_map,
    extract_blocks,
    row_abs,
    row_abs_product,
)
from .cpdecomp import (
    STATE_TOL,
    STATE_TRACE_TOL,
    ccp_check,
    cp_check,
    decompose,
    kadison_constraints,
)
from .exceptions import PosmapError
from .matkernel import frobenius, partial_transpose, psd_check, require_hermitian
from .positivity import (
    CERTIFIED,
    VIOLATION_FOUND,
    admissible_combination,
    block_positive_2x2,
    certify_positivity,
    coupling_bound_check,
)
from .rand import random_psd, rng_for
from .tang import (
    TangParams,
    build_pipeline,
    param_grid,
    phi0_apply,
    resolve_y_entry,
    tang_choi,
)
from .extremal import (
    canonicalize,
    check_row_dependence,
    classify_degenerate,
    compress,
    random_equality_blocks,
    scramble_blocks,
)

REFERENCE_PARAMS = (
    TangParams(0.9, 0.12),
    TangParams(0.5, 1.0 / 24.0),
    TangParams(0.3, 0.01),
)


@dataclass(frozen=True)
class CriterionResult:
    key: str
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        """The result as ``posmap verify`` prints it."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.key}] {status} {self.name}: {self.detail} ({self.seconds:.2f}s)"


class _Fail(Exception):
    """Ends a criterion's check as a failure; its one argument is the detail."""


def criterion(
    key: str, name: str, limit_s: float | None
) -> Callable[[Callable[..., tuple[bool, str]]], Callable[..., CriterionResult]]:
    """Turn a check returning ``(passed, detail)`` into criterion ``key``.

    The wrapped function takes the check's arguments and returns a
    :class:`CriterionResult` whose ``seconds`` cover the whole check.  A run
    of ``limit_s`` seconds or more fails; ``None`` sets no limit.
    """

    def wrap(check: Callable[..., tuple[bool, str]]) -> Callable[..., CriterionResult]:
        @functools.wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            started = time.perf_counter()
            try:
                passed, detail = check(*args, **kwargs)
            except _Fail as exc:
                passed, detail = False, str(exc)
            except (PosmapError, np.linalg.LinAlgError) as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - started
            if limit_s is not None and seconds >= limit_s:
                passed = False
                detail = f"{detail}; runtime {seconds:.2f}s >= {limit_s:g}s"
            return CriterionResult(key, name, bool(passed), detail, seconds)

        return run

    return wrap


def _raw_choi_table(mu: float, eps: float) -> np.ndarray:
    """The printed raw Choi matrix, restated entry by entry."""
    H = np.zeros((8, 8), dtype=np.complex128)
    for k, v in enumerate((1 - eps, 1, 2, 1, mu**2, 2, 2, 1)):
        H[k, k] = v
    for (i, j), v in {
        (0, 5): -1, (1, 6): -2, (2, 4): mu, (2, 7): -2, (4, 7): -mu,
    }.items():
        H[i, j] = v
        H[j, i] = v
    return H


@criterion("C1", "raw Choi reproduction", None)
def criterion_choi_reproduction() -> tuple[bool, str]:
    """C1: the raw Choi matrix reproduces its closed form, in under 1 ms."""
    tang_choi(REFERENCE_PARAMS[0])  # warm-up outside the timed window
    worst = 0.0
    for params in REFERENCE_PARAMS:
        t0 = time.perf_counter()
        built = tang_choi(params)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        table = _raw_choi_table(params.mu, params.eps)
        if not np.array_equal(built.H, table):
            raise _Fail(f"entrywise mismatch at mu={params.mu}, eps={params.eps}")
        generic = choi_from_map(lambda A: phi0_apply(params, A), 3)
        if not np.array_equal(built.H, generic.H):
            raise _Fail("direct assembly differs from the map-action route")
        if elapsed >= 1e-3:
            raise _Fail(f"construction took {elapsed * 1e3:.3f} ms >= 1 ms")
    return True, f"3 parameter points exact; worst build {worst * 1e6:.0f} us"


@criterion("C2", "normalization pipeline", 1.0)
def criterion_pipeline(grid_k: int) -> tuple[bool, str]:
    """C2: normalization residuals across the parameter grid, under 1 s."""
    bounds = {
        "unitality": 1e-9,
        "W_unitarity": 1e-10,
        "corner_system": 1e-10,
        "rotation_identity": 1e-10,
        "zero_pattern": 1e-9,
    }
    worst = {k: 0.0 for k in bounds}
    for params in param_grid(grid_k):
        res = build_pipeline(params).residuals()
        for k in bounds:
            worst[k] = max(worst[k], res[k])
    failures = [k for k in bounds if worst[k] > bounds[k]]
    detail = ", ".join(f"{k}={worst[k]:.2e}" for k in bounds)
    return not failures, detail


@criterion("C3", "positivity of the family", None)
def criterion_positivity(grid_k: int, seed: int) -> tuple[bool, str]:
    """C3: positivity certified on the grid; neither CP nor coCP."""
    worst_margin = np.inf
    for params in param_grid(grid_k):
        pipe = build_pipeline(params)
        blocks = extract_blocks(pipe.Hfinal)
        verdict = certify_positivity(blocks, seed=seed)
        if verdict.status != CERTIFIED:
            raise _Fail(f"not certified at mu={params.mu:.3f}, eps={params.eps:.4f} "
                        f"(margin {verdict.margin:.3e})")
        worst_margin = min(worst_margin, verdict.margin)
        if cp_check(blocks).holds or ccp_check(blocks).holds:
            raise _Fail(f"CP/coCP unexpectedly holds at mu={params.mu:.3f}")
    pipe = build_pipeline(TangParams(0.9, 0.12))
    h_min, g_min = (v.min_eigenvalue for v in pipe.Hfinal.psd_verdicts)
    ok = h_min < -1e-3 and g_min < -1e-3
    return ok, (f"certified margin >= {worst_margin:.2e}; min eig H {h_min:.4f}, "
                f"min eig H^G {g_min:.4f}")


@criterion("C4", "nondecomposability certificate", 60.0)
def criterion_nondecomposability(max_iters: int) -> tuple[bool, str]:
    """C4: PPT witness and a failed split, from one run on the reference point."""
    H0 = tang_choi(TangParams(0.9, 0.12))
    dec = decompose(H0, max_iters=max_iters)
    if not dec.found:
        raise _Fail(f"no witness found after {dec.iterations} iterations "
                    f"(stop: {dec.stop})")
    rho = dec.witness.rho
    value = float(np.trace(H0.H @ rho).real)
    checks = {
        "value": value < -1e-6,
        "trace": abs(np.trace(rho).real - 1.0) <= STATE_TRACE_TOL,
        "psd": np.linalg.eigvalsh(require_hermitian(rho))[0] >= -STATE_TOL,
        "ppt": np.linalg.eigvalsh(require_hermitian(partial_transpose(rho, 4)))[0]
        >= -STATE_TOL,
    }
    # A run that stops on a witness holds no split.
    ok = all(checks.values())
    return ok, (f"witness value {value:.4e}; split residual {dec.residual:.2e} after "
                f"{dec.iterations} iterations (stop: {dec.stop})")


@criterion("C5", "strict coupling bound", None)
def criterion_strictness(grid_k: int) -> tuple[bool, str]:
    """C5: the coupling bound is strict everywhere on the grid."""
    worst = np.inf
    for params in param_grid(grid_k):
        blocks = extract_blocks(build_pipeline(params).Hfinal)
        bound = coupling_bound_check(blocks)
        if not bound.holds or bound.margin <= 1e-7:
            raise _Fail(f"margin {bound.margin:.3e} at mu={params.mu:.3f}")
        worst = min(worst, bound.margin)
    return True, f"smallest margin {worst:.3e}"


@criterion("C6", "row-vector calculus", None)
def criterion_row_calculus(trials: int, seed: int) -> tuple[bool, str]:
    """C6: the row-vector absolute-value identities over random trials."""
    rng = rng_for(seed, "criterion-row-calculus")
    worst1 = worst2 = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi = X.conj() / np.linalg.norm(X)
        lhs = row_abs(X)
        rhs = np.linalg.norm(X) * np.outer(xi, xi.conj())
        worst1 = max(worst1, frobenius(lhs - rhs))
        prod = row_abs_product(X, X2)
        direct = row_abs(X) @ row_abs(X2)
        worst2 = max(worst2, frobenius(prod - direct))
    ok = worst1 <= 1e-11 and worst2 <= 1e-11
    return ok, (f"{trials} trials; projector identity {worst1:.2e}, product identity "
                f"{worst2:.2e}")


def _certified_triple(n, rng):
    """Triple block-positive by construction (S small against P, Q floors)."""
    P = random_psd(n, rng) + 0.3 * np.eye(n)
    Q = random_psd(n, rng) + 0.3 * np.eye(n)
    floor = np.sqrt(
        np.linalg.eigvalsh(P)[0] * np.linalg.eigvalsh(Q)[0]
    )
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S *= 0.4 * floor / max(np.linalg.norm(S, 2), 1e-12)
    return P, S, Q


def _violating_triple(n, rng):
    P = random_psd(n, rng, rank=max(1, n - 1)) + 0.05 * np.eye(n)
    Q = random_psd(n, rng, rank=max(1, n - 1)) + 0.05 * np.eye(n)
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S *= 4.0 * max(np.linalg.norm(P, 2), np.linalg.norm(Q, 2)) / np.linalg.norm(S, 2)
    return P, S, Q


@criterion("C7", "block-positivity equivalence", None)
def criterion_blockpos_equivalence(certified: int, combos: int, seed: int) -> tuple[bool, str]:
    """C7: the scalar-combination form of block-positivity, both directions."""
    rng = rng_for(seed, "criterion-blockpos")
    done = 0
    violations = 0
    worst = np.inf
    while done < certified:
        n = int(rng.integers(2, 4))
        P, S, Q = _certified_triple(n, rng)
        verdict = block_positive_2x2(P, S, Q, budget=32, seed=int(rng.integers(2**31)))
        if verdict.status != CERTIFIED:
            raise _Fail("constructed-safe triple was not certified "
                        f"(margin {verdict.margin:.3e})")
        for _ in range(combos):
            p = float(rng.uniform(0.0, 2.0))
            q = float(rng.uniform(0.0, 2.0))
            r = 1.0 if rng.random() < 0.5 else float(rng.random())
            s = r * np.sqrt(p * q) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            combo = admissible_combination(P, S, Q, p, q, s)
            v = psd_check(combo)
            worst = min(worst, v.min_eigenvalue)
            if not v.is_psd:
                raise _Fail(f"certified triple produced a combination with min "
                            f"eigenvalue {v.min_eigenvalue:.3e}")
        done += 1
    for _ in range(15):
        n = int(rng.integers(2, 4))
        P, S, Q = _violating_triple(n, rng)
        verdict = block_positive_2x2(P, S, Q, budget=32, seed=int(rng.integers(2**31)))
        if verdict.status != VIOLATION_FOUND:
            continue
        lam1, lam2 = verdict.witness.lam
        p, q = abs(lam1) ** 2, abs(lam2) ** 2
        s = np.conj(lam1) * lam2
        combo = admissible_combination(P, S, Q, p, q, s)
        if psd_check(combo).is_psd:
            raise _Fail("violation witness failed to produce a non-PSD combination")
        violations += 1
    if violations == 0:
        raise _Fail("no violating triples were exercised")
    return True, (f"{certified} certified triples x {combos} combos (min eig {worst:.2e}); "
                  f"{violations} violations cross-checked")


def _random_face_blocks(n, rng, kind):
    """Random face-form blocks: generic, CP-shaped, or coCP-shaped."""
    if kind == "generic":
        B = random_psd(n, rng) - 0.3 * np.eye(n)
        U = random_psd(n, rng) - 0.3 * np.eye(n)
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return ChoiBlocks(
            a=float(rng.uniform(0.0, 2.0)),
            x=0j,
            C=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            Y=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            Z=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            B=(B + B.conj().T) / 2,
            T=T,
            U=(U + U.conj().T) / 2,
        )
    K = random_psd(2 * n + 1, rng)
    a = float(K[0, 0].real)
    C = K[0, 1 : n + 1].copy()
    row = K[0, n + 1 :].copy()
    B = K[1 : n + 1, 1 : n + 1].copy()
    mid = K[1 : n + 1, n + 1 :].copy()
    U = K[n + 1 :, n + 1 :].copy()
    zero = np.zeros(n, dtype=np.complex128)
    if kind == "cp":
        return ChoiBlocks(a=a, x=0j, C=C, Y=row, Z=zero, B=B, T=mid, U=U)
    return ChoiBlocks(a=a, x=0j, C=C, Y=zero, Z=row, B=B, T=mid.conj().T, U=U)


@criterion("C8", "complete (co)positivity cross-validation", None)
def criterion_cp_crossvalidation(trials: int, seed: int) -> tuple[bool, str]:
    """C8: structural CP/coCP tests agree with the direct spectral tests."""
    rng = rng_for(seed, "criterion-cp-crossval")
    kinds = ["generic", "cp", "ccp"]
    for k in range(trials):
        n = int(rng.integers(2, 5))
        blocks = _random_face_blocks(n, rng, kinds[k % 3])
        H = assemble_blocks(blocks)
        cp = cp_check(blocks)
        ccp = ccp_check(blocks)
        direct_cp, direct_ccp = (v.is_psd for v in H.psd_verdicts)
        if cp.holds != direct_cp or ccp.holds != direct_ccp:
            raise _Fail(f"disagreement on trial {k} (kind {kinds[k % 3]})")
    return True, f"{trials} random face-form matrices, zero disagreements"


@criterion("C9", "decomposable round trip", None)
def criterion_decomposition_roundtrip(instances: int, seed: int) -> tuple[bool, str]:
    """C9: random PSD + PT-PSD inputs are split back with valid constraints."""
    rng = rng_for(seed, "criterion-decompose")
    worst_res = 0.0
    worst_margin = np.inf
    for k in range(instances):
        d = int(rng.integers(2, 5))
        A = random_psd(2 * d, rng)
        Bm = partial_transpose(random_psd(2 * d, rng), d)
        H = ChoiMatrix.from_array(A + Bm)
        out = decompose(H, max_iters=20000)
        if not out.decomposed or out.residual > 1e-7:
            raise _Fail(f"instance {k} (dim {2 * d}) residual {out.residual:.3e}")
        worst_res = max(worst_res, out.residual)
        report = kadison_constraints(H, out.certificate)
        margin = min(report.entry_margins.values())
        worst_margin = min(worst_margin, margin)
        if not report.all_pass():
            raise _Fail(f"instance {k} has constraint margin {margin:.3e}")
    return True, (f"{instances} instances; residual <= {worst_res:.2e}, "
                  f"constraint margins >= {worst_margin:.2e}")


def _degenerate_fixture(n, rng, kind):
    norm = rng.uniform(0.3, 0.8)
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row *= norm / np.linalg.norm(row)
    gram = np.outer(row.conj(), row)
    zero = np.zeros(n, dtype=np.complex128)
    eye = np.eye(n, dtype=np.complex128)
    if kind == "cp":
        return ChoiBlocks(a=1.0, x=0j, C=zero.copy(), Y=row, Z=zero.copy(),
                          B=eye - gram, T=np.zeros((n, n), np.complex128), U=gram)
    return ChoiBlocks(a=1.0, x=0j, C=zero.copy(), Y=zero.copy(), Z=row,
                      B=eye - gram, T=np.zeros((n, n), np.complex128), U=gram)


@criterion("C10", "saturated-bound structure suite", 30.0)
def criterion_equality_suite(fixtures: int, compressions: int, seed: int) -> tuple[bool, str]:
    """C10: the saturated-bound structure theory on scrambled fixtures."""
    rng = rng_for(seed, "criterion-equality")
    for k in range(fixtures):
        n = int(rng.integers(2, 5))
        blocks, truth = random_equality_blocks(n, rng)
        scrambled, _ = scramble_blocks(blocks, rng)
        dep = check_row_dependence(scrambled)
        if not dep.dependent or dep.singular_values[1] > 1e-8:
            raise _Fail(f"fixture {k}: dependence failed (s2 = "
                        f"{dep.singular_values[1]:.2e})")
        canon = canonicalize(scrambled)
        errs = (
            abs(abs(canon.y) - abs(truth["y"])),
            abs(abs(canon.z) - abs(truth["z"])),
            abs(canon.u - truth["u"]),
            abs(abs(canon.t) - abs(truth["t"])),
        )
        if max(errs) > 1e-8:
            raise _Fail(f"fixture {k}: canonical recovery error {max(errs):.2e}")
        for _ in range(compressions):
            r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            r /= np.linalg.norm(r)
            res = compress(canon, r)
            if res.margin < -1e-9:
                raise _Fail(f"fixture {k}: compression margin {res.margin:.3e}")
    for kind in ("cp", "cocp"):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            fix = _degenerate_fixture(n, rng, "cp" if kind == "cp" else "ccp")
            fix, _ = scramble_blocks(fix, rng)
            cls = classify_degenerate(fix)
            if cls.verdict != kind:
                raise _Fail(f"degenerate fixture classified {cls.verdict!r}, "
                            f"expected {kind!r}")
    return True, (f"{fixtures} scrambled fixtures x {compressions} compressions; "
                  "degenerate classes confirmed")


@criterion("C11", "coupling-entry variant resolution", None)
def criterion_coupling_entry() -> tuple[bool, str]:
    """C11: which printed closed form the computed coupling entry matches."""
    variants = []
    worst = 0.0
    for params in REFERENCE_PARAMS:
        res = resolve_y_entry(build_pipeline(params))
        variants.append(res.variant)
        worst = max(worst, abs(res.observed - res.rho_candidate))
    consistent = len(set(variants)) == 1 and variants[0] != "neither"
    detail = (f"variant {variants[0]!r} at all three points (residual {worst:.2e}); "
              "the matrix display wins over the block list")
    return consistent and variants[0] == "rho", detail


def run_battery(grid_k: int, seed: int) -> list[CriterionResult]:
    """Run every criterion on the ``grid_k x grid_k`` parameter grid.

    ``grid_k = 1`` is smoke mode: one parameter point and smaller stochastic
    batteries.
    """
    if grid_k <= 1:
        sizes = dict(c6=50, c7=(10, 20), c8=24, c9=8, c10=(12, 5), iters=4000)
    else:
        sizes = dict(c6=200, c7=(50, 100), c8=100, c9=50, c10=(100, 20),
                     iters=20000)
    results = [
        criterion_choi_reproduction(),
        criterion_pipeline(grid_k=grid_k),
        criterion_positivity(grid_k=grid_k, seed=seed),
        criterion_nondecomposability(max_iters=sizes["iters"]),
        criterion_strictness(grid_k=grid_k),
        criterion_row_calculus(trials=sizes["c6"], seed=seed),
        criterion_blockpos_equivalence(certified=sizes["c7"][0],
                                       combos=sizes["c7"][1], seed=seed),
        criterion_cp_crossvalidation(trials=sizes["c8"], seed=seed),
        criterion_decomposition_roundtrip(instances=sizes["c9"], seed=seed),
        criterion_equality_suite(fixtures=sizes["c10"][0],
                                 compressions=sizes["c10"][1], seed=seed),
        criterion_coupling_entry(),
    ]
    return results
