"""Seeded inputs, timed operations and known answers of the posmap benchmark.

Every input is generated from the run's seed, and every known answer follows
from how the input was built, never from running posmap on it:

* ``tang``: Tang maps (raw and normalized) at admissible (mu, eps).  They are
  positive, neither CP nor coCP, and nondecomposable (a PPT witness exists).
* ``decomposable``: H = A + PT(B) with A, B random PSD, so H is decomposable
  and therefore positive.
* ``nonpositive``: maps with a product vector of negative value, so they are
  neither positive, CP nor decomposable.
* ``faceform``: scrambled equality-case maps.  They are positive, saturate the
  coupling bound, and their canonical scalars are those of the construction.

The first three run ``posmap classify`` through ``posmap.cli.main`` in
process (file in, JSON out); ``faceform`` runs the face-form analysis that
``classify`` performs before its solvers, through the public functions.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import posmap
from posmap import cli
from posmap.choi import assemble_blocks
from posmap.tang import TangParams, build_pipeline

import verdicts

#: Codomain dimensions d = n + 1 cycled by the ``decomposable`` workload.
DECOMPOSABLE_DIMS = tuple(range(2, 11))

#: Codomain dimension of the ``nonpositive`` workload.  One size keeps the
#: operations alike, so a run's median does not hinge on which sizes it reached.
NONPOSITIVE_DIM = 3

#: Codomain sizes n cycled by the ``faceform`` workload.
FACEFORM_SIZES = tuple(range(2, 9))

#: Range of mu for the ``tang`` workload; eps is drawn in (0, mu^2/6].
TANG_MU_RANGE = (0.1, 0.95)


@dataclass
class Case:
    """One input of a workload and what its verdict must be."""

    index: int
    label: str
    seed: int
    H: np.ndarray
    truth: dict = field(default_factory=dict)
    path: Path | None = None
    choi: posmap.ChoiMatrix | None = None
    options: tuple[str, ...] = ()


def case_rng(seed: int, workload: str) -> np.random.Generator:
    """Generator for a workload's inputs, derived from the run seed only."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(workload.encode())])


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_psd(rng, size):
    G = _complex_normal(rng, (size, size))
    W = G @ G.conj().T
    return (W + W.conj().T) / 2.0


def _unit(v):
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def tang_cases(rng, count):
    """Tang maps: raw and normalized alternate, mu stratified over its range."""
    lo, hi = TANG_MU_RANGE
    strata = max(1, count // 2)
    cases = []
    for k in range(count):
        j = (k // 2) % strata
        mu = lo + (hi - lo) * (j + rng.uniform()) / strata
        eps = rng.uniform(0.05, 1.0) * mu**2 / 6.0
        stage = "raw" if k % 2 == 0 else "normalized"
        pipe = build_pipeline(TangParams(mu, eps))
        H = (pipe.H0 if stage == "raw" else pipe.Hfinal).H.copy()
        cases.append(Case(
            index=k,
            label=f"tang {stage} mu={mu:.4f} eps={eps:.5f} #{k}",
            seed=int(rng.integers(2**31)),
            H=H,
            truth={"kind": "tang", "d": 4},
        ))
    return cases


def decomposable_matrix(rng, d):
    """H = A + PT(B) with A and B random PSD of size 2d."""
    A = _random_psd(rng, 2 * d)
    B = _random_psd(rng, 2 * d)
    return A + verdicts.partial_transpose(B, d)


def decomposable_cases(rng, count):
    cases = []
    for k in range(count):
        d = DECOMPOSABLE_DIMS[k % len(DECOMPOSABLE_DIMS)]
        cases.append(Case(
            index=k,
            label=f"decomposable d={d} #{k}",
            seed=int(rng.integers(2**31)),
            H=decomposable_matrix(rng, d),
            truth={"kind": "decomposable", "d": d},
        ))
    return cases


def product_violation(rng, d):
    """Decomposable H minus s (x (x) e)(x (x) e)* with s above its value there.

    The product vector v = x (x) e then has <v, H v> < 0, so the map is not
    positive.  Its diagonal blocks may or may not stay PSD.
    """
    H0 = decomposable_matrix(rng, d)
    v = np.kron(_unit(_complex_normal(rng, 2)), _unit(_complex_normal(rng, d)))
    value = float(np.vdot(v, H0 @ v).real)
    s = value + rng.uniform(0.5, 1.5) * np.trace(H0).real / (2 * d)
    return H0 - s * np.outer(v, v.conj())


def triple_violation(rng, d):
    """[[P, S], [S*, Q]] with P, Q positive definite and ||S|| = 4 max(||P||, ||Q||).

    The numerical radius of S is at least ||S|| / 2, so some unit eta has
    |<eta, S eta>|^2 >= 4 max(||P||, ||Q||)^2 > <eta, P eta><eta, Q eta>:
    the diagonal blocks are PSD and the violation is off-diagonal.
    """
    P = _random_psd(rng, d) + 0.05 * np.eye(d)
    Q = _random_psd(rng, d) + 0.05 * np.eye(d)
    S = _complex_normal(rng, (d, d))
    S *= 4.0 * max(np.linalg.norm(P, 2), np.linalg.norm(Q, 2)) / np.linalg.norm(S, 2)
    return np.block([[P, S], [S.conj().T, Q]])


def nonpositive_cases(rng, count):
    cases = []
    for k in range(count):
        d = NONPOSITIVE_DIM
        kind = "product" if k % 2 == 0 else "triple"
        H = product_violation(rng, d) if kind == "product" else triple_violation(rng, d)
        cases.append(Case(
            index=k,
            label=f"nonpositive {kind} d={d} #{k}",
            seed=int(rng.integers(2**31)),
            H=H,
            truth={"kind": "nonpositive", "d": d},
        ))
    return cases


def faceform_cases(rng, count):
    """Scrambled equality-case maps with their canonical scalars."""
    cases = []
    for k in range(count):
        n = FACEFORM_SIZES[k % len(FACEFORM_SIZES)]
        blocks, truth = posmap.random_equality_blocks(n, rng)
        scrambled, _ = posmap.scramble_blocks(blocks, rng)
        cases.append(Case(
            index=k,
            label=f"faceform n={n} #{k}",
            seed=int(rng.integers(2**31)),
            H=assemble_blocks(scrambled).H.copy(),
            truth={
                "kind": "faceform", "d": n + 1,
                "abs_y": abs(truth["y"]), "abs_z": abs(truth["z"]),
                "u": float(truth["u"]), "abs_t": abs(truth["t"]),
            },
        ))
    return cases


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def write_matrix(path: Path, H: np.ndarray) -> None:
    """Write a matrix in posmap's JSON wire format."""
    flat = np.asarray(H, dtype=np.complex128).reshape(-1)
    obj = {"rows": H.shape[0], "cols": H.shape[1],
           "data": [[float(v.real), float(v.imag)] for v in flat]}
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


#: ``classify`` budgets of a warm-up that must reach the witness search: small,
#: so that set-up stays short, but every stage still runs once.
SHORT_BUDGETS = ("--max-iters", "100", "--witness-restarts", "1")


class ClassifyWorkload:
    """``posmap classify`` through ``cli.main``: file in, JSON report out."""

    def __init__(self, name, generate, check, pool, warmup_options=()):
        self.name = name
        self.generate = generate
        self.check_report = check
        self.pool = pool
        self.warmup_options = warmup_options

    def prepare(self, cases, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for case in cases:
            case.path = workdir / f"{self.name}-{case.index}.json"
            write_matrix(case.path, case.H)

    def run(self, case: Case):
        """The timed operation; returns the exit code and the report path."""
        out = case.path.with_suffix(".report.json")
        code = cli.main(["classify", str(case.path), "--out", str(out),
                         "--seed", str(case.seed), *case.options])
        return code, out

    def check(self, case: Case, result) -> verdicts.Outcome:
        code, out = result
        if code != 0:
            return verdicts.Outcome(verdicts.ERROR, f"exit code {code}")
        try:
            report = json.loads(Path(out).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return verdicts.Outcome(verdicts.ERROR, f"unreadable report: {exc}")
        return self.check_report(case.H, case.truth["d"], report)


def faceform_analysis(choi, seed: int, budget: int = 64) -> dict:
    """The face-form stage of ``classify``, through the public functions."""
    pos = posmap.block_positive_choi(choi, budget=budget, seed=seed)
    blocks = posmap.extract_blocks(choi)
    out = {
        "positive": pos,
        "face_structure": posmap.face_structure_report(
            blocks, budget=min(budget, 16), seed=seed),
        "coupling_bound": posmap.coupling_bound_check(blocks),
        "unital_route": posmap.certify_positivity(blocks, budget=budget, seed=seed),
        "equality": posmap.equality_case_detect(blocks),
    }
    if out["equality"].equality:
        out["dependence"] = posmap.check_row_dependence(blocks)
        if out["dependence"].dependent:
            out["canonical"] = posmap.canonicalize(blocks)
    return out


class FaceformWorkload:
    """Face-form analysis of scrambled equality-case maps."""

    name = "faceform"
    pool = 98
    warmup_options = ()

    @staticmethod
    def generate(rng, count):
        return faceform_cases(rng, count)

    def prepare(self, cases, workdir: Path) -> None:
        for case in cases:
            case.choi = posmap.ChoiMatrix.from_array(case.H)

    def run(self, case: Case):
        return faceform_analysis(case.choi, case.seed)

    def check(self, case: Case, result) -> verdicts.Outcome:
        return verdicts.check_faceform(case.H, case.truth, result)


WORKLOADS = {
    "tang": ClassifyWorkload("tang", tang_cases, verdicts.check_tang, pool=8,
                             warmup_options=SHORT_BUDGETS),
    "decomposable": ClassifyWorkload(
        "decomposable", decomposable_cases, verdicts.check_decomposable, pool=180),
    "nonpositive": ClassifyWorkload(
        "nonpositive", nonpositive_cases, verdicts.check_nonpositive, pool=12,
        warmup_options=SHORT_BUDGETS),
    "faceform": FaceformWorkload(),
}


def warmup_case(workload) -> Case:
    """The first input of the workload's own kind from a fixed seed.

    It is the smallest size the workload cycles through.  Run once, it walks
    the same stages as the workload's operations: ``decomposable`` converges
    in its split search, ``nonpositive`` and ``tang`` go on to the witness
    search, under :data:`SHORT_BUDGETS`.
    """
    case = workload.generate(case_rng(0, "warm-up"), 1)[0]
    case.index = -1
    case.label = "warm-up " + case.label
    case.options = workload.warmup_options
    return case
