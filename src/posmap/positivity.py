"""Positivity criteria for maps given by Choi matrices.

A map phi on 2x2 matrices is positive exactly when ``phi(xi xi*)`` is PSD for
every unit ``xi`` in C^2.  With the Choi blocks ``P = phi(E_11)``,
``S = phi(E_12)`` and ``Q = phi(E_22)``, the image of the rank-one projector
with Bloch vector ``r`` on the unit sphere S^2 is

    M(r) = A0 + r1 A1 + r2 A2 + r3 A3,
    A0 = (P + Q)/2,  A1 = (S + S*)/2,  A2 = i(S - S*)/2,  A3 = (P - Q)/2,

where ``r = (2 Re xi1 conj(xi2), 2 Im xi1 conj(xi2), |xi1|^2 - |xi2|^2)``.
One engine answers every positivity question in this module: it takes
``lambda_min(M(r))`` over a fixed point set on S^2 plus seeded random points
with one batched eigensolve, then refines the lowest few by projected
gradient on the sphere (``d lambda / d r_k = <v, A_k v>`` for the unit
eigenvector ``v``).  Its cost depends on the block size only through the
eigensolves, so blocks of any size, 1x1 included, are searched alike.

``margin`` is the smallest ``lambda_min(phi(xi xi*))`` the search found,
the two poles ``phi(E_11)`` and ``phi(E_22)`` included.  A
violation is returned with a product vector witness that reproduces a
negative value; "certified" means no violation was found by the search, not
a proof.  Block-positivity of ``[[P, S], [S*, Q]]`` is the same property,
equivalent to ``|<eta, S eta>|^2 <= <eta, P eta> <eta, Q eta>`` on the unit
sphere, and to every admissible combination ``p P + s S + conj(s) S* + q Q``
(``p, q >= 0``, ``|s|^2 <= p q``) being PSD.

Tolerances are constants: ``POSITIVITY_TOL`` decides every margin here (the
search, the structural relations, the coupling bound and the scalar
conditions), ``STRICT_TOL`` a strict coupling bound and ``FACE_TOL`` face
membership.  Diagonal blocks are PSD-checked at ``matkernel.PSD_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .choi import (
    ChoiBlocks,
    ChoiMatrix,
    apply_map,
    assemble_blocks,
    row_abs,
    unital_face_defects,
)
from .exceptions import (
    BadScalarsError,
    NotPSDError,
    NotUnitalFaceFormError,
    SingularBlockError,
)
from .matkernel import (
    PSD_TOL,
    RANK_TOL,
    as_matrix,
    lowest_eigenvalue,
    psd_check,
    psd_sqrt,
    require_hermitian,
)
from .rand import rng_for

CERTIFIED = "certified"
VIOLATION_FOUND = "violation_found"
INCONCLUSIVE = "inconclusive"

#: Margins at or above ``-POSITIVITY_TOL`` count as nonnegative.
POSITIVITY_TOL = 1e-9

#: Margins above this threshold count as strict ("proper") inequalities.
STRICT_TOL = 1e-7

#: Residual below which a vector is accepted as lying in a face kernel.
FACE_TOL = 1e-8

#: Size of the fixed Fibonacci point set every search scans on S^2.  Larger
#: sets cost more than they find at block sizes near 10.
BLOCH_POINTS = 512

#: Lowest scanned points refined by projected gradient, and the step cap.
REFINE_STARTS = 8
REFINE_STEPS = 60


# ---------------------------------------------------------------------------
# the positivity engine: lambda_min of phi(xi xi*) over the Bloch sphere
# ---------------------------------------------------------------------------


def _fibonacci_sphere(m: int) -> np.ndarray:
    """``m`` nearly uniform unit vectors in R^3 on a Fibonacci spiral."""
    k = np.arange(m) + 0.5
    z = 1.0 - 2.0 * k / m
    phase = np.pi * (1.0 + np.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z**2)
    return np.stack([rho * np.cos(phase), rho * np.sin(phase), z], axis=1)


_SPHERE_POINTS = _fibonacci_sphere(BLOCH_POINTS)
_SPHERE_POINTS.setflags(write=False)


def _bloch_matrices(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stack of ``M(r) = A0 + sum_k r_k A_k`` for the rows of ``r``."""
    return A[0] + np.einsum("mk,kij->mij", r, A[1:])


def _bloch_min(P, S, Q, budget: int, seed: int):
    """Smallest ``lambda_min(phi(xi xi*))`` found over unit ``xi`` in C^2.

    Returns ``(value, xi, eta)`` with ``eta`` the unit eigenvector of
    ``phi(xi xi*)`` at ``value``.
    """
    Sh = S.conj().T
    A = np.stack([(P + Q) / 2, (S + Sh) / 2, 1j * (S - Sh) / 2, (P - Q) / 2])
    rng = rng_for(seed, "bloch-sphere")
    extra = rng.standard_normal((max(int(budget), 0), 3))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    points = np.vstack([_SPHERE_POINTS, extra])
    lowest = np.linalg.eigvalsh(_bloch_matrices(A, points))[:, 0]

    r = points[np.argsort(lowest)[:REFINE_STARTS]]
    w, V = np.linalg.eigh(_bloch_matrices(A, r))
    value, eta = w[:, 0], V[:, :, 0]
    step = np.full(r.shape[0], 0.1)
    for _ in range(REFINE_STEPS):
        grad = np.einsum("mi,kij,mj->mk", eta.conj(), A[1:], eta).real
        grad -= np.sum(grad * r, axis=1, keepdims=True) * r
        size = np.linalg.norm(grad, axis=1)
        if not np.any((size > 0.0) & (step > 1e-12)):
            break
        trial = r - (step / np.maximum(size, 1e-300))[:, None] * grad
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        w, V = np.linalg.eigh(_bloch_matrices(A, trial))
        better = w[:, 0] < value
        r[better], value[better], eta[better] = trial[better], w[better, 0], V[better, :, 0]
        step = np.where(better, np.minimum(1.5 * step, 0.5), 0.5 * step)

    k = int(np.argmin(value))
    r1, r2, r3 = r[k]
    rho = np.array([[1 + r3, r1 + 1j * r2], [r1 - 1j * r2, 1 - r3]]) / 2
    xi = np.linalg.eigh(rho)[1][:, -1]
    return float(value[k]), xi, eta[k].copy()


# ---------------------------------------------------------------------------
# block-positivity of [[P, S], [S*, Q]]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPosWitness:
    """Product vector violating block-positivity.

    ``lam`` and ``eta`` give the product vector ``kron(lam, eta)``, whose
    quadratic form ``sum conj(lam_i) lam_j <eta, A_ij eta>`` against the
    Choi matrix is negative.  ``value`` is the determinant-form value
    ``<e,Pe><e,Qe> - |<e,Se>|^2`` at ``eta`` (the smallest eigenvalue of the
    block, for a non-PSD diagonal block).
    """

    eta: np.ndarray
    lam: tuple[complex, complex]
    value: float


@dataclass(frozen=True)
class BlockPosVerdict:
    """Outcome of a block-positivity search.

    ``poles`` holds ``lambda_min(P)`` and then ``lambda_min(Q)``, the values
    at the Bloch sphere's poles; it stops at the first non-PSD block.
    """

    status: str
    margin: float
    witness: BlockPosWitness | None = None
    poles: tuple[float, ...] = ()


class _PoleNotPSD(NotPSDError):
    """A diagonal block is not PSD; ``verdict`` is the violation at that pole."""

    def __init__(self, name: str, verdict: BlockPosVerdict):
        super().__init__(f"{name} is not PSD (min eigenvalue {verdict.margin:.3e})")
        self.verdict = verdict


def block_positive_2x2(P, S, Q, budget: int = 64, seed: int = 0) -> BlockPosVerdict:
    """Search for a violation of block-positivity of ``[[P, S], [S*, Q]]``.

    ``P`` and ``Q`` must be Hermitian PSD (raises :class:`NotPSDError`
    otherwise); they are the images of the Bloch sphere's poles.  The
    positivity engine then scans the fixed point set plus ``budget``
    random points drawn from ``seed`` and refines the lowest.  ``margin``
    is the smallest ``lambda_min(phi(xi xi*))`` found there or at the
    poles, and values below ``-POSITIVITY_TOL`` are violations, returned
    with a product vector witness.
    """
    Pm = require_hermitian(as_matrix(P))
    Qm = require_hermitian(as_matrix(Q))
    Sm = as_matrix(S)
    n = Pm.shape[0]
    if Sm.shape != (n, n) or Qm.shape != (n, n):
        raise NotPSDError("P, S, Q must share one square shape")
    poles: tuple[float, ...] = ()
    for name, M, lam in (("P", Pm, (1.0 + 0j, 0j)), ("Q", Qm, (0j, 1.0 + 0j))):
        v = psd_check(M)
        poles += (v.min_eigenvalue,)
        if not v.is_psd:
            witness = BlockPosWitness(eta=v.witness, lam=lam, value=v.min_eigenvalue)
            verdict = BlockPosVerdict(VIOLATION_FOUND, v.min_eigenvalue, witness, poles)
            raise _PoleNotPSD(name, verdict)

    found, xi, eta = _bloch_min(Pm, Sm, Qm, budget, seed)
    # The poles are points of the sphere too; a face-form map's zero sits at one.
    margin = min(found, *poles)
    if margin >= -POSITIVITY_TOL:
        return BlockPosVerdict(CERTIFIED, margin, None, poles)
    p = float(np.real(np.vdot(eta, Pm @ eta)))
    q = float(np.real(np.vdot(eta, Qm @ eta)))
    s = complex(np.vdot(eta, Sm @ eta))
    lam = (complex(np.conj(xi[0])), complex(np.conj(xi[1])))
    witness = BlockPosWitness(eta=eta, lam=lam, value=p * q - abs(s) ** 2)
    return BlockPosVerdict(VIOLATION_FOUND, margin, witness, poles)


def admissible_combination(P, S, Q, p: float, q: float, s: complex) -> np.ndarray:
    """The matrix ``p P + s S + conj(s) S* + q Q`` for an admissible triple.

    Admissible means ``p, q >= 0`` and ``|s|^2 <= p q``; block-positivity of
    ``[[P, S], [S*, Q]]`` is equivalent to all such combinations being PSD.
    """
    if p < -1e-12 or q < -1e-12:
        raise BadScalarsError(f"p, q must be nonnegative, got p={p}, q={q}")
    if abs(s) ** 2 > p * q + 1e-12 * max(1.0, abs(p * q)):
        raise BadScalarsError(f"|s|^2 = {abs(s)**2:.6e} exceeds p*q = {p * q:.6e}")
    Pm, Sm, Qm = as_matrix(P), as_matrix(S), as_matrix(Q)
    return p * Pm + s * Sm + np.conj(s) * Sm.conj().T + q * Qm


def block_positive_choi(choi: ChoiMatrix, budget: int = 64, seed: int = 0) -> BlockPosVerdict:
    """Block-positivity of a full Choi matrix, i.e. positivity of the map.

    Delegates to :func:`block_positive_2x2` on the blocks
    ``(phi(E_11), phi(E_12), phi(E_22))``, with ``budget`` and ``seed`` as
    there.  A non-PSD diagonal block is an immediate violation (the map is
    already negative at a pole, ``lam = (1, 0)`` or ``(0, 1)``); the blocks
    are PSD-checked once, inside :func:`block_positive_2x2`.
    """
    try:
        return block_positive_2x2(
            choi.block(1, 1), choi.block(1, 2), choi.block(2, 2),
            budget=budget, seed=seed,
        )
    except _PoleNotPSD as exc:
        return exc.verdict


# ---------------------------------------------------------------------------
# structural relations forced on positive face-form maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationCheck:
    passed: bool
    margin: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class FaceStructureReport:
    """Pass/fail record of the structural relations of positive face-form maps."""

    relations: dict[str, RelationCheck] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.relations.values())


def face_structure_report(
    blocks: ChoiBlocks, budget: int = 16, seed: int = 0
) -> FaceStructureReport:
    """Check the relations every positive face-form map must satisfy.

    Reported (never raised): ``a >= 0``; ``B`` and ``U`` PSD; ``C = 0`` when
    ``a = 0``; ``C* C <= a B`` when ``a > 0``; ``x = 0``; and
    block-positivity of ``[[B, T], [T*, U]]``.  ``POSITIVITY_TOL`` decides
    every relation; ``budget`` and ``seed`` go to :func:`block_positive_2x2`
    for the last one.
    """
    rel: dict[str, RelationCheck] = {}
    a = blocks.a
    rel["a_nonnegative"] = RelationCheck(a >= -POSITIVITY_TOL, float(a))
    try:
        verdict = block_positive_2x2(
            blocks.B, blocks.T, blocks.U, budget=budget, seed=seed
        )
        poles = verdict.poles
        block_relation = RelationCheck(
            verdict.status != VIOLATION_FOUND, verdict.margin, verdict.status
        )
    except NotPSDError as exc:
        poles = exc.verdict.poles if isinstance(exc, _PoleNotPSD) else ()
        block_relation = RelationCheck(False, None, str(exc))
    # block_positive_2x2 PSD-checks B and then U, and stops at the first
    # failure; only the blocks it left unchecked are checked here.
    unchecked = (blocks.B, blocks.U)[len(poles):]
    poles += tuple(psd_check(M).min_eigenvalue for M in unchecked)
    rel["B_psd"], rel["U_psd"] = (RelationCheck(m >= -PSD_TOL, m) for m in poles)
    c_norm = float(np.linalg.norm(blocks.C))
    if a <= POSITIVITY_TOL:
        rel["C_zero_when_a_zero"] = RelationCheck(c_norm <= POSITIVITY_TOL, -c_norm)
        rel["C_dominated"] = RelationCheck(True, None, "vacuous at a = 0")
    else:
        rel["C_zero_when_a_zero"] = RelationCheck(True, -c_norm, "vacuous at a > 0")
        gap = a * blocks.B - np.outer(blocks.C.conj(), blocks.C)
        m = lowest_eigenvalue(gap)
        rel["C_dominated"] = RelationCheck(m >= -POSITIVITY_TOL, m)
    rel["x_zero"] = RelationCheck(abs(blocks.x) <= POSITIVITY_TOL, -abs(blocks.x))
    rel["BT_block_positive"] = block_relation
    return FaceStructureReport(rel)


# ---------------------------------------------------------------------------
# positivity of unital face-form maps
# ---------------------------------------------------------------------------


def certify_positivity(
    blocks: ChoiBlocks, budget: int = 64, seed: int = 0
) -> BlockPosVerdict:
    """Positivity test for a unital face-form map (a = 1, C = 0, x = 0).

    Raises :class:`NotUnitalFaceFormError` for other blocks (decided by
    :func:`choi.unital_face_defects`), then runs :func:`block_positive_choi`
    on the assembled Choi matrix with ``budget`` and ``seed`` as there.  The
    map is positive iff for every admissible ``(p, q, s)`` both
    ``p B + s T + conj(s) T* + q U`` and its bordered Schur complement are
    PSD; these are the lower block of ``phi(xi xi*)`` and its Schur
    complement, so the engine decides the same property.  ``phi(E_22) f1 = 0``
    puts every such map on the boundary, so a positive one has ``margin``
    zero up to rounding.
    """
    bad = unital_face_defects(blocks)
    if bad:
        raise NotUnitalFaceFormError(
            "blocks are not in unital face form (need a = 1, C = 0, x = 0): "
            + ", ".join(bad)
        )
    return block_positive_choi(assemble_blocks(blocks), budget=budget, seed=seed)


# ---------------------------------------------------------------------------
# the operator bound on the coupling rows, and the scalar (n = 1) conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingBound:
    """Verdict of the Hermitian-order bound |Y| + |Z| <= sqrt(a) U^{1/2}."""

    holds: bool
    margin: float
    strict: bool


def coupling_bound_check(blocks: ChoiBlocks) -> CouplingBound:
    """Check ``|Y| + |Z| <= a^{1/2} U^{1/2}``, necessary for positivity.

    ``margin`` is the smallest eigenvalue of the difference and holds at
    :data:`POSITIVITY_TOL`; ``strict`` requires it to clear
    :data:`STRICT_TOL`.
    """
    if blocks.a < -POSITIVITY_TOL:
        raise BadScalarsError(f"a must be nonnegative, got {blocks.a}")
    root = np.sqrt(max(blocks.a, 0.0)) * psd_sqrt(blocks.U)
    gap = root - row_abs(blocks.Y) - row_abs(blocks.Z)
    margin = lowest_eigenvalue(gap)
    return CouplingBound(margin >= -POSITIVITY_TOL, margin, margin > STRICT_TOL)


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    margin: float


@dataclass(frozen=True)
class ScalarConditions:
    """The three scalar conditions of the n = 1 (2x2 codomain corner) case."""

    c_bound: ConditionCheck      # |c|^2 <= a b
    t_bound: ConditionCheck      # |t|^2 <= b u
    coupling: ConditionCheck     # |y| + |z| <= sqrt(a u)

    @property
    def all_hold(self) -> bool:
        return self.c_bound.holds and self.t_bound.holds and self.coupling.holds


def scalar_choi_conditions(
    a: float, b: float, u: float, c: complex, y: complex, z: complex, t: complex,
) -> ScalarConditions:
    """Evaluate the scalar necessary conditions with margins at ``POSITIVITY_TOL``."""
    if a < -POSITIVITY_TOL or b < -POSITIVITY_TOL or u < -POSITIVITY_TOL:
        raise BadScalarsError(f"a, b, u must be nonnegative, got {(a, b, u)}")
    m1 = a * b - abs(c) ** 2
    m2 = b * u - abs(t) ** 2
    m3 = np.sqrt(max(a, 0.0) * max(u, 0.0)) - abs(y) - abs(z)
    return ScalarConditions(
        ConditionCheck(m1 >= -POSITIVITY_TOL, float(m1)),
        ConditionCheck(m2 >= -POSITIVITY_TOL, float(m2)),
        ConditionCheck(m3 >= -POSITIVITY_TOL, float(m3)),
    )


# ---------------------------------------------------------------------------
# face membership and the derived block-positive triple
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceMembership:
    member: bool
    residual: float


def face_membership(choi: ChoiMatrix, xi, eta) -> FaceMembership:
    """Test membership in the maximal face {phi : phi(P_xi) eta = 0}.

    ``xi`` (length 2) and ``eta`` (length n+1) are expected unit;
    ``residual = ||phi(P_xi) eta||_2``, and membership means
    ``residual <= FACE_TOL``.
    """
    x = np.asarray(xi, dtype=np.complex128).ravel()
    e = np.asarray(eta, dtype=np.complex128).ravel()
    P = np.outer(x, x.conj())
    out = apply_map(choi, P)
    residual = float(np.linalg.norm(out @ e))
    return FaceMembership(residual <= FACE_TOL, residual)


def positivity_slack_triple(blocks: ChoiBlocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple ``(2B, T, U - Y*Y - Z*Z)`` that positivity forces block-positive.

    Requires ``B`` invertible at ``matkernel.RANK_TOL`` (raises
    :class:`SingularBlockError` otherwise).
    ``|Y|^2`` means the square of the row absolute value, which equals
    ``Y* Y = outer(conj(Y), Y)``.
    """
    lowest = lowest_eigenvalue(blocks.B)
    if lowest <= RANK_TOL:
        raise SingularBlockError(
            f"B has eigenvalue {lowest:.3e} <= rank tolerance {RANK_TOL:.1e}"
        )
    Q = (
        blocks.U
        - np.outer(blocks.Y.conj(), blocks.Y)
        - np.outer(blocks.Z.conj(), blocks.Z)
    )
    return 2.0 * blocks.B, blocks.T.copy(), Q
