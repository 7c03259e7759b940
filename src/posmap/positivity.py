"""Positivity criteria for maps given by Choi matrices.

A map phi on 2x2 matrices is positive exactly when ``phi(xi xi*)`` is PSD for
every unit ``xi`` in C^2.  With the Choi blocks ``P = phi(E_11)``,
``S = phi(E_12)`` and ``Q = phi(E_22)``, the image of the rank-one projector
with Bloch vector ``r`` on the unit sphere S^2 is

    M(r) = A0 + r1 A1 + r2 A2 + r3 A3,
    A0 = (P + Q)/2,  A1 = (S + S*)/2,  A2 = i(S - S*)/2,  A3 = (P - Q)/2,

where ``r = (2 Re xi1 conj(xi2), 2 Im xi1 conj(xi2), |xi1|^2 - |xi2|^2)``.
One engine answers every positivity question in this module: it takes
``lambda_min(M(r))`` over a fixed point set on S^2 plus seeded random points,
then refines the lowest few by alternating minimization of
``<eta, M(r) eta>`` over ``r`` and the unit ``eta``.  The scan runs in two
batched eigensolves.  The first takes a coarse subset: every
``COARSE_STRIDE``-th fixed point and all seeded ones.  By Weyl's inequality
``r -> lambda_min(M(r))`` is Lipschitz on R^3 with
``L = (sum_k ||A_k||_2^2)^(1/2)``, so the second takes only the fixed points
whose bound ``lambda(nearest coarse point) - L * distance``, less a rounding
slack of ``PRUNE_SLACK`` times the largest coarse eigenvalue plus ``L``, does
not exceed the ``REFINE_STARTS``-th lowest coarse value.  A skipped point
therefore lies strictly above the values the refinement starts from, and the
starts (ordered by value, then by point index) are those a scan of every
point would pick.  With
``eta`` fixed the form is ``a + r.b`` with ``b_k = <eta, A_k eta>``, which is
smallest on S^2 at ``r = -b/|b|``; with ``r`` fixed it is smallest at the
unit eigenvector of ``lambda_min(M(r))``.  A step never raises
``lambda_min``, since ``lambda_min(M(-b/|b|)) <= a - |b| <= a + r.b``.  Its
cost depends on the block size only through the eigensolves, so blocks of
any size, 1x1 included, are searched alike.

``margin`` is the smallest ``lambda_min(phi(xi xi*))`` the search found,
the two poles ``phi(E_11)`` and ``phi(E_22)`` included.  A
violation is returned with a product vector witness that reproduces a
negative value; "certified" means no violation was found by the search, not
a proof.  The search never returns ``PROVED``: that status is a positivity
proof read off a validated CP + coCP split, since a decomposable map is
positive (``cli.build_classification``).  Block-positivity of
``[[P, S], [S*, Q]]`` is the same property, equivalent to
``|<eta, S eta>|^2 <= <eta, P eta> <eta, Q eta>`` on the unit sphere, and to
every admissible combination ``p P + s S + conj(s) S* + q Q``
(``p, q >= 0``, ``|s|^2 <= p q``) being PSD.

Tolerances are constants.  ``matkernel.PSD_TOL`` decides every
nonnegativity verdict here, as it does the CP and coCP flags and the
acceptance of a split: the search's margin, the structural relations, the
PSD checks of diagonal blocks, the coupling bound and the scalar
conditions.  ``STRICT_TOL`` decides a strict coupling bound and
``FACE_TOL`` face membership.
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
    DimensionMismatchError,
    NotUnitalFaceFormError,
    SingularMatrixError,
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
PROVED = "proved"
VIOLATION_FOUND = "violation_found"

#: Margins above this threshold count as strict ("proper") inequalities.
STRICT_TOL = 1e-7

#: Residual below which a vector is accepted as lying in a face kernel.
FACE_TOL = 1e-8

#: Size of the fixed Fibonacci point set every search scans on S^2.  Larger
#: sets cost more than they find at block sizes near 10.
BLOCH_POINTS = 512

#: Lowest scanned points refined by the alternating step, and a cap on the
#: steps; the refinement stops earlier once no start improves.
REFINE_STARTS = 8
REFINE_STEPS = 60

#: Every ``COARSE_STRIDE``-th fixed point is scanned in the first batch; the
#: rest only where the Lipschitz bound of :func:`_bloch_min` cannot rule
#: them out.
COARSE_STRIDE = 8

#: Rounding allowance of that bound, relative to the largest coarse
#: eigenvalue and the Lipschitz constant: far above the few units in the last
#: place by which formed matrices and computed eigenvalues can err.
PRUNE_SLACK = 1e-12


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


def _coarse_cover(points: np.ndarray, stride: int):
    """The coarse points (every ``stride``-th), the fine points (the others),
    and each fine point's nearest coarse point, all as indices into the unit
    vectors ``points``, with each fine point's distance to that neighbour."""
    index = np.arange(len(points))
    coarse, fine = index[index % stride == 0], index[index % stride != 0]
    # On the unit sphere the nearest point has the largest inner product.
    nearest = coarse[np.argmax(points[fine] @ points[coarse].T, axis=1)]
    return coarse, fine, nearest, np.linalg.norm(points[fine] - points[nearest], axis=1)


_SPHERE_POINTS = _fibonacci_sphere(BLOCH_POINTS)
_COARSE, _FINE, _NEAREST, _NEAREST_DIST = _coarse_cover(_SPHERE_POINTS, COARSE_STRIDE)
for _fixed in (_SPHERE_POINTS, _COARSE, _FINE, _NEAREST, _NEAREST_DIST):
    _fixed.setflags(write=False)


def _bloch_matrices(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stack of ``M(r) = A0 + sum_k r_k A_k`` for the rows of ``r``."""
    r = r[:, :, None, None]
    return A[0] + (r[:, 0] * A[1] + r[:, 1] * A[2] + r[:, 2] * A[3])


def _bloch_min(P, S, Q, budget: int, seed: int):
    """Smallest ``lambda_min(phi(xi xi*))`` found over unit ``xi`` in C^2.

    Scans the fixed point set and ``budget`` points drawn from ``seed`` in
    two batches, then refines the ``REFINE_STARTS`` lowest together.  The
    first batch is the coarse points, every ``COARSE_STRIDE``-th fixed point
    and all seeded ones.  By Weyl's inequality ``r -> lambda_min(M(r))`` is
    Lipschitz with ``L = (sum_k ||A_k||_2^2)^(1/2)`` in the Euclidean
    distance of R^3, so a fine point at distance ``delta`` from its nearest
    coarse point ``c`` has a value of at least ``lambda(c) - L delta``.  The
    second batch holds the fine points where that bound, less the slack
    ``PRUNE_SLACK * (max |coarse eigenvalue| + L)``, is at most the
    ``REFINE_STARTS``-th lowest coarse value.  A skipped point lies strictly
    above that value, so strictly above the ``REFINE_STARTS``-th lowest of
    the full scan: the starts, the lowest values ordered by value and then by
    point index, are those a scan of every point would pick.

    Each step moves every start from ``r`` to ``-b/|b|``, with
    ``b_k = <eta, A_k eta>`` at its unit eigenvector ``eta``, and keeps the
    move where ``lambda_min`` fell.  That minimizes ``<eta, M(r) eta>`` over
    S^2, so ``lambda_min`` at the new point is at most its value at ``r``.
    The refinement stops when no start improves (``"converged"``), or after
    ``REFINE_STEPS`` steps (``"cap"``).

    Returns ``(value, xi, eta, refine)`` with ``eta`` the unit eigenvector of
    ``phi(xi xi*)`` at ``value`` and ``refine`` the :class:`Refinement` that
    records the steps run and why they stopped.
    """
    Sh = S.conj().T
    A = np.stack([(P + Q) / 2, (S + Sh) / 2, 1j * (S - Sh) / 2, (P - Q) / 2])
    Ak = A[1:]
    rng = rng_for(seed, "bloch-sphere")
    extra = rng.standard_normal((max(int(budget), 0), 3))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    points = np.vstack([_SPHERE_POINTS, extra])

    first = np.concatenate([_COARSE, np.arange(BLOCH_POINTS, len(points))])
    w = np.linalg.eigvalsh(_bloch_matrices(A, points[first]))
    lowest = np.full(len(points), np.inf)
    lowest[first] = w[:, 0]
    cut = np.partition(w[:, 0], REFINE_STARTS - 1)[REFINE_STARTS - 1]
    # ||A_k||_2 is the largest |eigenvalue| of the Hermitian A_k.
    norms = np.abs(np.linalg.eigvalsh(Ak)).max(axis=1)
    lipschitz = float(np.sqrt(norms @ norms))
    slack = PRUNE_SLACK * (float(np.abs(w).max()) + lipschitz)
    second = _FINE[lowest[_NEAREST] - lipschitz * _NEAREST_DIST - slack <= cut]
    lowest[second] = np.linalg.eigvalsh(_bloch_matrices(A, points[second]))[:, 0]

    r = points[np.argsort(lowest, kind="stable")[:REFINE_STARTS]]
    w, V = np.linalg.eigh(_bloch_matrices(A, r))
    value, eta = w[:, 0], V[:, :, 0]
    steps, stop = 0, "cap"
    for steps in range(1, REFINE_STEPS + 1):
        b = np.einsum("mi,kij,mj->mk", eta.conj(), Ak, eta).real
        size = np.sqrt(np.add.reduce(b * b, axis=1, keepdims=True))
        # b = 0 leaves no direction to take (M(0) = A0 is not on S^2): stay.
        trial = np.divide(b, -size, out=r.copy(), where=size > 0.0)
        w, V = np.linalg.eigh(_bloch_matrices(A, trial))
        low = w[:, 0]
        better = low < value
        if not better.any():
            stop = "converged"
            break
        if better.all():
            # Every start moves: take the step's arrays as they are.
            r, value, eta = trial, low, V[:, :, 0]
        else:
            np.copyto(r, trial, where=better[:, None])
            np.copyto(value, low, where=better)
            np.copyto(eta, V[:, :, 0], where=better[:, None])

    k = int(np.argmin(value))
    r1, r2, r3 = r[k]
    rho = np.array([[1 + r3, r1 + 1j * r2], [r1 - 1j * r2, 1 - r3]]) / 2
    xi = np.linalg.eigh(rho)[1][:, -1]
    return float(value[k]), xi, eta[k].copy(), Refinement(steps, stop)


# ---------------------------------------------------------------------------
# block-positivity of [[P, S], [S*, Q]]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPosWitness:
    """Product vector violating block-positivity.

    ``lam`` and ``eta`` give the product vector ``kron(lam, eta)``, whose
    quadratic form ``sum conj(lam_i) lam_j <eta, A_ij eta>`` against the
    Choi matrix reproduces the verdict's negative ``margin``.
    """

    eta: np.ndarray
    lam: tuple[complex, complex]


@dataclass(frozen=True)
class Refinement:
    """How the engine's alternating refinement ended.

    ``steps`` counts the steps run, one batched eigensolve each; ``stop`` is
    ``"converged"`` when the last of them improved no start, and ``"cap"``
    when ``REFINE_STEPS`` steps ran.
    """

    steps: int
    stop: str


@dataclass(frozen=True)
class BlockPosVerdict:
    """Outcome of a block-positivity search.

    ``poles`` is always ``(lambda_min(P), lambda_min(Q))``, the values at
    the Bloch sphere's poles, and ``margin`` is at most both.  ``refine`` is
    the engine's :class:`Refinement`, or None when a non-PSD pole decided the
    verdict and the engine did not run.
    """

    status: str
    margin: float
    witness: BlockPosWitness | None
    poles: tuple[float, float]
    refine: Refinement | None = None


#: ``lam`` of the product vectors at the poles ``phi(E_11)`` and ``phi(E_22)``.
_POLE_LAMS = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def block_positive_2x2(P, S, Q, budget: int = 64, seed: int = 0) -> BlockPosVerdict:
    """Search for a violation of block-positivity of ``[[P, S], [S*, Q]]``.

    ``P`` and ``Q``, the images of the Bloch sphere's poles, are both
    PSD-checked first.  When the lower of the two is not PSD, that is the
    violation, returned at once (no exception) with ``margin`` its smallest
    eigenvalue, ``lam = (1, 0)`` for ``P`` or ``(0, 1)`` for ``Q`` (``P``
    on a tie) and the block's lowest eigenvector as ``eta``.  Otherwise the
    positivity engine scans the fixed point set plus ``budget`` random
    points drawn from ``seed`` and refines the lowest by its alternating
    step, which never raises ``lambda_min`` and stops once no start improves
    (at most ``REFINE_STEPS`` steps; ``refine`` records the steps and the
    stop).  ``margin`` is the smallest ``lambda_min(phi(xi xi*))`` found
    there or at the poles, and values below ``-PSD_TOL`` are violations,
    returned with a product vector witness.  ``P``, ``S`` and ``Q`` of different shapes raise
    :class:`DimensionMismatchError`.
    """
    Pm = require_hermitian(as_matrix(P))
    Qm = require_hermitian(as_matrix(Q))
    Sm = as_matrix(S)
    n = Pm.shape[0]
    if Sm.shape != (n, n) or Qm.shape != (n, n):
        raise DimensionMismatchError("P, S, Q must share one square shape")
    checks = (psd_check(Pm), psd_check(Qm))
    poles = tuple(v.min_eigenvalue for v in checks)
    low = int(poles[1] < poles[0])
    if not checks[low].is_psd:
        witness = BlockPosWitness(eta=checks[low].witness, lam=_POLE_LAMS[low])
        return BlockPosVerdict(VIOLATION_FOUND, poles[low], witness, poles)

    found, xi, eta, refine = _bloch_min(Pm, Sm, Qm, budget, seed)
    # The poles are points of the sphere too; a face-form map's zero sits at one.
    margin = min(found, *poles)
    if margin >= -PSD_TOL:
        return BlockPosVerdict(CERTIFIED, margin, None, poles, refine)
    lam = (complex(np.conj(xi[0])), complex(np.conj(xi[1])))
    witness = BlockPosWitness(eta, lam)
    return BlockPosVerdict(VIOLATION_FOUND, margin, witness, poles, refine)


def admissible_combination(P, S, Q, p: float, q: float, s: complex) -> np.ndarray:
    """The matrix ``p P + s S + conj(s) S* + q Q`` for an admissible triple.

    Admissible means ``p, q >= 0`` and ``|s|^2 <= p q``; block-positivity of
    ``[[P, S], [S*, Q]]`` is equivalent to all such combinations being PSD.
    Scalars that are not finite or not admissible raise
    :class:`BadScalarsError`, and ``P``, ``S`` and ``Q`` that do not share one
    square shape :class:`DimensionMismatchError`.
    """
    if not np.isfinite([p, q, s]).all():
        raise BadScalarsError(f"p, q, s must be finite, got p={p}, q={q}, s={s}")
    if p < -1e-12 or q < -1e-12:
        raise BadScalarsError(f"p, q must be nonnegative, got p={p}, q={q}")
    if abs(s) ** 2 > p * q + 1e-12 * max(1.0, abs(p * q)):
        raise BadScalarsError(f"|s|^2 = {abs(s)**2:.6e} exceeds p*q = {p * q:.6e}")
    Pm, Sm, Qm = as_matrix(P), as_matrix(S), as_matrix(Q)
    n = Pm.shape[0]
    if any(m.shape != (n, n) for m in (Pm, Sm, Qm)):
        raise DimensionMismatchError("P, S, Q must share one square shape")
    return p * Pm + s * Sm + np.conj(s) * Sm.conj().T + q * Qm


def block_positive_choi(choi: ChoiMatrix, budget: int = 64, seed: int = 0) -> BlockPosVerdict:
    """Block-positivity of a full Choi matrix, i.e. positivity of the map.

    Delegates to :func:`block_positive_2x2` on the blocks
    ``(phi(E_11), phi(E_12), phi(E_22))``, with ``budget`` and ``seed`` as
    there.  A non-PSD diagonal block is an immediate violation (the map is
    already negative at a pole), reported at the lower pole, ``lam = (1, 0)``
    or ``(0, 1)``; the blocks are PSD-checked once, inside
    :func:`block_positive_2x2`.
    """
    return block_positive_2x2(
        choi.block(1, 1), choi.block(1, 2), choi.block(2, 2), budget=budget, seed=seed
    )


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
    block-positivity of ``[[B, T], [T*, U]]``.  ``PSD_TOL`` decides
    every relation; ``budget`` and ``seed`` go to :func:`block_positive_2x2`
    for the last one.
    """
    rel: dict[str, RelationCheck] = {}
    a = blocks.a
    rel["a_nonnegative"] = RelationCheck(a >= -PSD_TOL, float(a))
    verdict = block_positive_2x2(blocks.B, blocks.T, blocks.U, budget=budget, seed=seed)
    rel["B_psd"], rel["U_psd"] = (RelationCheck(m >= -PSD_TOL, m) for m in verdict.poles)
    c_norm = float(np.linalg.norm(blocks.C))
    if a <= PSD_TOL:
        rel["C_zero_when_a_zero"] = RelationCheck(c_norm <= PSD_TOL, -c_norm)
        rel["C_dominated"] = RelationCheck(True, None, "vacuous at a = 0")
    else:
        rel["C_zero_when_a_zero"] = RelationCheck(True, -c_norm, "vacuous at a > 0")
        gap = a * blocks.B - np.outer(blocks.C.conj(), blocks.C)
        m = lowest_eigenvalue(gap)
        rel["C_dominated"] = RelationCheck(m >= -PSD_TOL, m)
    rel["x_zero"] = RelationCheck(abs(blocks.x) <= PSD_TOL, -abs(blocks.x))
    rel["BT_block_positive"] = RelationCheck(
        verdict.status != VIOLATION_FOUND, verdict.margin, verdict.status
    )
    return FaceStructureReport(rel)


# ---------------------------------------------------------------------------
# positivity of unital face-form maps
# ---------------------------------------------------------------------------


def certify_positivity(
    blocks: ChoiBlocks, budget: int = 64, seed: int = 0
) -> BlockPosVerdict:
    """Positivity test for a unital face-form map (a = 1, C = 0, x = 0, B + U = I).

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
            "blocks are not in unital face form (need a = 1, C = 0, x = 0, "
            "B + U = I): "
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
    :data:`PSD_TOL`; ``strict`` requires it to clear
    :data:`STRICT_TOL`.
    """
    if blocks.a < -PSD_TOL:
        raise BadScalarsError(f"a must be nonnegative, got {blocks.a}")
    root = np.sqrt(max(blocks.a, 0.0)) * psd_sqrt(blocks.U)
    gap = root - row_abs(blocks.Y) - row_abs(blocks.Z)
    margin = lowest_eigenvalue(gap)
    return CouplingBound(margin >= -PSD_TOL, margin, margin > STRICT_TOL)


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
    """Evaluate the scalar necessary conditions with margins at ``PSD_TOL``.

    Scalars that are not finite, or a negative ``a``, ``b`` or ``u``, raise
    :class:`BadScalarsError`.
    """
    if not np.isfinite([a, b, u, c, y, z, t]).all():
        raise BadScalarsError(f"scalars must be finite, got {(a, b, u, c, y, z, t)}")
    if a < -PSD_TOL or b < -PSD_TOL or u < -PSD_TOL:
        raise BadScalarsError(f"a, b, u must be nonnegative, got {(a, b, u)}")
    m1 = a * b - abs(c) ** 2
    m2 = b * u - abs(t) ** 2
    m3 = np.sqrt(max(a, 0.0) * max(u, 0.0)) - abs(y) - abs(z)
    return ScalarConditions(
        ConditionCheck(m1 >= -PSD_TOL, float(m1)),
        ConditionCheck(m2 >= -PSD_TOL, float(m2)),
        ConditionCheck(m3 >= -PSD_TOL, float(m3)),
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

    ``xi`` (length 2) and ``eta`` (length n+1) are expected unit; another
    length raises :class:`DimensionMismatchError`.
    ``residual = ||phi(P_xi) eta||_2``, and membership means
    ``residual <= FACE_TOL``.
    """
    x = np.asarray(xi, dtype=np.complex128).ravel()
    e = np.asarray(eta, dtype=np.complex128).ravel()
    if e.shape[0] != choi.dim:
        raise DimensionMismatchError(f"eta must have length {choi.dim}, got {e.shape[0]}")
    P = np.outer(x, x.conj())
    out = apply_map(choi, P)
    residual = float(np.linalg.norm(out @ e))
    return FaceMembership(residual <= FACE_TOL, residual)


def positivity_slack_triple(blocks: ChoiBlocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple ``(2B, T, U - Y*Y - Z*Z)`` that positivity forces block-positive.

    Requires ``B`` invertible at ``matkernel.RANK_TOL`` (raises
    :class:`SingularMatrixError` otherwise).
    ``|Y|^2`` means the square of the row absolute value, which equals
    ``Y* Y = outer(conj(Y), Y)``.
    """
    lowest = lowest_eigenvalue(blocks.B)
    if lowest <= RANK_TOL:
        raise SingularMatrixError(
            f"B has eigenvalue {lowest:.3e} <= rank tolerance {RANK_TOL:.1e}"
        )
    Q = (
        blocks.U
        - np.outer(blocks.Y.conj(), blocks.Y)
        - np.outer(blocks.Z.conj(), blocks.Z)
    )
    return 2.0 * blocks.B, blocks.T.copy(), Q
