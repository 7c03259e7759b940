"""Complete (co)positivity, decomposability certificates, and PPT witnesses.

A map is completely positive iff its Choi matrix is PSD, completely
copositive iff the partially transposed Choi matrix is PSD, and decomposable
iff the Choi matrix splits as ``H = H1 + H2`` with ``H1`` PSD and ``H2``
PSD after partial transposition.

Both questions are answered by one Dykstra projection of ``-H`` onto the
PPT cone ``C1 ∩ C2`` (``C1`` PSD, ``C2`` PSD after partial transpose),
whose polar is ``-(PSD + PT(PSD))`` (Moreau).  Its state is the pair of
Dykstra corrections ``(P1, P2)``, and ``X := -H - P1 - P2``.  Every output of
one plain Dykstra cycle ``G`` has ``-P1`` PSD and ``PT(-P2)`` PSD, whatever
its input, so ``H1 = -P1`` and ``H2 = -P2`` lie in the two cones and
``H1 + H2 - H = X``: the split residual is ``||X||_F``.  While ``X`` is
nonzero, ``rho = X / tr X`` is a candidate PPT state with
``Tr(H rho) = -||X||^2 / tr X`` at the limit.  For face-form ``H`` the cones
only constrain the indices other than ``d = n+1``, so row and column ``d``
of ``H1`` and of ``PT(H2)`` are exactly zero, as any split must have them.

Dykstra's iteration converges sublinearly, so the input of each cycle is
extrapolated by type-II Anderson acceleration (Walker & Ni 2011): the
corrections, stacked as one real vector so that real mixing coefficients
keep them Hermitian, are mixed over the last ``ANDERSON_MEMORY + 1`` outputs
of ``G`` by least squares on their fixed-point residuals ``G(u) - u``
(regularized by ``ANDERSON_REG``).  An extrapolated input is kept only while
its residual does not exceed that of the last kept input.  Otherwise the
memory is cleared and the run goes on from the output of ``G`` already
computed, so a rejection costs no extra projection.  Verdicts are read only from outputs of ``G``, never from an
extrapolated point, so they mean what they mean without acceleration.
``iterations`` counts evaluations of ``G``, each one pair of cone
projections, and ``max_iters`` caps them.

A run stops with ``"split"`` (``||X||_F <= FEAS_TOL / 10``), ``"witness"``
(``rho`` passes the from-scratch state checks with
``Tr(H rho) < -WITNESS_TOL``), ``"plateau"`` (on a plain step, whose input
is the previous output of ``G``, ``X`` moved at most
``PLATEAU_TOL * max(1, ||H||_F)``) or ``"cap"`` (iteration budget spent).
Every verdict carries re-checkable evidence, and a failed search is reported
as "not found", never as a proof.  ``FEAS_TOL`` also bounds a certificate's
cone violations and Kadison-Schwarz margins.  ``choi.STRUCT_TOL`` decides face
form and the vanishing rows of :func:`cp_check` and :func:`ccp_check`, and
``matkernel.PSD_TOL`` their PSD tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choi import (
    STRUCT_TOL,
    ChoiBlocks,
    ChoiMatrix,
    assemble_blocks,
    extract_blocks,
    face_form_offenders,
)
from .exceptions import InvalidCertificateError, NotInFaceFormError
from .matkernel import (
    EIG_CLAMP_TOL,
    RANK_TOL,
    as_matrix,
    frobenius,
    hermitian_norm,
    lowest_eigenvalue,
    partial_transpose,
    psd_check,
    psd_project,
    psd_sqrt,
    require_hermitian,
)

FEAS_TOL = 1e-7
WITNESS_TOL = 1e-6


# ---------------------------------------------------------------------------
# complete positivity / complete copositivity from face-form blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CpVerdict:
    """Outcome of a complete (co)positivity test.

    The structural route (vanishing off-diagonal row plus PSD condensed
    matrix) decides the verdict; the direct spectral test of the full Choi
    matrix (partially transposed for the copositive variant) is recorded
    alongside for cross-validation.  ``factor`` is a PSD square root of the
    condensed matrix when the verdict is positive; ``witness`` is a violating
    unit vector of the condensed matrix otherwise (``None`` when the failure
    is the nonzero row itself, whose norm is ``row_norm``).
    """

    holds: bool
    row_norm: float
    condensed_min_eig: float
    direct_min_eig: float
    factor: np.ndarray | None = None
    witness: np.ndarray | None = None


def _row_and_mid(blocks: ChoiBlocks, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Coupling row and middle block of the ``"cp"`` or ``"ccp"`` condensed matrix."""
    if variant == "cp":
        return blocks.Y, blocks.T
    if variant == "ccp":
        return blocks.Z, blocks.T.conj().T
    raise ValueError(f"variant must be 'cp' or 'ccp', got {variant!r}")


def condensed_matrix(blocks: ChoiBlocks, variant: str) -> np.ndarray:
    """The (2n+1)-square matrix whose positivity characterizes CP or coCP.

    ``variant="cp"`` builds ``[[a, C, Y], [C*, B, T], [Y*, T*, U]]``;
    ``variant="ccp"`` swaps ``Y -> Z`` and ``T -> T*``.
    """
    n = blocks.n
    row, mid = _row_and_mid(blocks, variant)
    K = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.complex128)
    K[0, 0] = blocks.a
    K[0, 1 : n + 1] = blocks.C
    K[1 : n + 1, 0] = blocks.C.conj()
    K[0, n + 1 :] = row
    K[n + 1 :, 0] = row.conj()
    K[1 : n + 1, 1 : n + 1] = blocks.B
    K[1 : n + 1, n + 1 :] = mid
    K[n + 1 :, 1 : n + 1] = mid.conj().T
    K[n + 1 :, n + 1 :] = blocks.U
    return K


def _cp_like_check(blocks: ChoiBlocks, variant: str) -> CpVerdict:
    row = blocks.Z if variant == "cp" else blocks.Y
    row_norm = float(np.linalg.norm(row))
    K = condensed_matrix(blocks, variant)
    kv = psd_check(K)
    H = assemble_blocks(blocks)
    direct = H.H if variant == "cp" else partial_transpose(H.H, H.dim)
    dv = psd_check(direct)
    holds = row_norm <= STRUCT_TOL and kv.is_psd
    factor = psd_sqrt(psd_project(K)) if holds else None
    witness = None if kv.is_psd else kv.witness
    return CpVerdict(
        holds=holds,
        row_norm=row_norm,
        condensed_min_eig=kv.min_eigenvalue,
        direct_min_eig=dv.min_eigenvalue,
        factor=factor,
        witness=witness,
    )


def cp_check(blocks: ChoiBlocks) -> CpVerdict:
    """Complete positivity: Z = 0 and the condensed matrix PSD.

    Equivalently the full Choi matrix is PSD; both routes are computed and
    reported (the structural route decides, the spectral route cross-checks).
    """
    return _cp_like_check(blocks, "cp")


def ccp_check(blocks: ChoiBlocks) -> CpVerdict:
    """Complete copositivity: Y = 0 and the mirrored condensed matrix PSD.

    Cross-validated against the PSD test of the partially transposed Choi
    matrix.
    """
    return _cp_like_check(blocks, "ccp")


@dataclass(frozen=True)
class CondensedRelations:
    """Schur-complement consequences of the condensed matrix being PSD.

    ``t_dominated`` is ``U - T* B^{-1} T >= 0`` (mirrored for the copositive
    variant) and is ``None`` when ``B`` is singular at ``RANK_TOL``;
    ``c_dominated`` is ``a B - C* C >= 0``; ``row_dominated`` is
    ``a U - Y* Y >= 0`` (resp. ``Z``).  Values are minimum eigenvalues, and
    they hold at ``EIG_CLAMP_TOL``.
    """

    t_dominated: float | None
    c_dominated: float
    row_dominated: float
    b_singular: bool

    def all_hold(self) -> bool:
        checks = [self.c_dominated, self.row_dominated]
        if self.t_dominated is not None:
            checks.append(self.t_dominated)
        return all(m >= -EIG_CLAMP_TOL for m in checks)


def condensed_psd_relations(blocks: ChoiBlocks, variant: str = "cp") -> CondensedRelations:
    """Margins of the block inequalities implied by complete (co)positivity."""
    row, mid = _row_and_mid(blocks, variant)
    singular = lowest_eigenvalue(blocks.B) <= RANK_TOL
    t_margin = None
    if not singular:
        X = np.linalg.solve(blocks.B, mid)
        t_margin = lowest_eigenvalue(blocks.U - mid.conj().T @ X)
    c_gap = blocks.a * blocks.B - np.outer(blocks.C.conj(), blocks.C)
    r_gap = blocks.a * blocks.U - np.outer(row.conj(), row)
    return CondensedRelations(
        t_dominated=t_margin,
        c_dominated=lowest_eigenvalue(c_gap),
        row_dominated=lowest_eigenvalue(r_gap),
        b_singular=singular,
    )


# ---------------------------------------------------------------------------
# decomposability: one Dykstra projection of -H onto the PPT cone
# ---------------------------------------------------------------------------

#: An iterate that moves less than this times ``max(1, ||H||_F)`` in one
#: plain cycle has stalled.  Larger values stop decomposable inputs short of the
#: split tolerance.
PLATEAU_TOL = 1e-14

#: Anderson acceleration extrapolates from the last ``ANDERSON_MEMORY + 1``
#: outputs of the Dykstra cycle.
ANDERSON_MEMORY = 5

#: Added to the diagonal of the Gram matrix of the (unit) residual
#: differences, so that the least-squares solve stays defined when they are
#: nearly dependent.
ANDERSON_REG = 1e-10


@dataclass(frozen=True)
class DecompositionCertificate:
    """Feasible split ``H ~ H1 + H2`` with ``H1`` PSD and ``H2^G`` PSD.

    ``residual = ||H1 + H2 - H||_F``; the two minimum eigenvalues quantify
    cone membership of the parts.
    """

    H1: np.ndarray
    H2: np.ndarray
    residual: float
    min_eig_H1: float
    min_eig_H2_pt: float


@dataclass(frozen=True)
class DecomposeResult:
    """Outcome of the split search; ``stop`` is why the projection ended."""

    decomposed: bool
    certificate: DecompositionCertificate | None
    residual: float
    iterations: int
    stop: str


@dataclass(frozen=True)
class WitnessCertificate:
    """PPT state with ``value = Tr(H rho) < 0``, re-validated from scratch."""

    rho: np.ndarray
    value: float


@dataclass(frozen=True)
class WitnessResult:
    found: bool
    certificate: WitnessCertificate | None
    best_value: float


def _is_ppt_state(rho: np.ndarray, d: int) -> bool:
    """Trace one, PSD and PSD after partial transpose, checked from scratch."""
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        return False
    if np.linalg.eigvalsh(require_hermitian(rho, tol=1e-8))[0] < -1e-8:
        return False
    pt = partial_transpose(rho, d)
    return bool(np.linalg.eigvalsh(require_hermitian(pt, tol=1e-8))[0] >= -1e-8)


def _project(
    choi: ChoiMatrix, face: bool, max_iters: int
) -> tuple[DecomposeResult, WitnessResult]:
    """Anderson-accelerated Dykstra projection of ``-H`` onto ``C1 ∩ C2``.

    See the module docstring.  Each iteration evaluates the plain Dykstra
    cycle ``G`` once, at its last output or at an extrapolation of its
    recent outputs, and reads every stop off the new output.  A restricted
    run (``face``) state-checks only candidates below ``-WITNESS_TOL``, so
    its ``best_value`` is not the best over all candidates; ``decompose``
    keeps only its first result.
    """
    H = require_hermitian(choi.H)
    negH = -H
    d = choi.dim
    size = 2 * d
    # Flat positions of S x S, and M.take(swap) == partial_transpose(M, d).
    keep = np.delete(np.arange(size), d)
    inner = (keep[:, None] * size + keep).ravel()
    swap = np.arange(size * size).reshape(2, d, 2, d).transpose(2, 1, 0, 3)
    swap = swap.reshape(size, size)

    def cone_step(A):
        # The projection onto C1 and its Dykstra correction.
        if face:
            Y = A.copy()
            Y.ravel()[inner] = psd_project(A.take(inner).reshape(size - 1, -1)).ravel()
        else:
            Y = psd_project(A)
        return Y, A - Y

    def dykstra(P2):
        # One plain cycle G(P1, P2); it reads only P2, since X + P1 = -H - P2.
        g = np.empty((2, size, size), dtype=np.complex128)
        Y, g[0] = cone_step(negH - P2)
        _, C = cone_step((Y + P2).take(swap))
        g[1] = C.take(swap)
        return g

    stop_tol = FEAS_TOL / 10.0
    plateau_tol = PLATEAU_TOL * max(1.0, frobenius(H))
    # The state u = (P1, P2); its real view is the vector that is mixed.
    u = np.zeros((2, size, size), dtype=np.complex128)
    P1, P2 = u
    X = X_in = negH
    plain = True
    # Anderson memory, a ring of ANDERSON_MEMORY slots: differences of
    # consecutive residuals G(u) - u scaled to unit norm, the matching
    # differences of the outputs of G under the same scale, and the
    # regularized Gram matrix of the former.
    dF = np.empty((ANDERSON_MEMORY, 2 * u.size))
    dG = np.empty_like(dF)
    gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
    pushed, last, accepted = 0, None, np.inf
    best_value, best_rho = np.inf, None
    # decompose keeps only the DecomposeResult of a restricted run, so there
    # the state checks run only on candidates that would stop it.
    check_below = -WITNESS_TOL if face else np.inf
    stop, iterations = "cap", 0
    for iterations in range(1, max_iters + 1):
        g = dykstra(u[1])
        P1, P2 = g
        X = negH - P1 - P2
        if frobenius(X) <= stop_tol:
            stop = "split"
            break
        trace = X.trace().real
        if trace > 0.0:
            rho = X / trace
            value = float(np.vdot(H, rho).real)  # Tr(H rho), as H = H*
            if value < min(best_value, check_below) and _is_ppt_state(rho, d):
                best_value, best_rho = value, rho
                if value < -WITNESS_TOL:
                    stop = "witness"
                    break
        if plain and frobenius(X - X_in) <= plateau_tol:
            stop = "plateau"
            break
        gv = g.reshape(-1).view(np.float64)
        f = gv - u.reshape(-1).view(np.float64)
        r = math.sqrt(f @ f)
        if not plain and r > accepted:
            # Safeguard: drop the memory and go on from the plain output g.
            pushed = 0
        elif last is not None:
            df = f - last[1]
            scale = math.sqrt(df @ df)
            if scale > 0.0:
                slot = pushed % ANDERSON_MEMORY
                pushed += 1
                np.divide(df, scale, out=dF[slot])
                np.divide(gv - last[0], scale, out=dG[slot])
                col = dF[: min(pushed, ANDERSON_MEMORY)] @ dF[slot]
                col[slot] += ANDERSON_REG
                gram[slot, : col.size] = gram[: col.size, slot] = col
        last, accepted, X_in = (gv, f), r, X
        held = min(pushed, ANDERSON_MEMORY)
        plain = held == 0 or r == 0.0
        if plain:
            u = g
        else:
            # gamma minimizes ||f - dF^T gamma|| by the regularized normal
            # equations; unit columns keep the Gram matrix bounded.
            gamma = np.linalg.solve(gram[:held, :held], dF[:held] @ f)
            u = g - (gamma @ dG[:held]).view(np.complex128).reshape(g.shape)
    residual = frobenius(X)
    if stop == "witness":
        witness = WitnessCertificate(best_rho, best_value)
        return (DecomposeResult(False, None, residual, iterations, stop),
                WitnessResult(True, witness, best_value))
    if residual > FEAS_TOL:
        return (DecomposeResult(False, None, residual, iterations, stop),
                WitnessResult(False, None, best_value))
    H1, H2 = -P1, -P2
    cert = DecompositionCertificate(
        H1=H1,
        H2=H2,
        residual=frobenius(H1 + H2 - choi.H),
        min_eig_H1=lowest_eigenvalue(H1),
        min_eig_H2_pt=lowest_eigenvalue(partial_transpose(H2, d)),
    )
    # A split proves Tr(H rho) >= 0 over every PPT state.
    return (DecomposeResult(True, cert, cert.residual, iterations, stop),
            WitnessResult(False, None, 0.0))


def decompose(choi: ChoiMatrix, max_iters: int = 20000) -> DecomposeResult:
    """Search for a completely positive / completely copositive split of H.

    Runs the accelerated projection with the face restriction when ``H`` is
    in face form (:func:`choi.face_form_offenders` finds no offender).  The
    certificate is read from an output of the plain Dykstra cycle, never
    from an extrapolated point.  ``iterations`` counts cycles, each one
    pair of cone projections, up to ``max_iters``.  ``decomposed=False`` is
    a nondecomposability proof only when ``stop`` is ``"witness"``.
    """
    return _project(choi, not face_form_offenders(choi), max_iters)[0]


def validate_certificate(choi: ChoiMatrix, cert: DecompositionCertificate) -> None:
    """Independently re-validate a decomposition certificate.

    Raises :class:`InvalidCertificateError` if the residual or either cone
    membership fails at ``FEAS_TOL``.
    """
    H1 = as_matrix(cert.H1)
    H2 = as_matrix(cert.H2)
    problems = []
    res = frobenius(H1 + H2 - choi.H)
    if res > FEAS_TOL:
        problems.append(f"residual {res:.3e} > {FEAS_TOL:.1e}")
    m1 = float(np.linalg.eigvalsh(require_hermitian(H1, tol=1e-8))[0])
    if m1 < -FEAS_TOL:
        problems.append(f"H1 min eigenvalue {m1:.3e}")
    m2 = float(
        np.linalg.eigvalsh(
            require_hermitian(partial_transpose(H2, choi.dim), tol=1e-8)
        )[0]
    )
    if m2 < -FEAS_TOL:
        problems.append(f"H2 partial-transpose min eigenvalue {m2:.3e}")
    if problems:
        raise InvalidCertificateError("; ".join(problems))


def witness_search(choi: ChoiMatrix, max_iters: int = 20000) -> WitnessResult:
    """Look for a PPT state ``rho`` with ``Tr(H rho) < -WITNESS_TOL``.

    Runs the accelerated projection without the face restriction, for at
    most ``max_iters`` plain Dykstra cycles (pairs of cone projections).
    Every candidate ``rho`` comes from an output of a plain cycle, never
    from an extrapolated point.  ``best_value`` is ``Tr(H rho)`` of the best
    candidate that passed the from-scratch PPT checks (``inf`` when none
    did), and ``0.0`` when the run found a split.  ``found=False`` is not a
    decomposability proof.
    """
    return _project(choi, False, max_iters)[1]


#: :func:`ppt_project` stops after ``PPT_CYCLES`` cycles, or earlier once a
#: cycle moves its iterate by at most ``PPT_STEP_TOL``.
PPT_STEP_TOL = 1e-10
PPT_CYCLES = 200


def ppt_project(X, block_dim: int) -> np.ndarray:
    """Dykstra projection onto the PPT states (PSD, PT-PSD, trace one)."""
    M = require_hermitian(as_matrix(X), tol=np.inf)
    size = M.shape[0]
    P1 = np.zeros_like(M)
    P2 = np.zeros_like(M)
    for _ in range(PPT_CYCLES):
        prev = M
        A1 = M + P1
        M = psd_project(A1)
        P1 = A1 - M
        A2 = M + P2
        M = partial_transpose(psd_project(partial_transpose(A2, block_dim)), block_dim)
        P2 = A2 - M
        M = M + (1.0 - np.trace(M).real) / size * np.eye(size)
        if frobenius(M - prev) <= PPT_STEP_TOL:
            break
    return M


# ---------------------------------------------------------------------------
# Kadison-Schwarz constraints on genuine decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KadisonReport:
    """Margins of the Schwarz-type constraints a genuine split must satisfy.

    ``entry_margins[(i, j)]`` is the minimum eigenvalue of
    ``||phi(I)|| (phi1(E_jj) + phi2(E_ii)) - phi(E_ij)* phi(E_ij)``;
    ``block_margins`` repeats the two off-diagonal constraints assembled from
    the named face-form blocks (present only for face-form inputs).
    """

    norm_phi_identity: float
    entry_margins: dict[tuple[int, int], float]
    block_margins: dict[str, float]

    def all_pass(self) -> bool:
        """Every margin is at least ``-FEAS_TOL``, the certificate's error."""
        vals = list(self.entry_margins.values()) + list(self.block_margins.values())
        return all(v >= -FEAS_TOL for v in vals)


def _positional_blocks(M: np.ndarray, d: int):
    return {
        (i, j): M[(i - 1) * d : i * d, (j - 1) * d : j * d]
        for i in (1, 2)
        for j in (1, 2)
    }


def kadison_constraints(choi: ChoiMatrix, cert: DecompositionCertificate) -> KadisonReport:
    """Evaluate the Schwarz constraints of a decomposition certificate.

    The certificate is re-validated first (:class:`InvalidCertificateError`
    on failure).  For every pair ``(i, j)`` the Schwarz inequality for the
    split map bounds ``phi(E_ij)* phi(E_ij)`` by
    ``||phi(I)|| (phi1(E_jj) + phi2(E_ii))``; margins must be nonnegative up
    to the certificate's feasibility error.  For face-form inputs the two
    off-diagonal constraints are additionally assembled from the named blocks
    ``(Y, Z, T, ...)`` of ``H`` and of the certificate parts.
    """
    validate_certificate(choi, cert)
    d = choi.dim
    H = _positional_blocks(choi.H, d)
    H1 = _positional_blocks(as_matrix(cert.H1), d)
    H2 = _positional_blocks(as_matrix(cert.H2), d)
    norm = hermitian_norm(H[(1, 1)] + H[(2, 2)])
    entry = {}
    for i in (1, 2):
        for j in (1, 2):
            L = H[(i, j)].conj().T @ H[(i, j)]
            R = norm * (H1[(j, j)] + H2[(i, i)])
            entry[(i, j)] = lowest_eigenvalue(R - L)

    block = {}
    try:
        blocks = extract_blocks(choi)
    except NotInFaceFormError:
        blocks = None
    if blocks is not None:
        n = blocks.n
        Y, Z, T = blocks.Y, blocks.Z, blocks.T
        a1 = float(H1[(1, 1)][0, 0].real)
        C1 = H1[(1, 1)][0, 1:]
        B1 = H1[(1, 1)][1:, 1:]
        U1 = H1[(2, 2)][1:, 1:]
        a2 = float(H2[(1, 1)][0, 0].real)
        C2 = H2[(1, 1)][0, 1:]
        B2 = H2[(1, 1)][1:, 1:]
        U2 = H2[(2, 2)][1:, 1:]

        def bordered(scalar, row, mat):
            M = np.zeros((n + 1, n + 1), dtype=np.complex128)
            M[0, 0] = scalar
            M[0, 1:] = row
            M[1:, 0] = np.conj(row)
            M[1:, 1:] = mat
            return M

        lhs12 = bordered(
            np.linalg.norm(Z) ** 2, Z @ T, np.outer(Y.conj(), Y) + T.conj().T @ T
        )
        rhs12 = norm * bordered(a2, C2, B2 + U1)
        lhs21 = bordered(
            np.linalg.norm(Y) ** 2,
            Y @ T.conj().T,
            np.outer(Z.conj(), Z) + T @ T.conj().T,
        )
        rhs21 = norm * bordered(a1, C1, B1 + U2)
        block["offdiag_12"] = lowest_eigenvalue(rhs12 - lhs12)
        block["offdiag_21"] = lowest_eigenvalue(rhs21 - lhs21)
    return KadisonReport(norm, entry, block)
