"""Complete (co)positivity, decomposability certificates, and PPT witnesses.

A map is completely positive iff its Choi matrix is PSD, completely
copositive iff the partially transposed Choi matrix is PSD, and decomposable
iff the Choi matrix splits as ``H = H1 + H2`` with ``H1`` PSD and ``H2``
PSD after partial transposition.

Both questions are answered by one Dykstra projection of ``-H`` onto the
PPT cone ``C1 ∩ C2`` (``C1`` PSD, ``C2`` PSD after partial transpose),
whose polar is ``-(PSD + PT(PSD))`` (Moreau).  The run keeps
``-H = X + P1 + P2`` exactly, so ``H1 = -P1`` and ``H2 = -P2`` lie in the
two cones and ``H1 + H2 - H = X``: the split residual is ``||X||_F``.  While
``X`` is nonzero, ``rho = X / tr X`` is a candidate PPT state with
``Tr(H rho) = -||X||^2 / tr X`` at the limit.  For face-form ``H`` the cones
only constrain the indices other than ``d = n+1``, so row and column ``d``
of ``H1`` and of ``PT(H2)`` are exactly zero, as any split must have them.
A run stops with ``"split"`` (``||X||_F <= feas_tol / 10``), ``"witness"``
(``rho`` passes the from-scratch state checks with
``Tr(H rho) < -witness_tol``), ``"plateau"`` (the iterate stopped moving) or
``"cap"`` (iteration budget spent).  Every verdict carries re-checkable
evidence, and a failed search is reported as "not found", never as a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import ChoiBlocks, ChoiMatrix, assemble_blocks
from .exceptions import InvalidCertificateError, SingularBlockError
from .matkernel import (
    as_matrix,
    frobenius,
    hermitian_norm,
    partial_transpose,
    psd_check,
    psd_project,
    psd_sqrt,
    require_hermitian,
)

FEAS_TOL = 1e-7
WITNESS_TOL = 1e-6

#: Structural tolerance deciding whether an off-diagonal row counts as zero.
ZERO_ROW_TOL = 1e-9


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


def condensed_matrix(blocks: ChoiBlocks, variant: str) -> np.ndarray:
    """The (2n+1)-square matrix whose positivity characterizes CP or coCP.

    ``variant="cp"`` builds ``[[a, C, Y], [C*, B, T], [Y*, T*, U]]``;
    ``variant="ccp"`` swaps ``Y -> Z`` and ``T -> T*``.
    """
    n = blocks.n
    if variant == "cp":
        row, mid = blocks.Y, blocks.T
    elif variant == "ccp":
        row, mid = blocks.Z, blocks.T.conj().T
    else:
        raise ValueError(f"variant must be 'cp' or 'ccp', got {variant!r}")
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


def _cp_like_check(blocks: ChoiBlocks, variant: str, tol: float,
                   struct_tol: float) -> CpVerdict:
    row = blocks.Z if variant == "cp" else blocks.Y
    row_norm = float(np.linalg.norm(row))
    K = condensed_matrix(blocks, variant)
    kv = psd_check(K, tol=tol)
    H = assemble_blocks(blocks)
    direct = H.H if variant == "cp" else partial_transpose(H.H, H.dim)
    dv = psd_check(direct, tol=tol)
    holds = row_norm <= struct_tol and kv.is_psd
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


def cp_check(blocks: ChoiBlocks, tol: float = 1e-9,
             struct_tol: float = ZERO_ROW_TOL) -> CpVerdict:
    """Complete positivity: Z = 0 and the condensed matrix PSD.

    Equivalently the full Choi matrix is PSD; both routes are computed and
    reported (the structural route decides, the spectral route cross-checks).
    """
    return _cp_like_check(blocks, "cp", tol, struct_tol)


def ccp_check(blocks: ChoiBlocks, tol: float = 1e-9,
              struct_tol: float = ZERO_ROW_TOL) -> CpVerdict:
    """Complete copositivity: Y = 0 and the mirrored condensed matrix PSD.

    Cross-validated against the PSD test of the partially transposed Choi
    matrix.
    """
    return _cp_like_check(blocks, "ccp", tol, struct_tol)


@dataclass(frozen=True)
class CondensedRelations:
    """Schur-complement consequences of the condensed matrix being PSD.

    ``t_dominated`` is ``U - T* B^{-1} T >= 0`` (mirrored for the copositive
    variant) and is ``None`` when ``B`` is singular at ``rank_tol``;
    ``c_dominated`` is ``a B - C* C >= 0``; ``row_dominated`` is
    ``a U - Y* Y >= 0`` (resp. ``Z``).  Values are minimum eigenvalues.
    """

    t_dominated: float | None
    c_dominated: float
    row_dominated: float
    b_singular: bool

    def all_hold(self, tol: float = 1e-10) -> bool:
        checks = [self.c_dominated, self.row_dominated]
        if self.t_dominated is not None:
            checks.append(self.t_dominated)
        return all(m >= -tol for m in checks)


def condensed_psd_relations(
    blocks: ChoiBlocks, variant: str = "cp", rank_tol: float = 1e-10
) -> CondensedRelations:
    """Margins of the block inequalities implied by complete (co)positivity."""
    if variant == "cp":
        row, mid = blocks.Y, blocks.T
    elif variant == "ccp":
        row, mid = blocks.Z, blocks.T.conj().T
    else:
        raise ValueError(f"variant must be 'cp' or 'ccp', got {variant!r}")
    evals = np.linalg.eigvalsh(require_hermitian(blocks.B, tol=np.inf))
    if evals[0] <= rank_tol:
        t_margin = None
        singular = True
    else:
        X = np.linalg.solve(blocks.B, mid)
        gap = blocks.U - mid.conj().T @ X
        t_margin = float(np.linalg.eigvalsh(require_hermitian(gap, tol=np.inf))[0])
        singular = False
    c_gap = blocks.a * blocks.B - np.outer(blocks.C.conj(), blocks.C)
    r_gap = blocks.a * blocks.U - np.outer(row.conj(), row)
    return CondensedRelations(
        t_dominated=t_margin,
        c_dominated=float(np.linalg.eigvalsh(require_hermitian(c_gap, tol=np.inf))[0]),
        row_dominated=float(np.linalg.eigvalsh(require_hermitian(r_gap, tol=np.inf))[0]),
        b_singular=singular,
    )


# ---------------------------------------------------------------------------
# decomposability: one Dykstra projection of -H onto the PPT cone
# ---------------------------------------------------------------------------

#: An iterate that moves less than this times ``max(1, ||H||_F)`` in one
#: cycle has stalled.  Larger values stop decomposable inputs short of the
#: split tolerance.
PLATEAU_TOL = 1e-14


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


def _in_face_form(choi: ChoiMatrix, struct_tol: float) -> bool:
    """Whether ``H`` carries the face-form zeros at index ``d = n+1``."""
    Q = choi.block(2, 2)
    return bool(
        abs(choi.H[0, choi.dim]) <= struct_tol
        and np.max(np.abs(Q[0, :])) <= struct_tol
        and np.max(np.abs(Q[:, 0])) <= struct_tol
    )


def _is_ppt_state(rho: np.ndarray, d: int) -> bool:
    """Trace one, PSD and PSD after partial transpose, checked from scratch."""
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        return False
    if np.linalg.eigvalsh(require_hermitian(rho, tol=1e-8))[0] < -1e-8:
        return False
    pt = partial_transpose(rho, d)
    return bool(np.linalg.eigvalsh(require_hermitian(pt, tol=1e-8))[0] >= -1e-8)


def _project(
    choi: ChoiMatrix, face: bool, max_iters: int, feas_tol: float,
    witness_tol: float,
) -> tuple[DecomposeResult, WitnessResult]:
    """Dykstra projection of ``-H`` onto ``C1 ∩ C2``; see the module docstring."""
    H = require_hermitian(choi.H)
    d = choi.dim
    keep = np.arange(2 * d)
    if face:
        keep = np.delete(keep, d)
    S = np.ix_(keep, keep)

    def cone_step(A):
        # The projection onto C1 and its Dykstra correction.
        Y = A.copy()
        Y[S] = psd_project(A[S])
        return Y, A - Y

    stop_tol = feas_tol / 10.0
    plateau_tol = PLATEAU_TOL * max(1.0, frobenius(H))
    X = -H
    P1 = np.zeros_like(H)
    P2 = np.zeros_like(H)
    best_value, best_rho = np.inf, None
    stop, iterations = "cap", 0
    for iterations in range(1, max_iters + 1):
        prev = X
        Y, P1 = cone_step(X + P1)
        Z, C = cone_step(partial_transpose(Y + P2, d))
        X, P2 = partial_transpose(Z, d), partial_transpose(C, d)
        if frobenius(X) <= stop_tol:
            stop = "split"
            break
        trace = np.trace(X).real
        if trace > 0.0:
            rho = X / trace
            value = float(np.trace(H @ rho).real)
            if value < best_value and _is_ppt_state(rho, d):
                best_value, best_rho = value, rho
                if value < -witness_tol:
                    stop = "witness"
                    break
        if frobenius(X - prev) <= plateau_tol:
            stop = "plateau"
            break
    residual = frobenius(X)
    if stop == "witness":
        witness = WitnessCertificate(best_rho, best_value)
        return (DecomposeResult(False, None, residual, iterations, stop),
                WitnessResult(True, witness, best_value))
    if residual > feas_tol:
        return (DecomposeResult(False, None, residual, iterations, stop),
                WitnessResult(False, None, best_value))
    H1, H2 = -P1, -P2
    cert = DecompositionCertificate(
        H1=H1,
        H2=H2,
        residual=frobenius(H1 + H2 - choi.H),
        min_eig_H1=float(np.linalg.eigvalsh(require_hermitian(H1, tol=np.inf))[0]),
        min_eig_H2_pt=float(
            np.linalg.eigvalsh(
                require_hermitian(partial_transpose(H2, d), tol=np.inf)
            )[0]
        ),
    )
    # A split proves Tr(H rho) >= 0 over every PPT state.
    return (DecomposeResult(True, cert, cert.residual, iterations, stop),
            WitnessResult(False, None, 0.0))


def decompose(
    choi: ChoiMatrix,
    max_iters: int = 20000,
    feas_tol: float = FEAS_TOL,
    struct_tol: float = ZERO_ROW_TOL,
) -> DecomposeResult:
    """Search for a completely positive / completely copositive split of H.

    Runs the projection with the face restriction when ``H`` is in face
    form.  ``decomposed=False`` is a nondecomposability proof only when
    ``stop`` is ``"witness"``.
    """
    face = _in_face_form(choi, struct_tol)
    return _project(choi, face, max_iters, feas_tol, WITNESS_TOL)[0]


def validate_certificate(
    choi: ChoiMatrix, cert: DecompositionCertificate, feas_tol: float = FEAS_TOL
) -> None:
    """Independently re-validate a decomposition certificate.

    Raises :class:`InvalidCertificateError` if the residual or either cone
    membership fails at ``feas_tol``.
    """
    H1 = as_matrix(cert.H1)
    H2 = as_matrix(cert.H2)
    problems = []
    res = frobenius(H1 + H2 - choi.H)
    if res > feas_tol:
        problems.append(f"residual {res:.3e} > {feas_tol:.1e}")
    m1 = float(np.linalg.eigvalsh(require_hermitian(H1, tol=1e-8))[0])
    if m1 < -feas_tol:
        problems.append(f"H1 min eigenvalue {m1:.3e}")
    m2 = float(
        np.linalg.eigvalsh(
            require_hermitian(partial_transpose(H2, choi.dim), tol=1e-8)
        )[0]
    )
    if m2 < -feas_tol:
        problems.append(f"H2 partial-transpose min eigenvalue {m2:.3e}")
    if problems:
        raise InvalidCertificateError("; ".join(problems))


def witness_search(
    choi: ChoiMatrix, max_iters: int = 20000, witness_tol: float = WITNESS_TOL
) -> WitnessResult:
    """Look for a PPT state ``rho`` with ``Tr(H rho) < -witness_tol``.

    Runs the projection without the face restriction.  ``best_value`` is
    ``Tr(H rho)`` of the best iterate that passed the from-scratch PPT
    checks (``inf`` when none did), and ``0.0`` when the run found a split.
    ``found=False`` is not a decomposability proof.
    """
    return _project(choi, False, max_iters, FEAS_TOL, witness_tol)[1]


def ppt_project(
    X, block_dim: int, tol: float = 1e-10, max_cycles: int = 200
) -> np.ndarray:
    """Dykstra projection onto the PPT states (PSD, PT-PSD, trace one)."""
    M = require_hermitian(as_matrix(X), tol=np.inf)
    size = M.shape[0]
    P1 = np.zeros_like(M)
    P2 = np.zeros_like(M)
    for _ in range(max_cycles):
        prev = M
        A1 = M + P1
        M = psd_project(A1)
        P1 = A1 - M
        A2 = M + P2
        M = partial_transpose(psd_project(partial_transpose(A2, block_dim)), block_dim)
        P2 = A2 - M
        M = M + (1.0 - np.trace(M).real) / size * np.eye(size)
        if frobenius(M - prev) <= tol:
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

    def all_pass(self, tol: float = 1e-8) -> bool:
        vals = list(self.entry_margins.values()) + list(self.block_margins.values())
        return all(v >= -tol for v in vals)


def _positional_blocks(M: np.ndarray, d: int):
    return {
        (i, j): M[(i - 1) * d : i * d, (j - 1) * d : j * d]
        for i in (1, 2)
        for j in (1, 2)
    }


def kadison_constraints(
    choi: ChoiMatrix,
    cert: DecompositionCertificate,
    feas_tol: float = FEAS_TOL,
    struct_tol: float = ZERO_ROW_TOL,
) -> KadisonReport:
    """Evaluate the Schwarz constraints of a decomposition certificate.

    The certificate is re-validated first (:class:`InvalidCertificateError`
    on failure).  For every pair ``(i, j)`` the Schwarz inequality for the
    split map bounds ``phi(E_ij)* phi(E_ij)`` by
    ``||phi(I)|| (phi1(E_jj) + phi2(E_ii))``; margins must be nonnegative up
    to the certificate's feasibility error.  For face-form inputs the two
    off-diagonal constraints are additionally assembled from the named blocks
    ``(Y, Z, T, ...)`` of ``H`` and of the certificate parts.
    """
    validate_certificate(choi, cert, feas_tol=feas_tol)
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
            entry[(i, j)] = float(
                np.linalg.eigvalsh(require_hermitian(R - L, tol=np.inf))[0]
            )

    block = {}
    try:
        from .choi import extract_blocks

        blocks = extract_blocks(choi, struct_tol=struct_tol)
    except Exception:
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
        block["offdiag_12"] = float(
            np.linalg.eigvalsh(require_hermitian(rhs12 - lhs12, tol=np.inf))[0]
        )
        block["offdiag_21"] = float(
            np.linalg.eigvalsh(require_hermitian(rhs21 - lhs21, tol=np.inf))[0]
        )
    return KadisonReport(norm, entry, block)
