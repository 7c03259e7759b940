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
``Tr(H rho) = -||X||^2 / tr X`` at the limit.

The projection, the state check and the split test read their layout from
the matrix they are handed: ``H`` is ``m x d`` bipartite with
``m = size // d``, the partial transpose acts on the first factor, and a
face is one dropped index, or none.  :func:`decompose` and
:func:`witness_search` hand them the ``2 x d`` Choi layout
(``d = n + 1``); another layout, such as a symmetric lift of the qubit
side, calls them directly.  The face ``phi(P_e2) f1 = 0`` is index ``d``,
that of ``e2 (x) f1``.  For face-form ``H`` the cones only constrain the
other indices, so row and column ``d`` of a projection split's ``H1`` and
``PT(H2)`` are exactly zero, as any split must have them up to rounding.

A CP map has the split ``(H, 0)`` and a coCP map the split ``(0, H)``, both
with residual 0 (Størmer and Woronowicz make every positive map into M_2
and M_3 a sum of the two kinds).  :func:`decompose` reads the two PSD
verdicts the Choi matrix caches (``ChoiMatrix.psd_verdicts``), tries these
trivial splits by the split test below, and runs the projection only when
neither is accepted.  A trivial split is taken as it is: in face form its
row ``d`` is ``H``'s own, small but not exactly zero.

Dykstra's iteration converges sublinearly, so the input of each cycle is
extrapolated by type-II Anderson acceleration (Walker & Ni 2011): the
corrections, stacked as one real vector so that real mixing coefficients
keep them Hermitian, are mixed over the last ``ANDERSON_MEMORY + 1`` outputs
of ``G`` by least squares on their fixed-point residuals ``G(u) - u``
(regularized by ``ANDERSON_REG``).  An extrapolated input is kept only while
its residual does not exceed that of the last kept input.  Otherwise the
memory is cleared and the run goes on from the output of ``G`` already
computed, so a rejection costs no extra projection.  Verdicts are read only
from outputs of ``G``, never from an extrapolated point, so they mean what
they mean without acceleration.
``iterations`` counts evaluations of ``G``, each one pair of cone
projections, and ``max_iters`` caps them.  A cone projection is
:func:`matkernel.psd_part`: the arithmetic of :func:`matkernel.psd_project`
on the symmetrized iterate ``(A + A*)/2``, without its Hermiticity check,
which would add two Frobenius norms to every cycle.  The symmetrization
stays: the mixed corrections are Hermitian only up to rounding, and
factoring them as they are changes the iterates.  The ``C2`` step, the
state check and the certificate numbers take the partial transpose by the
kernel's index permutation for the matrix's ``(size, d)``
(:func:`matkernel.partial_transpose_index`), and the face restriction drops
the face index by the one cached index of :func:`_without_index`, keyed on
``(size, face)``.

The split tolerance ``tau`` is ``matkernel.PSD_TOL`` and the witness
tolerance ``WITNESS_TOL``, both times ``min(1, ||H||_F)``: residuals and
witness values scale with ``H``, and absolute values would let a small
enough map split trivially.  A split is accepted by one test,
:func:`_split_certificate`, which the trivial splits, :func:`_project` and
:func:`validate_certificate` all call: its residual plus the cone
violations ``max(0, -min_eig_H1)`` and ``max(0, -min_eig_H2_pt)`` is at
most ``tau``.  Then its ``lower_bound``
(``min_eig_H1 + min_eig_H2_pt - residual``, a lower bound on ``<v, H v>``
over unit product vectors) is at least ``-PSD_TOL``, so an accepted split
proves positivity at the tolerance that decides every other nonnegativity
verdict.  A run stops with ``"split"`` (``||X||_F`` at most ``tau / 10``),
``"witness"`` (``Tr(H rho)`` is below minus the witness tolerance and ``rho``
passes the from-scratch state checks), ``"plateau"`` (on a plain step, whose
input is the previous output of ``G``, ``X`` moved at most
``PLATEAU_TOL * max(1, ||H||_F)``) or ``"cap"`` (iteration budget spent).
Every run, face-restricted or not, state-checks only a candidate whose value
is below minus the witness tolerance, so a check that passes stops the run.
A run returns one :class:`DecomposeResult`, which holds the split or the
witness it found.  :func:`decompose` and :func:`witness_search` run the
projection through :func:`_run`, which caches each run on the
:class:`ChoiMatrix`, one per face and cap.  So on an input that is not in
face form and does not split, the witness search returns the run the split
search made, without projecting again.  A cached result is shared by its
callers and must not be mutated.  Every verdict carries re-checkable
evidence, and a failed search is reported as "not found", never as a
proof.  The Kadison-Schwarz margins, which scale with ``||H||^2``, are
held to the absolute ``PSD_TOL``.  ``choi.STRUCT_TOL`` decides face form and
the vanishing rows of :func:`cp_check` and :func:`ccp_check`, and
``PSD_TOL`` their PSD tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .choi import (
    STRUCT_TOL,
    ChoiBlocks,
    ChoiMatrix,
    assemble_blocks,
    face_form_offenders,
)
from .exceptions import DimensionMismatchError, InvalidCertificateError
from .matkernel import (
    EIG_CLAMP_TOL,
    PSD_TOL,
    RANK_TOL,
    as_matrix,
    eigenvalues,
    frobenius,
    lowest_eigenvalue,
    partial_transpose,
    partial_transpose_index,
    psd_check,
    psd_part,
    psd_project,
    psd_sqrt,
    require_hermitian,
)

WITNESS_TOL = 1e-6

#: A state passes :func:`_is_ppt_state` with trace within ``STATE_TRACE_TOL``
#: of one, Hermitian within ``STATE_TOL`` and PSD down to ``-STATE_TOL`` before
#: and after partial transpose; :func:`validate_certificate` checks Hermiticity
#: at ``STATE_TOL`` too.
STATE_TRACE_TOL = 1e-9
STATE_TOL = 1e-8


def _scaled_tolerances(H) -> tuple[float, float]:
    """The split and witness tolerances for ``H`` (see the module docstring)."""
    scale = min(1.0, frobenius(H))
    return PSD_TOL * scale, WITNESS_TOL * scale


# ---------------------------------------------------------------------------
# complete positivity / complete copositivity from face-form blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CpVerdict:
    """Outcome of a complete (co)positivity test.

    The structural route (vanishing row ``d`` plus PSD condensed matrix)
    decides the verdict; the direct spectral test of the full Choi matrix
    (partially transposed for the copositive variant) is recorded alongside
    for cross-validation.  ``row_norm`` is the norm of row ``d`` of that
    matrix, the coupling row with ``x`` (``(x~, Z)``, or ``(x, Y)`` for the
    copositive variant).  ``factor`` is a PSD square root of the condensed
    matrix when the verdict is positive; ``witness`` is a violating unit
    vector of the condensed matrix otherwise (``None`` when the failure is
    the nonzero row itself).
    """

    holds: bool
    row_norm: float
    condensed_min_eig: float
    direct_min_eig: float
    factor: np.ndarray | None = None
    witness: np.ndarray | None = None


def _variant_matrix(blocks: ChoiBlocks, variant: str) -> tuple[np.ndarray, int]:
    """``H`` (``"cp"``) or ``PT(H)`` (``"ccp"``) of the blocks, and ``d = n + 1``."""
    H = assemble_blocks(blocks)
    if variant == "cp":
        return H.H, H.dim
    if variant == "ccp":
        return partial_transpose(H.H, H.dim), H.dim
    raise ValueError(f"variant must be 'cp' or 'ccp', got {variant!r}")


@functools.cache
def _inner_index(size: int, face: int) -> np.ndarray:
    """Flat positions of the entries off row and column ``face`` of a
    ``size``-square matrix, row by row; read-only, built once per pair."""
    keep = np.delete(np.arange(size), face)
    inner = (keep[:, None] * size + keep).ravel()
    inner.setflags(write=False)
    return inner


def _without_index(M: np.ndarray, face: int) -> np.ndarray:
    """The square ``M`` with row and column ``face`` deleted."""
    return M.take(_inner_index(len(M), face)).reshape(len(M) - 1, -1)


def condensed_matrix(blocks: ChoiBlocks, variant: str) -> np.ndarray:
    """The (2n+1)-square matrix whose positivity characterizes CP or coCP.

    It is ``H`` (``variant="cp"``) or ``PT(H)`` (``variant="ccp"``) with row
    and column ``d = n + 1`` deleted: ``[[a, C, Y], [C*, B, T], [Y*, T*, U]]``,
    and for ``"ccp"`` the same with ``Y -> Z`` and ``T -> T*``.  In face form
    ``H[d, d] = 0``, so the deleted row holds only ``x`` and the coupling
    row (``Z``, or ``Y`` after the partial transpose).
    """
    return _without_index(*_variant_matrix(blocks, variant))


def _cp_like_check(blocks: ChoiBlocks, variant: str) -> CpVerdict:
    M, d = _variant_matrix(blocks, variant)
    row_norm = float(np.linalg.norm(M[d]))
    K = _without_index(M, d)
    kv = psd_check(K)
    dv = psd_check(M)
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
    """Complete positivity: x = 0, Z = 0 and the condensed matrix PSD.

    Equivalently the full Choi matrix is PSD; both routes are computed and
    reported (the structural route decides, the spectral route cross-checks).
    """
    return _cp_like_check(blocks, "cp")


def ccp_check(blocks: ChoiBlocks) -> CpVerdict:
    """Complete copositivity: x = 0, Y = 0 and the mirrored condensed matrix PSD.

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
    """Margins of the block inequalities implied by complete (co)positivity.

    The coupling row and middle block are read off :func:`condensed_matrix`.
    """
    n = blocks.n
    K = condensed_matrix(blocks, variant)
    row, mid = K[0, n + 1 :], K[1 : n + 1, n + 1 :]
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

    @property
    def lower_bound(self) -> float:
        """A lower bound on ``<v, H v>`` over unit product vectors ``v``.

        With ``X = H1 + H2 - H`` and ``v = lam (x) eta``,
        ``<v, H1 v> >= min_eig_H1``, ``<v, H2 v> = <w, PT(H2) w> >=
        min_eig_H2_pt`` for the unit ``w = conj(lam) (x) eta``, and
        ``|<v, X v>| <= ||X||_2 <= ||X||_F = residual``.  Exact up to the
        rounding in those three fields.
        """
        return float(self.min_eig_H1 + self.min_eig_H2_pt - self.residual)


@dataclass(frozen=True)
class WitnessCertificate:
    """PPT state with ``value = Tr(H rho) < 0``, re-validated from scratch."""

    rho: np.ndarray
    value: float


@dataclass(frozen=True)
class DecomposeResult:
    """Outcome of one projection run: a split, a witness, or neither.

    ``witness`` is set when the run stopped on ``"witness"``, and
    ``certificate`` otherwise when its last output passes the split test
    (see the module docstring); at most one of them is.  ``residual`` is
    ``||X||_F`` of the last output (the certificate's own residual after a
    split), ``iterations`` counts Dykstra cycles and ``stop`` is why the run
    ended.  A trivial split of :func:`decompose` is reported as a run that
    stopped on ``"split"`` after 0 cycles.
    """

    certificate: DecompositionCertificate | None
    witness: WitnessCertificate | None
    residual: float
    iterations: int
    stop: str

    @property
    def decomposed(self) -> bool:
        return self.certificate is not None

    @property
    def found(self) -> bool:
        return self.witness is not None


def _is_ppt_state(rho: np.ndarray, d: int) -> bool:
    """Trace one, PSD and PSD after partial transpose, checked from scratch.

    The partial transpose is on the first factor of the ``m x d`` layout that
    ``rho``'s size gives.  ``rho`` is validated once: a partial transpose only
    permutes entries, so ``PT(rho)`` has the Hermiticity defect of ``rho``.
    """
    if abs(np.trace(rho).real - 1.0) > STATE_TRACE_TOL:
        return False
    S = require_hermitian(rho, tol=STATE_TOL)
    pt = S.take(partial_transpose_index(len(S), d))
    return bool(eigenvalues(np.stack([S, pt])).min() >= -STATE_TOL)


def _split_certificate(H, d: int, H1, H2) -> tuple[DecompositionCertificate | None, str]:
    """The split test: the certificate of ``H ~ H1 + H2``, or ``None`` and why not.

    The certificate's numbers are ``||H1 + H2 - H||_F``, ``lambda_min(H1)``
    and ``lambda_min(PT(H2))``, the partial transpose on the first factor of
    ``H``'s ``m x d`` layout; both parts must be Hermitian within
    ``STATE_TOL`` (else :class:`NotHermitianError`).  The split is accepted
    when the residual plus both cone violations is at most the split
    tolerance of ``H``.  A NaN stays NaN, so it is rejected.
    """
    split_tol = _scaled_tolerances(H)[0]
    res = frobenius(H1 + H2 - H)
    S1 = require_hermitian(H1, tol=STATE_TOL)
    S2 = require_hermitian(H2, tol=STATE_TOL).take(partial_transpose_index(len(H), d))
    m1, m2 = eigenvalues(np.stack([S1, S2]))[:, 0].tolist()
    excess = res + max(-m1, 0.0) + max(-m2, 0.0)
    if excess <= split_tol:
        return DecompositionCertificate(H1, H2, res, m1, m2), ""
    return None, (
        f"residual {res:.3e} plus cone violations (H1 min eigenvalue "
        f"{m1:.3e}, H2 partial-transpose min eigenvalue {m2:.3e}) is "
        f"{excess:.3e} > {split_tol:.1e}"
    )


def _norm(A: np.ndarray) -> float:
    """``||A||_F`` of a complex array by one ``vdot``."""
    return math.sqrt(np.vdot(A, A).real)


def _project(H: np.ndarray, d: int, face: int | None, max_iters: int) -> DecomposeResult:
    """Anderson-accelerated Dykstra projection of ``-H`` onto ``C1 ∩ C2``.

    See the module docstring.  ``H`` is Hermitian on the ``m x d`` layout
    its size gives, and ``C2`` is PSD after the partial transpose on the
    first factor.  Each iteration evaluates the plain Dykstra cycle ``G``
    once, at its last output or at an extrapolation of its recent outputs,
    and reads every stop off the new output.  ``face`` is the one dropped
    index: the cones constrain only the other indices, or all of them when
    it is ``None``.
    """
    negH = -H
    split_tol, witness_tol = _scaled_tolerances(H)
    pt = partial_transpose_index(len(H), d)
    inner = None if face is None else _inner_index(len(H), face)

    def cone_step(A):
        # The projection onto C1 and its Dykstra correction.
        if inner is None:
            Y = psd_part(A)
        else:
            Y = A.copy()
            Y.ravel()[inner] = psd_part(_without_index(A, face)).ravel()
        return Y, A - Y

    def dykstra(P2):
        # One plain cycle G(P1, P2); it reads only P2, since X + P1 = -H - P2.
        g = np.empty((2, *H.shape), dtype=np.complex128)
        Y, g[0] = cone_step(negH - P2)
        _, C = cone_step((Y + P2).take(pt))
        g[1] = C.take(pt)
        return g

    stop_tol = split_tol / 10.0
    plateau_tol = PLATEAU_TOL * max(1.0, frobenius(H))
    # The state u = (P1, P2); its real view is the vector that is mixed.
    u = np.zeros((2, *H.shape), dtype=np.complex128)
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
    cert = witness = None
    stop, iterations = "cap", 0
    for iterations in range(1, max_iters + 1):
        g = dykstra(u[1])
        P1, P2 = g
        X = negH - P1 - P2
        if _norm(X) <= stop_tol:
            stop = "split"
            break
        trace = X.trace().real
        if trace > 0.0:
            rho = X / trace
            value = float(np.vdot(H, rho).real)  # Tr(H rho), as H = H*
            if value < -witness_tol and _is_ppt_state(rho, d):
                witness = WitnessCertificate(rho, value)
                stop = "witness"
                break
        if plain and _norm(X - X_in) <= plateau_tol:
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
    # ||X||_F is the split's residual, so a larger one fails the test below
    # without the two eigensolves.
    if witness is None and residual <= split_tol:
        cert = _split_certificate(H, d, -P1, -P2)[0]
        if cert is not None:
            residual = cert.residual
    return DecomposeResult(cert, witness, residual, iterations, stop)


def _run(choi: ChoiMatrix, face: int | None, max_iters: int) -> DecomposeResult:
    """``_project(choi.H, choi.dim, face, max_iters)``, run once per Choi matrix.

    The projection is deterministic, so its result is cached on ``choi``
    (``ChoiMatrix._projection_runs``), keyed by ``(face, max_iters)``: a
    second call with the same face and cap returns the same object.  That
    result is shared by every caller and must not be mutated.
    """
    runs = choi._projection_runs
    key = (face, max_iters)
    if key not in runs:
        runs[key] = _project(choi.H, choi.dim, face, max_iters)
    return runs[key]


def decompose(choi: ChoiMatrix, max_iters: int = 20000) -> DecomposeResult:
    """Search for a completely positive / completely copositive split of H.

    The trivial splits come first.  When ``choi.psd_verdicts`` reads ``H``
    PSD (the map is CP), ``(H, 0)`` is tried, and then, when it reads
    ``PT(H)`` PSD (coCP), ``(0, H)``.  A candidate is accepted by the split
    test of :func:`validate_certificate`, so a PSD verdict at the absolute
    ``PSD_TOL`` does not by itself accept a split of a small map.  An
    accepted trivial split returns with ``iterations`` 0 and stop
    ``"split"``; its residual is 0 and its ``lower_bound`` is
    ``lambda_min(H)`` or ``lambda_min(PT(H))``.

    Otherwise the accelerated projection runs, with the face restriction
    when ``H`` is in face form (:func:`choi.face_form_offenders` finds no
    offender), for at most ``max_iters`` cycles, each one pair of cone
    projections.  The one :class:`DecomposeResult` holds the split
    (``certificate``) or the PPT witness (``witness``) that stopped the run,
    both read from an output of the plain Dykstra cycle, never from an
    extrapolated point.  Row and column ``d`` of a face-form projection
    split are exactly zero; a trivial split carries ``H``'s own entries
    there.  With neither a split nor a witness, the run failed: that is
    neither a decomposability nor a nondecomposability proof.  The run is
    cached on ``choi`` by face and ``max_iters`` (see :func:`_run`), so a
    repeated call, or :func:`witness_search` after an unrestricted run with
    the same cap, returns the same result, which must not be mutated.
    """
    H, d = choi.H, choi.dim
    cp, ccp = choi.psd_verdicts
    zero = np.zeros_like(H)
    for verdict, H1, H2 in ((cp, H, zero), (ccp, zero, H)):
        if verdict.is_psd:
            cert = _split_certificate(H, d, H1.copy(), H2.copy())[0]
            if cert is not None:
                return DecomposeResult(cert, None, cert.residual, 0, "split")
    # The face phi(P_e2) f1 = 0 is the index of e2 (x) f1.
    return _run(choi, None if face_form_offenders(choi) else d, max_iters)


def validate_certificate(choi: ChoiMatrix, cert: DecompositionCertificate) -> None:
    """Independently re-validate a decomposition certificate.

    Raises :class:`DimensionMismatchError` unless both parts have the shape
    of ``H``, and :class:`InvalidCertificateError` unless the residual plus
    both cone violations is at most ``PSD_TOL`` times ``min(1, ||H||_F)``:
    the test by which :func:`decompose` accepts a split.
    """
    H1, H2 = as_matrix(cert.H1), as_matrix(cert.H2)
    if not H1.shape == H2.shape == choi.H.shape:
        raise DimensionMismatchError(f"parts {H1.shape}, {H2.shape} do not match H {choi.H.shape}")
    accepted, reason = _split_certificate(choi.H, choi.dim, H1, H2)
    if accepted is None:
        raise InvalidCertificateError(reason)


def witness_search(choi: ChoiMatrix, max_iters: int = 20000) -> DecomposeResult:
    """Look for a PPT state ``rho`` with ``Tr(H rho) < -WITNESS_TOL * min(1, ||H||_F)``.

    The same projection as :func:`decompose`, without the face restriction.
    It shares :func:`decompose`'s cache of runs on ``choi``, keyed by face and
    ``max_iters``: after :func:`decompose` ran unrestricted (``H`` not in face
    form) with the same cap, it returns that run's result without projecting
    again.  The result is shared and must not be mutated.  It may hold a
    split instead; ``found=False`` is not a decomposability proof.
    """
    return _run(choi, None, max_iters)


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
    ``||phi(I)|| (phi1(E_jj) + phi2(E_ii)) - phi(E_ij)* phi(E_ij)``.
    """

    norm_phi_identity: float
    entry_margins: dict[tuple[int, int], float]

    def all_pass(self) -> bool:
        """Every margin is at least ``-PSD_TOL``, the certificate's error."""
        return all(v >= -PSD_TOL for v in self.entry_margins.values())


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
    to the certificate's feasibility error.  For face-form inputs these are
    also the constraints written in the named blocks ``(Y, Z, T, ...)``:
    ``H1[d, d] + H2[d, d] = H[d, d] = 0`` with both terms nonnegative, so row
    ``d`` of ``H1`` and of ``PT(H2)`` vanishes; the named-block form of the
    ``(1, 2)`` and ``(2, 1)`` constraints is their entry form with that row
    set to zero.
    """
    validate_certificate(choi, cert)
    return _kadison_margins(choi, cert)


def _kadison_margins(choi: ChoiMatrix, cert: DecompositionCertificate) -> KadisonReport:
    """The report of :func:`kadison_constraints` without re-validating ``cert``.

    For a certificate that :func:`decompose` has just accepted by the test
    :func:`validate_certificate` would repeat.
    """
    d = choi.dim
    H = _positional_blocks(choi.H, d)
    H1 = _positional_blocks(as_matrix(cert.H1), d)
    H2 = _positional_blocks(as_matrix(cert.H2), d)
    # Operator norm of phi(I), a sum of blocks of the exactly Hermitian H.
    norm = float(np.max(np.abs(eigenvalues(H[(1, 1)] + H[(2, 2)]))))
    pairs = [(i, j) for i in (1, 2) for j in (1, 2)]
    gaps = [norm * (H1[(j, j)] + H2[(i, i)]) - H[(i, j)].conj().T @ H[(i, j)]
            for i, j in pairs]
    margins = eigenvalues(np.stack(gaps))[:, 0].tolist()
    return KadisonReport(norm, dict(zip(pairs, margins)))
