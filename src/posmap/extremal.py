"""Structure of unital face-form maps saturating |Y| + |Z| = U^{1/2}.

For positive unital face-form maps (a = 1, C = 0, B + U = 1) the coupling
bound ``|Y| + |Z| <= U^{1/2}`` can be saturated.  In that equality case the
rows Y and Z are forced to be linearly dependent, U collapses onto the
common direction ``eta0``, and a basis rotation fixing the face vector f1
brings the Choi matrix to a canonical shape determined by scalars
``(y, z, u, t)`` with ``u = (|y| + |z|)^2`` plus two short rows ``W`` and
``V``.  Compressing with a coisometry built from any unit vector ``rho``
yields a 2x2-codomain map whose scalar conditions bound
``|<rho, Y1*>| + |<rho, Z1*>|`` by ``u^{1/2}``.

A canonical form is accepted only when it rebuilds its input: the Choi
matrix assembled from ``(y, z, u, t, W, V)`` must equal the rotated input
entrywise, which checks a = 1, C = 0, x = 0, every forced zero of Y, Z, B, T
and U, and ``B[-1, -1] = 1 - u`` in one comparison.

Tolerances are constants: ``EQUALITY_TOL`` decides the equality case, the
canonical ``u = (|y| + |z|)^2`` and the identities of the degenerate cases,
``DEPENDENCE_TOL`` the dependence of ``Y`` and ``Z``, and ``choi.STRUCT_TOL``
the rebuild of the canonical form and every other forced zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import (
    STRUCT_TOL,
    ChoiBlocks,
    ChoiMatrix,
    assemble_blocks,
    conjugate_choi,
    extract_blocks,
    row_abs,
    unital_face_defects,
)
from .cpdecomp import CpVerdict, ccp_check, cp_check
from .exceptions import (
    BadParamsError,
    NotDependentError,
    NotUnitVectorError,
    PosmapError,
    ZeroPatternViolationError,
)
from .positivity import (
    CERTIFIED,
    ScalarConditions,
    certify_positivity,
    face_membership,
    scalar_choi_conditions,
)

#: Relative threshold on the second singular value for linear dependence.
DEPENDENCE_TOL = 1e-8

#: Absolute tolerance of the equality |Y| + |Z| = U^{1/2} and its consequences.
EQUALITY_TOL = 1e-8

#: Scale of the sampled W row, positivity-search budget and resampling cap
#: of :func:`random_equality_blocks`.
SAMPLER_COUPLING = 0.08
SAMPLER_BUDGET = 32
SAMPLER_TRIES = 60


@dataclass(frozen=True)
class EqualityCase:
    equality: bool
    gap: float


def equality_case_detect(blocks: ChoiBlocks) -> EqualityCase:
    """Detect saturation of the coupling bound for unital face-form blocks.

    ``gap = || (|Y| + |Z|)^2 - U ||_F``; equality holds iff it is
    <= ``EQUALITY_TOL``.
    Both sides of ``|Y| + |Z| = U^{1/2}`` are PSD and the PSD square root is
    unique, so squaring gives an equivalent test.  It avoids the root, which
    turns rounding noise in the zero eigenvalues of a rank-deficient ``U``
    (about 1e-17) into errors near 1e-8.
    """
    R = row_abs(blocks.Y) + row_abs(blocks.Z)
    gap = float(np.linalg.norm(R @ R - blocks.U))
    return EqualityCase(gap <= EQUALITY_TOL, gap)


@dataclass(frozen=True)
class DependenceReport:
    """Linear-dependence test of the stacked rows [Y; Z].

    On dependence, ``eta0`` is the common unit direction with
    ``Y* = conj(y) eta0`` and ``Z* = conj(z) eta0``; otherwise it is None and
    the singular values document the failure.
    """

    dependent: bool
    eta0: np.ndarray | None
    y: complex | None
    z: complex | None
    singular_values: tuple[float, float]


def check_row_dependence(blocks: ChoiBlocks) -> DependenceReport:
    """Rank test of the 2 x n stack of Y and Z via its singular values.

    Dependent iff the second singular value is at most
    ``DEPENDENCE_TOL * (first + 1)``.  At n = 1 the stack has one singular
    value: two rows of length 1 are always dependent, so the second is 0.
    """
    n = blocks.n
    stack = np.vstack([blocks.Y, blocks.Z])
    svals = np.linalg.svd(stack, compute_uv=False)
    s1 = float(svals[0])
    s2 = float(svals[1]) if n > 1 else 0.0
    dependent = s2 <= DEPENDENCE_TOL * (s1 + 1.0)
    if not dependent:
        return DependenceReport(False, None, None, None, (s1, s2))
    if s1 <= DEPENDENCE_TOL:
        # Y = Z = 0: any direction works; pick the last basis vector.
        eta0 = np.zeros(n, dtype=np.complex128)
        eta0[-1] = 1.0
        return DependenceReport(True, eta0, 0j, 0j, (s1, s2))
    _, _, vh = np.linalg.svd(stack)
    eta0 = vh[0].conj()
    y = complex(np.dot(blocks.Y, eta0))
    z = complex(np.dot(blocks.Z, eta0))
    return DependenceReport(True, eta0, y, z, (s1, s2))


@dataclass(frozen=True)
class DegenerateClass:
    """Classification of the degenerate equality cases (one row vanishing).

    ``verdict`` is "cp" when Z = 0 and ||Y|| < 1 (the map is completely
    positive with U = Y*Y, B = 1 - Y*Y and T = 0), "cocp" for the mirrored
    case, and "not_applicable" otherwise, and always for blocks that are not
    in unital face form (:func:`choi.unital_face_defects`).  ``checks``
    carries the residuals of the forced identities; ``cp`` is the confirming
    verdict.
    """

    verdict: str
    checks: dict[str, float]
    cp: CpVerdict | None


def classify_degenerate(blocks: ChoiBlocks) -> DegenerateClass:
    if unital_face_defects(blocks):
        return DegenerateClass("not_applicable", {}, None)
    eye = np.eye(blocks.n)
    for name, row, zero_row, check in (("cp", blocks.Y, blocks.Z, cp_check),
                                       ("cocp", blocks.Z, blocks.Y, ccp_check)):
        vanishes = np.linalg.norm(zero_row) <= STRUCT_TOL
        if vanishes and np.linalg.norm(row) < 1.0 - EQUALITY_TOL:
            gram = np.outer(row.conj(), row)
            checks = {
                "U_equals_gram": float(np.linalg.norm(blocks.U - gram)),
                "B_equals_complement": float(np.linalg.norm(blocks.B - (eye - gram))),
                "T_zero": float(np.linalg.norm(blocks.T)),
            }
            verdict = check(blocks)
            ok = all(v <= EQUALITY_TOL for v in checks.values()) and verdict.holds
            return DegenerateClass(name if ok else "not_applicable", checks, verdict)
    return DegenerateClass("not_applicable", {}, None)


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical data of an equality-case map after the basis rotation.

    ``y`` is real nonnegative by phase convention (when y = 0 the convention
    moves to z).  ``basis_change`` is the (n+1) x (n+1) unitary G, fixing f1,
    whose conjugation produced the form; its last column is the embedded
    common direction eta0.
    """

    y: complex
    z: complex
    u: float
    t: complex
    W_row: np.ndarray
    V_row: np.ndarray
    basis_change: np.ndarray

    @property
    def n(self) -> int:
        return self.W_row.shape[0] + 1

    def blocks(self) -> ChoiBlocks:
        """Face-form blocks of the canonical shape."""
        n = self.n
        Y = np.zeros(n, dtype=np.complex128)
        Y[-1] = self.y
        Z = np.zeros(n, dtype=np.complex128)
        Z[-1] = self.z
        U = np.zeros((n, n), dtype=np.complex128)
        U[-1, -1] = self.u
        B = np.eye(n, dtype=np.complex128)
        B[-1, -1] = 1.0 - self.u
        T = np.zeros((n, n), dtype=np.complex128)
        T[: n - 1, n - 1] = self.W_row.conj()
        T[n - 1, : n - 1] = self.V_row
        T[n - 1, n - 1] = self.t
        return ChoiBlocks(
            a=1.0, x=0j,
            C=np.zeros(n, dtype=np.complex128),
            Y=Y, Z=Z, B=B, T=T, U=U,
        )

    def choi(self) -> ChoiMatrix:
        return assemble_blocks(self.blocks())


def _householder_to_last(eta0: np.ndarray) -> np.ndarray:
    """Unitary G_n with last column eta0, built from one Householder reflection."""
    n = eta0.shape[0]
    e_last = np.zeros(n, dtype=np.complex128)
    e_last[-1] = 1.0
    pivot = eta0[-1]
    phase = pivot / abs(pivot) if abs(pivot) > 1e-14 else 1.0
    v = eta0 + phase * e_last
    vnorm = np.linalg.norm(v)
    if vnorm < 1e-14:
        Hv = np.eye(n, dtype=np.complex128)
    else:
        v = v / vnorm
        Hv = np.eye(n, dtype=np.complex128) - 2.0 * np.outer(v, v.conj())
    # Hv eta0 = -phase * e_last, so Hv* (-phase e_last) = eta0.
    G = Hv.conj().T.copy()
    G[:, -1] *= -phase
    return G


def canonicalize(blocks: ChoiBlocks) -> CanonicalForm:
    """Rotate an equality-case map to its canonical shape and read it off.

    The rotation G fixes f1 and sends the common direction of Y* and Z* to
    the last basis vector; a phase is absorbed so that y (or z when y
    vanishes) is real nonnegative.  (y, z, u, t, W, V) are read off the
    rotated blocks.  The form is accepted only when it rebuilds the rotated
    input: ``canon.choi().H`` must equal the Choi matrix of ``(a, x, C G,
    Y G, Z G, G* B G, G* T G, G* U G)`` entrywise within ``STRUCT_TOL``.
    That checks a = 1, C = 0, x = 0, Y and Z on the last direction, U on its
    last diagonal entry, B = I off it with ``B[-1, -1] = 1 - u``, and the
    (n-1) square corner of T zero; otherwise
    :class:`ZeroPatternViolationError` names the worst entry and carries its
    difference as ``residual``.  ``u`` must also equal ``(|y| + |z|)^2``
    within ``EQUALITY_TOL``, or the same error is raised.  Either means the
    input is not a genuine positive unital equality-case map.  Missing
    dependence of Y and Z raises :class:`NotDependentError`.
    """
    dep = check_row_dependence(blocks)
    if not dep.dependent:
        raise NotDependentError(
            f"rows Y and Z are independent (singular values {dep.singular_values})"
        )
    n = blocks.n
    Gn = _householder_to_last(dep.eta0)
    # Absorb a phase so the read-off y (fallback z) is real nonnegative.
    y_raw = complex(np.dot(blocks.Y, Gn[:, -1]))
    anchor = y_raw if abs(y_raw) > 1e-12 else complex(np.dot(blocks.Z, Gn[:, -1]))
    if abs(anchor) > 1e-12:
        Gn = Gn.copy()
        Gn[:, -1] *= np.conj(anchor) / abs(anchor)

    rotated = ChoiBlocks(
        a=blocks.a, x=blocks.x, C=blocks.C @ Gn, Y=blocks.Y @ Gn, Z=blocks.Z @ Gn,
        B=Gn.conj().T @ blocks.B @ Gn, T=Gn.conj().T @ blocks.T @ Gn,
        U=Gn.conj().T @ blocks.U @ Gn,
    )
    G = np.zeros((n + 1, n + 1), dtype=np.complex128)
    G[0, 0] = 1.0
    G[1:, 1:] = Gn
    T = rotated.T
    canon = CanonicalForm(
        y=complex(rotated.Y[-1]),
        z=complex(rotated.Z[-1]),
        u=float(rotated.U[-1, -1].real),
        t=complex(T[-1, -1]),
        W_row=T[: n - 1, n - 1].conj().copy(),
        V_row=T[n - 1, : n - 1].copy(),
        basis_change=G,
    )
    diff = np.abs(canon.choi().H - assemble_blocks(rotated).H)
    row, col = np.unravel_index(np.argmax(diff), diff.shape)
    if diff[row, col] > STRUCT_TOL:
        raise ZeroPatternViolationError(
            f"canonical form does not rebuild the rotated map: entry ({row},{col}) "
            f"differs by {diff[row, col]:.3e}",
            residual=float(diff[row, col]),
        )
    gap = abs(canon.u - (abs(canon.y) + abs(canon.z)) ** 2)
    if gap > EQUALITY_TOL:
        raise ZeroPatternViolationError(
            f"u = {canon.u:.6e} differs from (|y|+|z|)^2 = "
            f"{(abs(canon.y) + abs(canon.z)) ** 2:.6e}",
            residual=gap,
        )
    return canon


@dataclass(frozen=True)
class CompressResult:
    """Scalars of the compressed 2x2-codomain map and the bound margin.

    The compressed Choi data is ``(a=1, b=1-u, u, y', z', t)`` with
    ``y' = <rho, Y1*>`` and ``z' = <rho, Z1*>``; ``margin`` is
    ``sqrt(u) - |y'| - |z'|`` and must be nonnegative for positive inputs.
    """

    b: float
    u: float
    y: complex
    z: complex
    t: complex
    margin: float
    conditions: ScalarConditions
    choi_2x2: np.ndarray


def compress(canon: CanonicalForm, rho) -> CompressResult:
    """Compress the canonical map with the coisometry built from rho.

    ``rho`` must be a vector of length n with norm within 1e-9 of 1, else
    :class:`NotUnitVectorError`; it is normalized here, so the coisometry
    ``V = [[conj(rho), 0], [0...0, 1]]`` satisfies ``V V* = I_2``; the
    compressed map has Choi scalars read from ``Y1 = [conj(y), W]`` and
    ``Z1 = [conj(z), V_row]``.  The direct blockwise compression is computed
    as well and must agree with the closed form.
    """
    r = np.asarray(rho, dtype=np.complex128).ravel()
    n = canon.n
    norm = np.linalg.norm(r)
    # Written so that a NaN norm fails too.
    if r.shape[0] != n or not abs(norm - 1.0) <= 1e-9:
        raise NotUnitVectorError(f"rho must be a unit vector of length {n}, "
                                 f"got length {r.shape[0]} and norm {float(norm)!r}")
    r = r / norm
    Y1 = np.concatenate(([np.conj(canon.y)], canon.W_row))
    Z1 = np.concatenate(([np.conj(canon.z)], canon.V_row))
    y_c = complex(np.vdot(r, Y1.conj()))
    z_c = complex(np.vdot(r, Z1.conj()))

    Vco = np.zeros((2, n + 1), dtype=np.complex128)
    Vco[0, :n] = r.conj()
    Vco[1, n] = 1.0
    full = canon.choi()
    small = np.block(
        [
            [
                Vco @ full.block(i, j) @ Vco.conj().T
                for j in (1, 2)
            ]
            for i in (1, 2)
        ]
    )
    u = canon.u
    expected = np.array(
        [
            [1.0, 0.0, 0.0, y_c],
            [0.0, 1.0 - u, np.conj(z_c), canon.t],
            [0.0, z_c, 0.0, 0.0],
            [np.conj(y_c), np.conj(canon.t), 0.0, u],
        ],
        dtype=np.complex128,
    )
    if np.max(np.abs(small - expected)) > 1e-9:
        raise PosmapError(
            "blockwise compression disagrees with the closed-form scalars"
        )
    margin = float(np.sqrt(max(u, 0.0)) - abs(y_c) - abs(z_c))
    conds = scalar_choi_conditions(1.0, 1.0 - u, u, 0.0, y_c, z_c, canon.t)
    return CompressResult(
        b=1.0 - u, u=u, y=y_c, z=z_c, t=canon.t,
        margin=margin, conditions=conds, choi_2x2=small,
    )


def face_intersection_check(choi: ChoiMatrix, eta0) -> bool:
    """Does the map lie in every face indexed by vectors orthogonal to eta0?

    ``eta0`` lives in the lower n coordinates and is normalized here, so it
    must have a finite nonzero norm (else :class:`NotUnitVectorError`); the
    check verifies ``phi(P_{e2}) w = 0`` for a basis of the orthogonal
    complement of the embedded eta0 in C^{n+1}.
    """
    e = np.asarray(eta0, dtype=np.complex128).ravel()
    n = choi.n
    if e.shape[0] != n:
        raise NotUnitVectorError(f"eta0 must have length {n}")
    norm = np.linalg.norm(e)
    if not 0.0 < norm < np.inf:
        raise NotUnitVectorError(f"eta0 has norm {norm!r}, expected a finite nonzero one")
    embedded = np.zeros(n + 1, dtype=np.complex128)
    embedded[1:] = e / norm
    Gfull = _householder_to_last(embedded)
    return all(face_membership(choi, [0.0, 1.0], Gfull[:, k]).member for k in range(n))


def random_equality_blocks(n: int, rng: np.random.Generator) -> tuple[ChoiBlocks, dict]:
    """Sample a positivity-certified equality-case map in canonical shape.

    The sampler draws y, z with random phases, sets ``u = (|y| + |z|)^2``,
    and draws the T data inside the phase constraints positivity imposes
    near the saturated direction (t in quadrature with the y-z alignment
    phase, V locked to W).  Candidates failing the positivity certificate
    are rejected and resampled, at most ``SAMPLER_TRIES`` times.  ``n < 1``
    raises :class:`BadParamsError`.
    """
    if n < 1:
        raise BadParamsError(f"n must be at least 1, got {n}")
    for _ in range(SAMPLER_TRIES):
        ay = rng.uniform(0.15, 0.45)
        az = rng.uniform(0.15, 0.45)
        pa = rng.uniform(0.0, 2 * np.pi)
        pb = rng.uniform(0.0, 2 * np.pi)
        y = ay * np.exp(1j * pa)
        z = az * np.exp(1j * pb)
        theta_star = (pb - pa) / 2.0
        u = (ay + az) ** 2
        if u >= 0.9:
            continue
        tau = rng.uniform(0.0, 0.5) * 2.0 * np.sqrt(ay * az * (1.0 - u))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        t = 1j * sign * tau * np.exp(-1j * theta_star)
        W = (
            rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        ) * SAMPLER_COUPLING
        V = -np.exp(-2j * theta_star) * W
        canon = CanonicalForm(
            y=y, z=z, u=u, t=t,
            W_row=W.astype(np.complex128),
            V_row=V.astype(np.complex128),
            basis_change=np.eye(n + 1, dtype=np.complex128),
        )
        blocks = canon.blocks()
        verdict = certify_positivity(
            blocks, budget=SAMPLER_BUDGET, seed=int(rng.integers(2**31))
        )
        if verdict.status != CERTIFIED:
            continue
        truth = {"y": y, "z": z, "u": u, "t": t, "W": W.copy(), "V": V.copy()}
        return blocks, truth
    raise PosmapError("could not sample a certified equality-case map")


def scramble_blocks(
    blocks: ChoiBlocks, rng: np.random.Generator
) -> tuple[ChoiBlocks, np.ndarray]:
    """Conjugate by a random unitary fixing f1; returns the rotated blocks."""
    from .rand import random_unitary

    n = blocks.n
    Gn = random_unitary(n, rng)
    G = np.zeros((n + 1, n + 1), dtype=np.complex128)
    G[0, 0] = 1.0
    G[1:, 1:] = Gn
    rotated = conjugate_choi(assemble_blocks(blocks), G)
    return extract_blocks(rotated), Gn
