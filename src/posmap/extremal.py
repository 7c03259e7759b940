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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import (
    ChoiBlocks,
    ChoiMatrix,
    assemble_blocks,
    conjugate_choi,
    extract_blocks,
    row_abs,
)
from .cpdecomp import CpVerdict, ccp_check, cp_check
from .exceptions import (
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


@dataclass(frozen=True)
class EqualityCase:
    equality: bool
    gap: float


def equality_case_detect(blocks: ChoiBlocks, tol: float = 1e-8) -> EqualityCase:
    """Detect saturation of the coupling bound for unital face-form blocks.

    ``gap = || (|Y| + |Z|)^2 - U ||_F``; equality holds iff it is <= tol.
    Both sides of ``|Y| + |Z| = U^{1/2}`` are PSD and the PSD square root is
    unique, so squaring gives an equivalent test.  It avoids the root, which
    turns rounding noise in the zero eigenvalues of a rank-deficient ``U``
    (about 1e-17) into errors near 1e-8.
    """
    R = row_abs(blocks.Y) + row_abs(blocks.Z)
    gap = float(np.linalg.norm(R @ R - blocks.U))
    return EqualityCase(gap <= tol, gap)


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


def check_row_dependence(
    blocks: ChoiBlocks, rank_tol: float = DEPENDENCE_TOL
) -> DependenceReport:
    """Rank test of the 2 x n stack of Y and Z via its singular values.

    Dependent iff the second singular value is at most
    ``rank_tol * (first + 1)``.
    """
    n = blocks.n
    stack = np.vstack([blocks.Y, blocks.Z])
    svals = np.linalg.svd(stack, compute_uv=False)
    s1, s2 = float(svals[0]), float(svals[1])
    dependent = s2 <= rank_tol * (s1 + 1.0)
    if not dependent:
        return DependenceReport(False, None, None, None, (s1, s2))
    if s1 <= rank_tol:
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
    case, and "not_applicable" otherwise.  ``checks`` carries the residuals
    of the forced identities; ``cp`` is the confirming verdict.
    """

    verdict: str
    checks: dict[str, float]
    cp: CpVerdict | None


def classify_degenerate(
    blocks: ChoiBlocks, tol: float = 1e-8, struct_tol: float = 1e-9
) -> DegenerateClass:
    y_norm = float(np.linalg.norm(blocks.Y))
    z_norm = float(np.linalg.norm(blocks.Z))
    n = blocks.n
    eye = np.eye(n)
    if z_norm <= struct_tol and y_norm < 1.0 - tol:
        gram = np.outer(blocks.Y.conj(), blocks.Y)
        checks = {
            "U_equals_gram": float(np.linalg.norm(blocks.U - gram)),
            "B_equals_complement": float(np.linalg.norm(blocks.B - (eye - gram))),
            "T_zero": float(np.linalg.norm(blocks.T)),
        }
        verdict = cp_check(blocks)
        ok = all(v <= tol for v in checks.values()) and verdict.holds
        return DegenerateClass("cp" if ok else "not_applicable", checks, verdict)
    if y_norm <= struct_tol and z_norm < 1.0 - tol:
        gram = np.outer(blocks.Z.conj(), blocks.Z)
        checks = {
            "U_equals_gram": float(np.linalg.norm(blocks.U - gram)),
            "B_equals_complement": float(np.linalg.norm(blocks.B - (eye - gram))),
            "T_zero": float(np.linalg.norm(blocks.T)),
        }
        verdict = ccp_check(blocks)
        ok = all(v <= tol for v in checks.values()) and verdict.holds
        return DegenerateClass("cocp" if ok else "not_applicable", checks, verdict)
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


def canonicalize(
    blocks: ChoiBlocks,
    rank_tol: float = DEPENDENCE_TOL,
    zero_tol: float = 1e-9,
    equality_tol: float = 1e-8,
) -> CanonicalForm:
    """Rotate an equality-case map to its canonical shape and read it off.

    The rotation fixes f1 and sends the common direction of Y* and Z* to the
    last basis vector; a phase is absorbed so that y (or z when y vanishes)
    is real nonnegative.  The forced zero pattern is verified: the (n-1)
    square corner of T must vanish, U must be supported on its last diagonal
    entry, and B must equal the identity off that entry.  Violations raise
    :class:`ZeroPatternViolationError` (typically meaning the input was not a
    genuine positive equality-case map); missing dependence of Y and Z raises
    :class:`NotDependentError`.
    """
    dep = check_row_dependence(blocks, rank_tol=rank_tol)
    if not dep.dependent:
        raise NotDependentError(
            f"rows Y and Z are independent (singular values {dep.singular_values})"
        )
    n = blocks.n
    eta0 = dep.eta0
    Gn = _householder_to_last(eta0)
    # Absorb a phase so the read-off y (fallback z) is real nonnegative.
    y_raw = complex(np.dot(blocks.Y, Gn[:, -1]))
    anchor = y_raw if abs(y_raw) > 1e-12 else complex(np.dot(blocks.Z, Gn[:, -1]))
    if abs(anchor) > 1e-12:
        Gn = Gn.copy()
        Gn[:, -1] *= np.conj(anchor) / abs(anchor)

    Bc = Gn.conj().T @ blocks.B @ Gn
    Uc = Gn.conj().T @ blocks.U @ Gn
    Tc = Gn.conj().T @ blocks.T @ Gn
    Yc = blocks.Y @ Gn
    Zc = blocks.Z @ Gn

    offenders = []
    corner = float(np.max(np.abs(Tc[: n - 1, : n - 1]))) if n > 1 else 0.0
    if corner > zero_tol:
        offenders.append(f"T corner {corner:.3e}")
    u_mask = np.ones((n, n), dtype=bool)
    u_mask[-1, -1] = False
    u_off = float(np.max(np.abs(Uc[u_mask])))
    if u_off > zero_tol:
        offenders.append(f"U off-direction {u_off:.3e}")
    b_dev = float(np.max(np.abs((Bc - np.eye(n))[u_mask])))
    if b_dev > max(zero_tol, 1e-9):
        offenders.append(f"B off-pattern {b_dev:.3e}")
    row_off = max(
        float(np.max(np.abs(Yc[: n - 1]))) if n > 1 else 0.0,
        float(np.max(np.abs(Zc[: n - 1]))) if n > 1 else 0.0,
    )
    if row_off > zero_tol:
        offenders.append(f"Y/Z off-direction {row_off:.3e}")
    if offenders:
        raise ZeroPatternViolationError(
            "canonical zero pattern violated: " + ", ".join(offenders),
            residual=max(corner, u_off, b_dev, row_off),
        )
    y = complex(Yc[-1])
    z = complex(Zc[-1])
    u = float(Uc[-1, -1].real)
    if abs(u - (abs(y) + abs(z)) ** 2) > equality_tol:
        raise ZeroPatternViolationError(
            f"u = {u:.6e} differs from (|y|+|z|)^2 = {(abs(y)+abs(z))**2:.6e}",
            residual=abs(u - (abs(y) + abs(z)) ** 2),
        )
    G = np.zeros((n + 1, n + 1), dtype=np.complex128)
    G[0, 0] = 1.0
    G[1:, 1:] = Gn
    return CanonicalForm(
        y=y,
        z=z,
        u=u,
        t=complex(Tc[-1, -1]),
        W_row=Tc[: n - 1, n - 1].conj().copy(),
        V_row=Tc[n - 1, : n - 1].copy(),
        basis_change=G,
    )


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


def compress(canon: CanonicalForm, rho, tol: float = 1e-9) -> CompressResult:
    """Compress the canonical map with the coisometry built from rho.

    ``rho`` must be a unit vector of length n.  The coisometry
    ``V = [[conj(rho), 0], [0...0, 1]]`` satisfies ``V V* = I_2``; the
    compressed map has Choi scalars read from ``Y1 = [conj(y), W]`` and
    ``Z1 = [conj(z), V_row]``.  The direct blockwise compression is computed
    as well and must agree with the closed form.
    """
    r = np.asarray(rho, dtype=np.complex128).ravel()
    n = canon.n
    if r.shape[0] != n:
        raise NotUnitVectorError(f"rho must have length {n}, got {r.shape[0]}")
    if abs(np.linalg.norm(r) - 1.0) > 1e-9:
        raise NotUnitVectorError(f"rho has norm {np.linalg.norm(r)!r}, expected 1")
    Y1 = np.concatenate(([np.conj(canon.y)], canon.W_row))
    Z1 = np.concatenate(([np.conj(canon.z)], canon.V_row))
    y_c = complex(np.vdot(r, Y1.conj()))
    z_c = complex(np.vdot(r, Z1.conj()))

    Vco = np.zeros((2, n + 1), dtype=np.complex128)
    Vco[0, :n] = r.conj()
    Vco[1, n] = 1.0
    gram = Vco @ Vco.conj().T
    if np.linalg.norm(gram - np.eye(2)) > 1e-9:
        raise PosmapError("compression is not a coisometry")
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
    conds = scalar_choi_conditions(1.0, 1.0 - u, u, 0.0, y_c, z_c, canon.t, tol=tol)
    return CompressResult(
        b=1.0 - u, u=u, y=y_c, z=z_c, t=canon.t,
        margin=margin, conditions=conds, choi_2x2=small,
    )


def face_intersection_check(
    choi: ChoiMatrix, eta0, face_tol: float = 1e-8
) -> bool:
    """Does the map lie in every face indexed by vectors orthogonal to eta0?

    ``eta0`` lives in the lower n coordinates; the check verifies
    ``phi(P_{e2}) w = 0`` for a basis of the orthogonal complement of the
    embedded eta0 in C^{n+1}.
    """
    e = np.asarray(eta0, dtype=np.complex128).ravel()
    n = choi.n
    if e.shape[0] != n:
        raise NotUnitVectorError(f"eta0 must have length {n}")
    embedded = np.zeros(n + 1, dtype=np.complex128)
    embedded[1:] = e / np.linalg.norm(e)
    Gfull = _householder_to_last(embedded)
    xi = np.array([0.0, 1.0], dtype=np.complex128)
    for k in range(n):
        member = face_membership(choi, xi, Gfull[:, k], face_tol=face_tol)
        if not member.member:
            return False
    return True


def random_equality_blocks(
    n: int,
    rng: np.random.Generator,
    coupling_scale: float = 0.08,
    budget: int = 32,
    max_tries: int = 60,
) -> tuple[ChoiBlocks, dict]:
    """Sample a positivity-certified equality-case map in canonical shape.

    The sampler draws y, z with random phases, sets ``u = (|y| + |z|)^2``,
    and draws the T data inside the phase constraints positivity imposes
    near the saturated direction (t in quadrature with the y-z alignment
    phase, V locked to W).  Candidates failing the positivity certificate
    are rejected and resampled.
    """
    for _ in range(max_tries):
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
        ) * coupling_scale
        V = -np.exp(-2j * theta_star) * W
        canon = CanonicalForm(
            y=y, z=z, u=u, t=t,
            W_row=W.astype(np.complex128),
            V_row=V.astype(np.complex128),
            basis_change=np.eye(n + 1, dtype=np.complex128),
        )
        blocks = canon.blocks()
        verdict = certify_positivity(blocks, budget=budget, seed=int(rng.integers(2**31)))
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
