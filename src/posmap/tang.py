"""The Tang two-parameter family of nondecomposable maps and its normalization.

For parameters ``0 < mu < 1`` and ``0 < eps <= mu^2 / 6`` the raw map
``phi0`` sends a 2x2 matrix ``[[a, b], [c, d]]`` to the 4x4 matrix

    [[(1-eps) a + mu^2 d,  -b,      mu c,      -mu d],
     [-c,                  a + 2d,  -2b,        0   ],
     [mu b,                -2c,     2a + 2d,   -2b  ],
     [-mu d,                0,      -2c,        a + d]].

The normalization pipeline rescales to the unital map
``phi1 = R phi0(.) R`` with ``R = phi0(I)^{-1/2}`` and then rotates by an
orthogonal involution ``W`` so that the final map ``A -> W* phi1(A) W`` lands
in the face normalized by ``phi(P_{e2}) f1 = 0``.  ``R`` is determined by
constants ``alpha, beta > 0`` and ``gamma < 0`` solving

    alpha^2 + gamma^2 = rho^2,   beta^2 + gamma^2 = 2,
    (alpha + beta) gamma = -mu,

with ``rho = sqrt(1 - eps + mu^2)`` and ``delta = sqrt(2 - 2 eps + mu^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import STRUCT_TOL, ChoiMatrix, choi_from_map, conjugate_choi, extract_blocks
from .cpdecomp import ccp_check, cp_check, witness_search
from .exceptions import BadParamsError, PosmapError
from .matkernel import as_matrix, frobenius, psd_inv_sqrt
from .positivity import (
    CERTIFIED,
    RelationCheck,
    certify_positivity,
    coupling_bound_check,
    face_membership,
)

SQRT3 = np.sqrt(3.0)

#: Distance within which the computed coupling entry matches a closed form.
MATCH_TOL = 1e-9

#: Range of mu swept by :func:`param_grid`.
GRID_MU = (0.1, 0.9)


@dataclass(frozen=True)
class TangParams:
    """Admissible parameter pair: 0 < mu < 1 and 0 < eps <= mu^2 / 6."""

    mu: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise BadParamsError(f"mu must lie in (0, 1), got {self.mu}")
        if not (0.0 < self.eps <= self.mu**2 / 6.0):
            raise BadParamsError(
                f"eps must lie in (0, mu^2/6] = (0, {self.mu**2 / 6.0}], got {self.eps}"
            )

    @property
    def rho(self) -> float:
        return float(np.sqrt(1.0 - self.eps + self.mu**2))

    @property
    def delta(self) -> float:
        return float(np.sqrt(2.0 - 2.0 * self.eps + self.mu**2))


def phi0_apply(params: TangParams, A) -> np.ndarray:
    """Action of the raw map on a 2x2 matrix."""
    M = as_matrix(A)
    if M.shape != (2, 2):
        raise BadParamsError(f"expected a 2x2 argument, got shape {M.shape}")
    a, b = M[0, 0], M[0, 1]
    c, d = M[1, 0], M[1, 1]
    mu, eps = params.mu, params.eps
    return np.array(
        [
            [(1 - eps) * a + mu**2 * d, -b, mu * c, -mu * d],
            [-c, a + 2 * d, -2 * b, 0],
            [mu * b, -2 * c, 2 * a + 2 * d, -2 * b],
            [-mu * d, 0, -2 * c, a + d],
        ],
        dtype=np.complex128,
    )


def tang_choi(params: TangParams) -> ChoiMatrix:
    """Choi matrix of the raw map, assembled entrywise.

    Agrees exactly with ``choi_from_map(phi0_apply)``; the direct assembly
    keeps construction independent of the generic path for cross-checks.
    """
    mu, eps = params.mu, params.eps
    H = np.zeros((8, 8), dtype=np.complex128)
    H[0, 0] = 1 - eps
    H[1, 1] = 1.0
    H[2, 2] = 2.0
    H[3, 3] = 1.0
    H[4, 4] = mu**2
    H[5, 5] = 2.0
    H[6, 6] = 2.0
    H[7, 7] = 1.0
    H[0, 5] = H[5, 0] = -1.0
    H[1, 6] = H[6, 1] = -2.0
    H[2, 4] = H[4, 2] = mu
    H[2, 7] = H[7, 2] = -2.0
    H[4, 7] = H[7, 4] = -mu
    return ChoiMatrix.from_array(H)


def closed_form_constants(params: TangParams) -> tuple[float, float, float]:
    """Closed-form solution of the corner system.

    With ``D = sqrt(2 + rho^2 + 2 delta)``:
    ``alpha = (rho^2 + delta)/D``, ``beta = (2 + delta)/D``,
    ``gamma = -mu/D``.
    """
    rho2 = params.rho**2
    delta = params.delta
    D = np.sqrt(2.0 + rho2 + 2.0 * delta)
    return float((rho2 + delta) / D), float((2.0 + delta) / D), float(-params.mu / D)


#: Nonzero positions of the normalized Choi matrix (upper triangle, 0-based).
NORMALIZED_PATTERN = (
    (0, 0), (1, 1), (2, 2), (3, 3), (5, 5), (6, 6), (7, 7),
    (0, 5), (1, 6), (2, 4), (2, 7), (3, 5),
)


def normalized_zero_mask() -> np.ndarray:
    """Boolean 8x8 mask of the printed-zero positions of the normalized form."""
    mask = np.ones((8, 8), dtype=bool)
    for i, j in NORMALIZED_PATTERN:
        mask[i, j] = False
        mask[j, i] = False
    return mask


@dataclass(frozen=True)
class TangPipeline:
    """All quantities produced by normalizing the raw map into face form."""

    params: TangParams
    rho: float
    delta: float
    alpha: float
    beta: float
    gamma: float
    inv_sqrt: np.ndarray
    W: np.ndarray
    H0: ChoiMatrix
    Hfinal: ChoiMatrix

    def residuals(self) -> dict[str, float]:
        """Self-check residuals: unitality, the constant identities, W, zeros."""
        mu = self.params.mu
        abc = max(
            abs(self.alpha**2 + self.gamma**2 - self.rho**2),
            abs(self.beta**2 + self.gamma**2 - 2.0),
            abs((self.alpha + self.beta) * self.gamma + mu),
        )
        w_id = abs(
            (mu * self.gamma + self.alpha) ** 2
            + (mu * self.beta + self.gamma) ** 2
            - self.rho**2
        )
        unitary = frobenius(self.W.conj().T @ self.W - np.eye(4))
        unital = frobenius(self.Hfinal.map_of_identity() - np.eye(4))
        zeros = float(np.max(np.abs(self.Hfinal.H[normalized_zero_mask()])))
        return {
            "corner_system": abc,
            "rotation_identity": w_id,
            "W_unitarity": unitary,
            "unitality": unital,
            "zero_pattern": zeros,
        }


def build_pipeline(params: TangParams) -> TangPipeline:
    """Run the full normalization: constants, R, W, and both Choi matrices."""
    rho, delta = params.rho, params.delta
    alpha, beta, gamma = closed_form_constants(params)
    R = np.array(
        [
            [beta / delta, 0, 0, -gamma / delta],
            [0, 1 / SQRT3, 0, 0],
            [0, 0, 0.5, 0],
            [-gamma / delta, 0, 0, alpha / delta],
        ],
        dtype=np.complex128,
    )
    direct = psd_inv_sqrt(phi0_apply(params, np.eye(2)))
    if frobenius(R - direct) > 1e-9:
        raise PosmapError(
            "assembled inverse square root disagrees with the spectral one"
        )
    c = (params.mu * gamma + alpha) / rho
    s = (params.mu * beta + gamma) / rho
    W = np.array(
        [[c, 0, 0, s], [0, 1, 0, 0], [0, 0, 1, 0], [s, 0, 0, -c]],
        dtype=np.complex128,
    )

    def phi_final(A):
        return W.conj().T @ (R @ phi0_apply(params, A) @ R) @ W

    return TangPipeline(
        params=params,
        rho=rho,
        delta=delta,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        inv_sqrt=R,
        W=W,
        H0=tang_choi(params),
        Hfinal=choi_from_map(phi_final, 3),
    )


def blockwise_final_choi(pipeline: TangPipeline) -> ChoiMatrix:
    """The normalized Choi matrix by conjugating each raw Choi block.

    ``H -> (I (x) (RW))* H (I (x) RW)`` applied blockwise; agrees with the
    map-action route and serves as an independent construction.
    """
    return conjugate_choi(conjugate_choi(pipeline.H0, pipeline.inv_sqrt), pipeline.W)


@dataclass(frozen=True)
class YEntryResolution:
    """Which closed form matches the computed top-right coupling entry.

    The candidates are ``-1/(sqrt(3) rho)`` and ``-1/(sqrt(3) delta)``;
    ``variant`` is ``"rho"``, ``"delta"`` or ``"neither"`` at ``MATCH_TOL``.
    """

    variant: str
    observed: complex
    rho_candidate: float
    delta_candidate: float


def resolve_y_entry(pipeline: TangPipeline) -> YEntryResolution:
    observed = complex(pipeline.Hfinal.H[0, 5])
    rho_c = -1.0 / (SQRT3 * pipeline.rho)
    delta_c = -1.0 / (SQRT3 * pipeline.delta)
    if abs(observed - rho_c) <= MATCH_TOL:
        variant = "rho"
    elif abs(observed - delta_c) <= MATCH_TOL:
        variant = "delta"
    else:
        variant = "neither"
    return YEntryResolution(variant, observed, rho_c, delta_c)


def param_grid(k: int) -> list[TangParams]:
    """A k x k sweep of the admissible region over ``GRID_MU``, including the eps boundary.

    ``k < 1`` raises :class:`BadParamsError`.
    """
    if k < 1:
        raise BadParamsError(f"grid size must be at least 1, got {k}")
    if k == 1:
        return [TangParams(0.9, 0.12)]
    grid = []
    for mu in np.linspace(*GRID_MU, k):
        for frac in np.linspace(0.2, 1.0, k):
            grid.append(TangParams(float(mu), float(frac * mu**2 / 6.0)))
    return grid


@dataclass(frozen=True)
class TangReport:
    """Consolidated verification of one parameter point."""

    params: TangParams
    pipeline: TangPipeline
    checks: dict[str, RelationCheck]
    y_entry: YEntryResolution

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())


def verify_tang(params: TangParams, budget: int = 64, seed: int = 0) -> TangReport:
    """Run the whole battery of structural checks on one parameter point.

    Covers: the printed zero pattern (``zero_pattern``: every entry of the
    normalized Choi matrix under :func:`normalized_zero_mask` is at most
    ``STRUCT_TOL``, read from :meth:`TangPipeline.residuals`; it makes C
    vanish, B and U diagonal, Y, Z and C mutually orthogonal and T zero off
    its three printed slots); those three slots nonzero (``T_slots``);
    membership in the face of (e2, f1); the strict coupling bound; a
    positivity certificate; failure of both complete positivity and complete
    copositivity; and a PPT witness against decomposability.
    """
    pipe = build_pipeline(params)
    blocks = extract_blocks(pipe.Hfinal)
    checks: dict[str, RelationCheck] = {}

    zeros = pipe.residuals()["zero_pattern"]
    checks["zero_pattern"] = RelationCheck(
        zeros <= STRUCT_TOL, None, f"max masked entry {zeros:.2e}"
    )
    smallest = min(abs(blocks.T[i, j]) for i, j in ((0, 1), (1, 2), (2, 0)))
    checks["T_slots"] = RelationCheck(smallest > 1e-6, None, f"smallest slot {smallest:.2e}")
    fm = face_membership(pipe.Hfinal, np.array([0.0, 1.0]), np.eye(4)[:, 0])
    checks["face_member"] = RelationCheck(fm.member, None, f"residual {fm.residual:.2e}")
    cb = coupling_bound_check(blocks)
    checks["coupling_strict"] = RelationCheck(
        cb.holds and cb.strict, None, f"margin {cb.margin:.3e}"
    )
    pos = certify_positivity(blocks, budget=budget, seed=seed)
    checks["positive"] = RelationCheck(
        pos.status == CERTIFIED, None, f"margin {pos.margin:.3e}"
    )
    cp = cp_check(blocks)
    checks["not_cp"] = RelationCheck(
        not cp.holds, None, f"min eig {cp.direct_min_eig:.3e}"
    )
    ccp = ccp_check(blocks)
    checks["not_ccp"] = RelationCheck(
        not ccp.holds, None, f"min eig {ccp.direct_min_eig:.3e}"
    )
    wit = witness_search(pipe.Hfinal)
    checks["witnessed_nondecomposable"] = RelationCheck(
        wit.found, None, f"stop {wit.stop} after {wit.iterations} iterations"
    )
    return TangReport(params, pipe, checks, resolve_y_entry(pipe))
