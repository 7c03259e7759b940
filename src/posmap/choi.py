"""Choi matrices of linear maps from 2x2 matrices to (n+1)x(n+1) matrices.

A map phi is represented by the 2x2 block matrix ``H = [phi(E_ij)]`` over the
standard matrix units of the domain.  For maps normalized into the maximal
face singled out by ``phi(P_{e2}) f1 = 0`` the second diagonal block has a
zero first row and column, and ``H`` decomposes into the named pieces

    H = [[a,  C | x,  Y ],
         [C*, B | Z*, T ],
         [x~, Z | 0,  0 ],
         [Y*, T*| 0,  U ]]

with ``a`` a scalar, ``C, Y, Z`` rows of length n, and ``B, T, U`` square of
size n (``x~`` denotes the conjugate of ``x``).  Row vectors are kept as 1-D
numpy arrays in the row orientation; ``X*`` always means the conjugate
transpose (a column), so e.g. ``X* X = outer(conj(X), X)``.

The face checks every module uses are decided here: ``STRUCT_TOL`` decides
the face-form zero pattern (:attr:`ChoiMatrix.face_form_offenders`) and
every other structural zero in the package, and ``UNITAL_TOL`` the unital
face form ``a = 1, C = 0, x = 0, B + U = I`` (:func:`unital_face_defects`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotInFaceFormError,
)
from .matkernel import (
    PsdVerdict,
    as_matrix,
    frobenius,
    herm_tol,
    partial_transpose,
    psd_check,
    require_hermitian,
    require_square,
)

#: Absolute tolerance for the zero pattern of the face form.
STRUCT_TOL = 1e-9

#: Absolute tolerance for a = 1, C = 0, x = 0 and B + U = I in the unital face form.
UNITAL_TOL = 1e-8


@functools.cache
def _face_pattern(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the face-form zero pattern of a ``2d``-square
    Choi matrix, in the order :attr:`ChoiMatrix.face_form_offenders` lists
    them: ``(d, d)``, then ``(d, d + k)`` and ``(d + k, d)`` for k = 1, 2,
    ..., and last ``(0, d)``.  Read-only, built once per ``d``."""
    k = d + np.arange(1, d)
    edge = np.full(d - 1, d)
    rows = np.concatenate([[d], np.stack([edge, k], axis=1).ravel(), [0]])
    cols = np.concatenate([[d], np.stack([k, edge], axis=1).ravel(), [d]])
    for index in (rows, cols):
        index.setflags(write=False)
    return rows, cols


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a Hermiticity-preserving map into (n+1)x(n+1) matrices.

    :meth:`from_array` validates its input and stores an exactly Hermitian
    ``H``, which ``cpdecomp`` relies on: its projection and
    ``kadison_constraints`` read ``H`` as stored, without a Hermiticity check.
    :attr:`psd_verdicts`, :attr:`face_form_offenders` and the projection runs
    of ``cpdecomp`` (one per face and iteration cap, see
    ``cpdecomp.decompose``) are computed once per instance and cached, so
    ``H`` must not be mutated after it is read, and the cached results,
    which every caller shares, must not be mutated.
    """

    n: int
    H: np.ndarray

    @classmethod
    def from_array(cls, matrix) -> "ChoiMatrix":
        H = require_square(as_matrix(matrix))
        if not np.all(np.isfinite(H)):
            raise NonFiniteError("Choi matrix has NaN or infinite entries")
        dim = H.shape[0]
        if dim % 2 != 0 or dim < 4:
            raise DimensionMismatchError(
                f"Choi matrix size must be 2(n+1) with n >= 1, got {dim}"
            )
        with np.errstate(over="ignore"):
            norm = frobenius(H)
        if not np.isfinite(norm):
            raise NonFiniteError("Choi matrix Frobenius norm overflows")
        # Stored exactly Hermitian, so every block passes its own, tighter
        # Hermiticity check; an exactly Hermitian input keeps its bits.
        return cls(n=dim // 2 - 1, H=require_hermitian(H))

    @property
    def dim(self) -> int:
        """Codomain dimension n + 1."""
        return self.n + 1

    @functools.cached_property
    def psd_verdicts(self) -> tuple[PsdVerdict, PsdVerdict]:
        """``(psd_check(H), psd_check(PT(H)))``: whether the map is CP and coCP.

        Cached, so the split search and the report read one pair of checks.
        """
        return psd_check(self.H), psd_check(partial_transpose(self.H, self.dim))

    @functools.cached_property
    def face_form_offenders(self) -> tuple[tuple[int, int, float], ...]:
        """Entries ``(row, col, modulus)`` of the face-form zero pattern above
        ``STRUCT_TOL``; empty means ``H`` is in face form.

        The pattern is the first row and column of the second diagonal block,
        listed as ``(d, d + k)`` and then ``(d + k, d)`` for k = 0, 1, ...
        (the corner once), and last the scalar ``x = H[0, d]``.  Cached, so
        the split search and :func:`extract_blocks` read one list.
        """
        rows, cols = _face_pattern(self.dim)
        entries = self.H[rows, cols]
        # hypot gives the bits of the scalar abs(); np.abs of a complex
        # array can differ from it in the last place.
        moduli = np.hypot(entries.real, entries.imag)
        hit = moduli > STRUCT_TOL
        return tuple(zip(rows[hit].tolist(), cols[hit].tolist(), moduli[hit].tolist()))

    @functools.cached_property
    def _projection_runs(self) -> dict:
        """The projection runs ``cpdecomp`` made on ``H``, keyed by
        ``(face, max_iters)``; filled by ``cpdecomp._run``."""
        return {}

    def block(self, i: int, j: int) -> np.ndarray:
        """The block phi(E_ij), with i, j in {1, 2}."""
        if i not in (1, 2) or j not in (1, 2):
            raise DimensionMismatchError("block indices must be 1 or 2")
        d = self.dim
        return self.H[(i - 1) * d : i * d, (j - 1) * d : j * d]

    def map_of_identity(self) -> np.ndarray:
        """phi(I) = phi(E_11) + phi(E_22)."""
        return self.block(1, 1) + self.block(2, 2)


@dataclass(frozen=True)
class ChoiBlocks:
    """Named pieces of a face-form Choi matrix.

    ``x`` is carried for completeness; for positive maps in the face it
    vanishes, and extraction enforces that within ``STRUCT_TOL``.
    """

    a: float
    x: complex
    C: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    B: np.ndarray
    T: np.ndarray
    U: np.ndarray

    @property
    def n(self) -> int:
        return self.C.shape[0]


def choi_from_map(phi: Callable[[np.ndarray], np.ndarray], n: int) -> ChoiMatrix:
    """Assemble the Choi matrix of a map from its action on matrix units.

    ``phi`` must accept a 2x2 complex array and return an (n+1)x(n+1) array.
    The diagonal blocks must be Hermitian and ``phi(E_21)`` must equal
    ``phi(E_12)*`` within tolerance (Hermiticity preservation).
    """
    d = n + 1
    units = {}
    for i in (1, 2):
        for j in (1, 2):
            E = np.zeros((2, 2), dtype=np.complex128)
            E[i - 1, j - 1] = 1.0
            blk = as_matrix(phi(E))
            if blk.shape != (d, d):
                raise DimensionMismatchError(
                    f"phi(E_{i}{j}) has shape {blk.shape}, expected {(d, d)}"
                )
            units[(i, j)] = blk
    for i in (1, 2):
        defect = frobenius(units[(i, i)] - units[(i, i)].conj().T)
        if defect > herm_tol(units[(i, i)]):
            raise NotHermitianError(
                f"phi(E_{i}{i}) is not Hermitian (defect {defect:.3e})"
            )
    cross = frobenius(units[(2, 1)] - units[(1, 2)].conj().T)
    if cross > herm_tol(units[(1, 2)]):
        raise NotHermitianError(
            f"phi(E_21) != phi(E_12)* (defect {cross:.3e}); map is not "
            "Hermiticity-preserving"
        )
    H = np.block([[units[(1, 1)], units[(1, 2)]], [units[(2, 1)], units[(2, 2)]]])
    return ChoiMatrix.from_array(H)


def apply_map(choi: ChoiMatrix, A) -> np.ndarray:
    """Evaluate the map on a 2x2 matrix: phi(A) = sum_ij A_ij phi(E_ij)."""
    M = as_matrix(A)
    if M.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 argument, got {M.shape}")
    out = np.zeros((choi.dim, choi.dim), dtype=np.complex128)
    for i in (1, 2):
        for j in (1, 2):
            out += M[i - 1, j - 1] * choi.block(i, j)
    return out


def extract_blocks(choi: ChoiMatrix) -> ChoiBlocks:
    """Split a face-form Choi matrix into its named pieces.

    The second diagonal block must be ``[[0, 0], [0, U]]`` and the scalar
    ``x`` must vanish, both within ``STRUCT_TOL``; violations raise
    :class:`NotInFaceFormError` listing the offending entries.
    """
    offenders = choi.face_form_offenders
    if offenders:
        raise NotInFaceFormError(
            "Choi matrix violates the face-form zero pattern at "
            + ", ".join(f"({r},{c})={m:.3e}" for r, c, m in offenders),
            offenders=offenders,
        )
    P = choi.block(1, 1)
    S = choi.block(1, 2)
    Q = choi.block(2, 2)
    return ChoiBlocks(
        a=float(P[0, 0].real),
        x=complex(choi.H[0, choi.dim]),
        C=P[0, 1:].copy(),
        Y=S[0, 1:].copy(),
        Z=S[1:, 0].conj().copy(),
        B=P[1:, 1:].copy(),
        T=S[1:, 1:].copy(),
        U=Q[1:, 1:].copy(),
    )


def unital_face_defects(blocks: ChoiBlocks) -> list[str]:
    """Which of a = 1, C = 0, x = 0 and B + U = I fail at ``UNITAL_TOL``.

    Empty when the blocks are in unital face form: together the four are
    phi(I) = I for a face-form map.  ``B + U - I`` is measured in the
    Frobenius norm.
    """
    bad = []
    if abs(blocks.a - 1.0) > UNITAL_TOL:
        bad.append(f"a = {blocks.a!r}")
    if np.linalg.norm(blocks.C) > UNITAL_TOL:
        bad.append(f"||C|| = {np.linalg.norm(blocks.C):.3e}")
    if abs(blocks.x) > UNITAL_TOL:
        bad.append(f"|x| = {abs(blocks.x):.3e}")
    defect = frobenius(blocks.B + blocks.U - np.eye(blocks.n))
    if defect > UNITAL_TOL:
        bad.append(f"||B + U - I|| = {defect:.3e}")
    return bad


def assemble_blocks(blocks: ChoiBlocks) -> ChoiMatrix:
    """Rebuild the face-form Choi matrix from its named pieces."""
    n = blocks.n
    d = n + 1
    H = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    H[0, 0] = blocks.a
    H[0, 1:d] = blocks.C
    H[1:d, 0] = blocks.C.conj()
    H[1:d, 1:d] = blocks.B
    H[0, d] = blocks.x
    H[d, 0] = np.conj(blocks.x)
    H[0, d + 1 :] = blocks.Y
    H[d + 1 :, 0] = blocks.Y.conj()
    H[1:d, d] = blocks.Z.conj()
    H[d, 1:d] = blocks.Z
    H[1:d, d + 1 :] = blocks.T
    H[d + 1 :, 1:d] = blocks.T.conj().T
    H[d + 1 :, d + 1 :] = blocks.U
    return ChoiMatrix.from_array(H)


def conjugate_choi(choi: ChoiMatrix, K) -> ChoiMatrix:
    """Choi matrix of the map A -> K* phi(A) K for a square matrix K."""
    Km = as_matrix(K)
    if Km.shape != (choi.dim, choi.dim):
        raise DimensionMismatchError(
            f"conjugator has shape {Km.shape}, expected {(choi.dim, choi.dim)}"
        )
    Kc = Km.conj().T
    blocks = [[Kc @ choi.block(i, j) @ Km for j in (1, 2)] for i in (1, 2)]
    return ChoiMatrix.from_array(np.block(blocks))


def row_abs(X) -> np.ndarray:
    """Absolute value |X| = (X* X)^{1/2} of a row vector, as an n x n matrix.

    For nonzero X this equals ``||X||`` times the rank-one projector onto
    xi_X, computed in closed form as ``outer(conj(X), X) / ||X||``.
    """
    v = np.asarray(X, dtype=np.complex128).ravel()
    n = v.shape[0]
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        return np.zeros((n, n), dtype=np.complex128)
    return np.outer(v.conj(), v) / nrm


def row_abs_product(X1, X2) -> np.ndarray:
    """Product |X1| |X2| via the closed form <xi_1, xi_2> X1* X2."""
    v1 = np.asarray(X1, dtype=np.complex128).ravel()
    v2 = np.asarray(X2, dtype=np.complex128).ravel()
    if v1.shape != v2.shape:
        raise DimensionMismatchError("row vectors must have equal length")
    n = v1.shape[0]
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        return np.zeros((n, n), dtype=np.complex128)
    ip = np.vdot(v1.conj() / n1, v2.conj() / n2)
    return ip * np.outer(v1.conj(), v2)
