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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotInFaceFormError,
)
from .matkernel import as_matrix, frobenius, herm_tol, require_hermitian, require_square

#: Absolute tolerance for the zero pattern of the face form.
STRUCT_TOL = 1e-9


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a Hermiticity-preserving map into (n+1)x(n+1) matrices."""

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
        defect = frobenius(H - H.conj().T)
        if defect > herm_tol(H):
            raise NotHermitianError(
                f"Choi matrix has Hermiticity defect {defect:.3e}"
            )
        return cls(n=dim // 2 - 1, H=H)

    @property
    def dim(self) -> int:
        """Codomain dimension n + 1."""
        return self.n + 1

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


def extract_blocks(choi: ChoiMatrix, struct_tol: float = STRUCT_TOL) -> ChoiBlocks:
    """Split a face-form Choi matrix into its named pieces.

    The second diagonal block must be ``[[0, 0], [0, U]]`` and the scalar
    ``x`` must vanish, both within ``struct_tol``; violations raise
    :class:`NotInFaceFormError` listing the offending entries.
    """
    d = choi.dim
    n = choi.n
    H = choi.H
    offenders = []
    Q = choi.block(2, 2)
    for k in range(d):
        if abs(Q[0, k]) > struct_tol:
            offenders.append((d, d + k, abs(Q[0, k])))
        if k > 0 and abs(Q[k, 0]) > struct_tol:
            offenders.append((d + k, d, abs(Q[k, 0])))
    x = complex(H[0, d])
    if abs(x) > struct_tol:
        offenders.append((0, d, abs(x)))
    if offenders:
        raise NotInFaceFormError(
            "Choi matrix violates the face-form zero pattern at "
            + ", ".join(f"({r},{c})={m:.3e}" for r, c, m in offenders),
            offenders=offenders,
        )
    P = choi.block(1, 1)
    S = choi.block(1, 2)
    return ChoiBlocks(
        a=float(P[0, 0].real),
        x=x,
        C=P[0, 1:].copy(),
        Y=S[0, 1:].copy(),
        Z=S[1:, 0].conj().copy(),
        B=P[1:, 1:].copy(),
        T=S[1:, 1:].copy(),
        U=Q[1:, 1:].copy(),
    )


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


def unit_row_direction(X) -> np.ndarray:
    """Unit vector xi_X = X* / ||X|| associated with a nonzero row vector."""
    v = np.asarray(X, dtype=np.complex128).ravel()
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("zero row vector has no direction")
    return v.conj() / nrm


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
