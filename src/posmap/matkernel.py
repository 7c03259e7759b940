"""Dense Hermitian linear algebra for small complex matrices.

All routines operate on numpy ``complex128`` arrays, never mutate their
arguments, and are sized for the matrices this package actually meets
(dimension <= ~64).  Input is validated where it enters: every checked
routine that factors a matrix passes it through :func:`require_hermitian`
and factors the exactly Hermitian copy; a matrix that is not square, or is
empty, raises a posmap error.  LAPACK's Hermitian eigensolver
(:func:`numpy.linalg.eigh`) is backward stable, so its result is not
re-checked, and a LAPACK failure in any routine here surfaces, untranslated,
as :class:`numpy.linalg.LinAlgError`.

Two readers skip the check and factor the symmetrized copy ``(M + M*)/2``:
:func:`psd_part`, the projection's cone step, and :func:`eigenvalues`, the
spectra of a stack of matrices Hermitian up to rounding (margins, and the
state and certificate checks).  Besides the cone step, only the positivity
engine calls LAPACK directly: ``positivity.block_positive_2x2`` factors the
two blocks it has just validated in one call, and ``positivity._bloch_min``
runs its hot loop.
Each kernel has one implementation: :func:`partial_transpose` is a cached
index permutation (:func:`partial_transpose_index`, which reads the
``m x d`` layout from the matrix size and serves the ``2 x d`` Choi layout
and any other), and every matrix rebuilt from eigenpairs is one symmetrized
product (:func:`_rebuild`).

Tolerances are constants: ``HERM_TOL_SCALE`` sets the default Hermiticity
limit of :func:`require_hermitian`, ``EIG_CLAMP_TOL`` the negative eigenvalues
:func:`psd_sqrt` clamps, ``PSD_TOL`` the PSD verdict of :func:`psd_check` and
``RANK_TOL`` the singularity test of :func:`psd_inv_sqrt`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    SingularMatrixError,
)

#: Scale factor for the default Hermiticity tolerance.
HERM_TOL_SCALE = 1e-10

#: Eigenvalues in [-EIG_CLAMP_TOL, 0) are treated as rounding noise and clamped to 0.
EIG_CLAMP_TOL = 1e-10

#: Smallest eigenvalue at or above ``-PSD_TOL`` counts as PSD.
PSD_TOL = 1e-9

#: Eigenvalues at or below this make a matrix singular.
RANK_TOL = 1e-10


def as_matrix(matrix) -> np.ndarray:
    """Coerce input to a 2-D complex128 array (no copy if already one)."""
    out = np.asarray(matrix, dtype=np.complex128)
    if out.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def frobenius(matrix) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(matrix))


def herm_tol(matrix: np.ndarray) -> float:
    """Default Hermiticity tolerance, ``1e-10 * max(1, ||M||_F)``."""
    return HERM_TOL_SCALE * max(1.0, frobenius(matrix))


def require_square(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` itself, if it is square and not empty."""
    if matrix.shape[0] != matrix.shape[1]:
        raise NotSquareError(f"matrix of shape {matrix.shape} is not square")
    if matrix.shape[0] == 0:
        raise DimensionMismatchError("matrix is empty (0 x 0)")
    return matrix


def require_hermitian(matrix, tol: float | None = None) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized copy ``(M + M*)/2``.

    The symmetrized copy differs from the input by at most the verified
    defect, and downstream factorizations are exactly Hermitian on it.
    """
    M = require_square(as_matrix(matrix))
    limit = herm_tol(M) if tol is None else tol
    defect = frobenius(M - M.conj().T)
    if defect > limit:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds tolerance {limit:.3e}"
        )
    return (M + M.conj().T) / 2.0


def hermitian_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Returns ``(w, V)`` with ``M = V diag(w) V*``, as :func:`numpy.linalg.eigh`
    does, and raises what :func:`require_hermitian` and ``eigh`` raise.
    """
    return np.linalg.eigh(require_hermitian(matrix))


def _rebuild(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``W V*`` symmetrized, for ``W = V f(diag(w))`` from eigenpairs ``(w, V)``."""
    R = W @ V.conj().T
    return (R + R.conj().T) / 2.0


def psd_sqrt(matrix) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in ``[-EIG_CLAMP_TOL, 0)`` are clamped to zero; anything more
    negative raises :class:`NotPSDError`.
    """
    vals, V = hermitian_eig(matrix)
    if vals[0] < -EIG_CLAMP_TOL:
        raise NotPSDError(f"matrix has eigenvalue {vals[0]:.3e} < -{EIG_CLAMP_TOL:.1e}")
    return _rebuild(V * np.sqrt(np.clip(vals, 0.0, None)), V)


def psd_inv_sqrt(matrix) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix.

    Raises :class:`SingularMatrixError` if any eigenvalue is <= ``RANK_TOL``.
    """
    vals, V = hermitian_eig(matrix)
    if vals[0] <= RANK_TOL:
        raise SingularMatrixError(
            f"matrix has eigenvalue {vals[0]:.3e} <= rank tolerance {RANK_TOL:.1e}"
        )
    return _rebuild(V / np.sqrt(vals), V)


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a PSD test.

    When ``is_psd`` is false, ``witness`` is a unit vector with
    ``<w, M w> = min_eigenvalue < -PSD_TOL``.
    """

    is_psd: bool
    min_eigenvalue: float
    witness: np.ndarray | None = None


def psd_check(matrix) -> PsdVerdict:
    """Test positive semidefiniteness of a Hermitian matrix.

    Returns a verdict carrying either the minimum eigenvalue (PSD case) or a
    violating unit vector (non-PSD case).
    """
    vals, V = hermitian_eig(matrix)
    lam = float(vals[0])
    if lam >= -PSD_TOL:
        return PsdVerdict(True, lam, None)
    return PsdVerdict(False, lam, V[:, 0].copy())


def psd_project(matrix) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clamping at zero)."""
    vals, V = hermitian_eig(matrix)
    return _rebuild(V * np.clip(vals, 0.0, None), V)


def psd_part(A: np.ndarray) -> np.ndarray:
    """:func:`psd_project` of the symmetrized ``(A + A*)/2``, unchecked.

    For loops whose iterates are Hermitian up to rounding by construction,
    where the Hermiticity check would add two Frobenius norms per call.
    """
    vals, V = np.linalg.eigh((A + A.conj().T) / 2.0)
    return _rebuild(V * np.clip(vals, 0.0, None), V)


@functools.cache
def partial_transpose_index(size: int, d: int) -> np.ndarray:
    """Flat positions ``p`` such that ``M.take(p)`` is the partial transpose of
    every ``size``-square ``M`` on the first factor of its ``m x d`` layout.

    The layout is read from the matrix size, ``m = size // d``: ``M`` is an
    ``m x m`` array of ``d x d`` blocks, and block ``(i, k)`` moves to
    ``(k, i)``.  ``2 x d`` is the Choi layout of :func:`partial_transpose`;
    other layouts serve private callers.  Read-only, built once per layout.
    """
    m = size // d
    index = np.arange(size * size).reshape(m, d, m, d).transpose(2, 1, 0, 3)
    index = index.reshape(size, size)
    index.setflags(write=False)
    return index


def partial_transpose(matrix, block_dim: int) -> np.ndarray:
    """Swap the off-diagonal blocks of a 2x2-block matrix.

    The input is viewed as a 2x2 array of ``block_dim x block_dim`` blocks;
    blocks (1,2) and (2,1) are exchanged.  This is transposition applied to
    the outer 2x2 index and is an involution.
    """
    H = require_square(as_matrix(matrix))
    d = int(block_dim)
    if d != block_dim or H.shape[0] != 2 * d:
        raise DimensionMismatchError(
            f"matrix of size {H.shape[0]} is not 2 x block_dim = 2 x {block_dim}"
        )
    return H.take(partial_transpose_index(2 * d, d))


def eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``(M + M*)/2`` for each matrix ``M`` of a stack.

    For matrices Hermitian up to rounding; a ``(k, n, n)`` stack gives
    ``(k, n)`` spectra, one ``n``-square matrix one spectrum.  No Hermiticity
    defect is computed: its norm would overflow on matrices whose entries are
    near the square root of the largest float.
    """
    return np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2.0)


def lowest_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of ``(M + M*)/2``, for margins Hermitian up to rounding."""
    return float(eigenvalues(require_square(as_matrix(matrix)))[0])
