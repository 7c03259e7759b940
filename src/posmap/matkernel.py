"""Dense Hermitian linear algebra for small complex matrices.

All routines operate on numpy ``complex128`` arrays, never mutate their
arguments, and are sized for the matrices this package actually meets
(dimension <= ~64).  Input is validated where it enters: every routine that
factors a matrix passes it through :func:`require_hermitian` and factors the
exactly Hermitian copy.  LAPACK's Hermitian eigensolver
(:func:`numpy.linalg.eigh`) is backward stable, so its result is not
re-checked; a LAPACK failure surfaces as :class:`NoConvergenceError`.

Hot loops call LAPACK directly on matrices Hermitian by construction, and a
failure there surfaces as :class:`numpy.linalg.LinAlgError`: the positivity
engine (``positivity._bloch_min``), the projection's cone steps
(``cpdecomp._project``, on the symmetrized iterate), and the state and
certificate checks (``cpdecomp._is_ppt_state``,
``cpdecomp._certificate_numbers``).

Tolerances are constants: ``HERM_TOL_SCALE`` sets the default Hermiticity
limit of :func:`require_hermitian`, ``EIG_CLAMP_TOL`` the negative eigenvalues
:func:`psd_sqrt` clamps, ``PSD_TOL`` the PSD verdict of :func:`psd_check` and
``RANK_TOL`` the singularity test of :func:`psd_inv_sqrt`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NoConvergenceError,
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
    if matrix.shape[0] != matrix.shape[1]:
        raise NotSquareError(f"matrix of shape {matrix.shape} is not square")
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
    does.

    Raises
    ------
    NotSquareError, NotHermitianError
        If the input is not square, or not Hermitian within the default
        tolerance.
    NoConvergenceError
        If LAPACK fails.
    """
    Mh = require_hermitian(matrix)
    try:
        return np.linalg.eigh(Mh)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc


def psd_sqrt(matrix) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in ``[-EIG_CLAMP_TOL, 0)`` are clamped to zero; anything more
    negative raises :class:`NotPSDError`.
    """
    vals, V = hermitian_eig(matrix)
    if vals[0] < -EIG_CLAMP_TOL:
        raise NotPSDError(f"matrix has eigenvalue {vals[0]:.3e} < -{EIG_CLAMP_TOL:.1e}")
    clamped = np.clip(vals, 0.0, None)
    S = (V * np.sqrt(clamped)) @ V.conj().T
    return (S + S.conj().T) / 2.0


def psd_inv_sqrt(matrix) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix.

    Raises :class:`SingularMatrixError` if any eigenvalue is <= ``RANK_TOL``.
    """
    vals, V = hermitian_eig(matrix)
    if vals[0] <= RANK_TOL:
        raise SingularMatrixError(
            f"matrix has eigenvalue {vals[0]:.3e} <= rank tolerance {RANK_TOL:.1e}"
        )
    R = (V / np.sqrt(vals)) @ V.conj().T
    return (R + R.conj().T) / 2.0


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
    P = (V * np.clip(vals, 0.0, None)) @ V.conj().T
    return (P + P.conj().T) / 2.0


def partial_transpose(matrix, block_dim: int) -> np.ndarray:
    """Swap the off-diagonal blocks of a 2x2-block matrix.

    The input is viewed as a 2x2 array of ``block_dim x block_dim`` blocks;
    blocks (1,2) and (2,1) are exchanged.  This is transposition applied to
    the outer 2x2 index and is an involution.
    """
    H = as_matrix(matrix)
    require_square(H)
    d = int(block_dim)
    if d <= 0 or H.shape[0] != 2 * d:
        raise DimensionMismatchError(
            f"matrix of size {H.shape[0]} is not 2 x block_dim = {2 * d}"
        )
    out = H.copy()
    out[:d, d:] = H[d:, :d]
    out[d:, :d] = H[:d, d:]
    return out


def lowest_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of ``(M + M*)/2``, for margins Hermitian up to rounding.

    No Hermiticity defect is computed: its norm would overflow on matrices
    whose entries are near the square root of the largest float.
    """
    M = require_square(as_matrix(matrix))
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
