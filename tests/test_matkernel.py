import numpy as np
import pytest

from posmap.exceptions import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    SingularMatrixError,
)
from posmap.matkernel import (
    eigenvalues,
    frobenius,
    hermitian_eig,
    lowest_eigenvalue,
    partial_transpose,
    partial_transpose_index,
    psd_check,
    psd_inv_sqrt,
    psd_part,
    psd_project,
    psd_sqrt,
)
from conftest import random_complex


def random_hermitian(rng, n, scale=1.0):
    G = random_complex(rng, (n, n), scale)
    return (G + G.conj().T) / 2


def same_bits(a, b):
    """Bitwise equality of two arrays: shape, dtype and every byte."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def near_hermitian(rng, n, defect=1e-13):
    """A Hermitian matrix plus a non-Hermitian perturbation of size ``defect``."""
    return random_hermitian(rng, n) + random_complex(rng, (n, n), defect)


def map_of_identity_4x4(mu, eps):
    # The 4x4 matrix the normalization pipeline has to invert: diagonal
    # (1 - eps + mu^2, 3, 4, 2) with -mu couplings in the outer corners.
    M = np.diag([1 - eps + mu**2, 3.0, 4.0, 2.0]).astype(complex)
    M[0, 3] = M[3, 0] = -mu
    return M


class TestHermitianEig:
    def test_diagonal(self):
        vals, vecs = hermitian_eig(np.diag([2.0, 1.0]))
        assert np.allclose(vals, [1.0, 2.0])
        assert np.allclose(np.abs(vecs), np.eye(2)[:, ::-1])

    def test_exchange_matrix_spectrum(self):
        vals, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0, 1.0])

    def test_random_reconstruction(self, rng):
        for _ in range(20):
            M = random_hermitian(rng, 8)
            vals, V = hermitian_eig(M)
            assert frobenius((V * vals) @ V.conj().T - M) <= 1e-9 * frobenius(M)
            gram = V.conj().T @ V
            assert frobenius(gram - np.eye(8)) < 1e-12
            assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("routine", [hermitian_eig, psd_check, psd_project],
                             ids=lambda f: f.__name__)
    def test_lapack_failure_raises_no_convergence(self, routine, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError):
            routine(np.eye(3))


class TestEmptyMatrix:
    """A 0 x 0 matrix is degenerate input, rejected where the kernels take a
    square matrix."""

    @pytest.mark.parametrize(
        "routine", [psd_check, psd_sqrt, psd_inv_sqrt, lowest_eigenvalue],
        ids=lambda f: f.__name__)
    def test_rejected(self, routine):
        with pytest.raises(DimensionMismatchError):
            routine(np.zeros((0, 0)))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_squaring_oracle_on_pipeline_matrix(self):
        M = map_of_identity_4x4(0.5, 1 / 24)
        S = psd_sqrt(M)
        assert frobenius(S @ S - M) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestPsdInvSqrt:
    def test_identity(self):
        assert np.allclose(psd_inv_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(psd_inv_sqrt(np.diag([4.0, 0.25])), np.diag([0.5, 2.0]))

    def test_sandwich_oracle_and_pattern(self):
        M = map_of_identity_4x4(0.5, 1 / 24)
        R = psd_inv_sqrt(M)
        assert frobenius(R @ M @ R - np.eye(4)) < 1e-10
        # Sparsity: inner diagonal entries are 1/sqrt(3) and 1/2; all
        # couplings outside the outer 2x2 corner vanish.
        assert abs(R[1, 1] - 1 / np.sqrt(3)) < 1e-12
        assert abs(R[2, 2] - 0.5) < 1e-12
        mask = np.zeros((4, 4), dtype=bool)
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (2, 2)):
            mask[i, j] = True
        assert np.max(np.abs(R[~mask])) < 1e-12

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrixError):
            psd_inv_sqrt(np.diag([1.0, 0.0]))


class TestPsdCheck:
    def test_boundary_psd(self):
        v = psd_check(np.diag([1.0, 0.0]))
        assert v.is_psd and abs(v.min_eigenvalue) < 1e-15

    def test_indefinite_witness(self):
        v = psd_check(np.diag([1.0, -1.0]))
        assert not v.is_psd
        assert abs(abs(v.witness[1]) - 1.0) < 1e-12
        quad = np.real(np.vdot(v.witness, np.diag([1.0, -1.0]) @ v.witness))
        assert quad < -1e-9

    def test_witness_self_verifies(self, rng):
        for _ in range(20):
            M = random_hermitian(rng, 6)
            v = psd_check(M)
            if not v.is_psd:
                quad = np.real(np.vdot(v.witness, M @ v.witness))
                assert quad <= v.min_eigenvalue + 1e-12


class TestPsdProject:
    def test_clamps_negative(self):
        assert np.allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_fixes_psd(self, rng):
        W = random_complex(rng, (4, 4))
        M = W @ W.conj().T
        assert frobenius(psd_project(M) - M) < 1e-12

    def test_complementarity(self, rng):
        # Projection characterization: residual orthogonal to the projection
        # and negative semidefinite.
        for _ in range(20):
            M = random_hermitian(rng, 6)
            P = psd_project(M)
            R = M - P
            assert abs(np.trace(R @ P)) < 1e-10
            assert np.linalg.eigvalsh((R + R.conj().T) / 2)[-1] < 1e-10


class TestPartialTranspose:
    def test_block_diagonal_fixed(self, rng):
        A = random_hermitian(rng, 3)
        B = random_hermitian(rng, 3)
        H = np.block([[A, np.zeros((3, 3))], [np.zeros((3, 3)), B]])
        assert np.array_equal(partial_transpose(H, 3), H)

    def test_involution_exact(self, rng):
        H = random_hermitian(rng, 8)
        assert np.array_equal(partial_transpose(partial_transpose(H, 4), 4), H)

    def test_linear_and_hermiticity_preserving(self, rng):
        A = random_hermitian(rng, 6)
        B = random_hermitian(rng, 6)
        lhs = partial_transpose(2.0 * A + 3.0 * B, 3)
        rhs = 2.0 * partial_transpose(A, 3) + 3.0 * partial_transpose(B, 3)
        assert np.allclose(lhs, rhs)
        G = partial_transpose(A, 3)
        assert frobenius(G - G.conj().T) < 1e-14

    def test_transpose_map_choi_becomes_psd(self):
        # The Choi matrix of the transpose on 2x2 matrices is block-positive
        # but not PSD; swapping its off-diagonal blocks yields the PSD Choi
        # matrix of the identity map.
        E = lambda i, j: np.eye(2)[:, [i]] @ np.eye(2)[[j], :]
        H = np.block([[E(0, 0).T, E(0, 1).T], [E(1, 0).T, E(1, 1).T]]).astype(complex)
        assert not psd_check(H).is_psd
        assert psd_check(partial_transpose(H, 2)).is_psd

    def test_rejects_odd_size(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(6), 2)

    def test_rejects_non_integer_block_dim(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(4), 2.5)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_equals_block_swap(self, d, rng):
        def block_swap(H):
            out = H.copy()
            out[:d, d:] = H[d:, :d]
            out[d:, :d] = H[:d, d:]
            return out

        for H in (random_complex(rng, (2 * d, 2 * d)),
                  random_hermitian(rng, 2 * d),
                  np.asfortranarray(random_complex(rng, (2 * d, 2 * d)))):
            assert same_bits(partial_transpose(H, d), block_swap(H))
            assert partial_transpose(H, d).flags.c_contiguous

    @pytest.mark.parametrize("m", range(2, 6))
    def test_index_is_the_layout_transpose(self, m, rng):
        # The layout m x d is read from the size: block (i, k) moves to (k, i).
        for d in (1, 2, 3, 4):
            size = m * d
            index = partial_transpose_index(size, d)
            assert not index.flags.writeable
            M = random_complex(rng, (size, size))
            expected = M.reshape(m, d, m, d).transpose(2, 1, 0, 3).reshape(size, size)
            assert same_bits(M.take(index), expected)
            assert same_bits(M.take(index).take(index), M)


class TestOneRebuild:
    """Every matrix rebuilt from eigenpairs is the same symmetrized product,
    bit for bit, as the formula each kernel had on its own."""

    @staticmethod
    def reference(W, V):
        R = W @ V.conj().T
        return (R + R.conj().T) / 2.0

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 14])
    def test_psd_sqrt_and_inv_sqrt(self, n, rng):
        W = random_complex(rng, (n, n))
        M = W @ W.conj().T + 0.1 * np.eye(n)
        vals, V = np.linalg.eigh((M + M.conj().T) / 2.0)
        sqrt = self.reference(V * np.sqrt(np.clip(vals, 0.0, None)), V)
        assert same_bits(psd_sqrt(M), sqrt)
        assert same_bits(psd_inv_sqrt(M), self.reference(V / np.sqrt(vals), V))

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 14])
    def test_psd_project(self, n, rng):
        M = random_hermitian(rng, n)
        vals, V = np.linalg.eigh((M + M.conj().T) / 2.0)
        assert same_bits(psd_project(M), self.reference(V * np.clip(vals, 0.0, None), V))


class TestPsdPart:
    """The unchecked cone-step projection is :func:`psd_project` without its
    Hermiticity check."""

    @pytest.mark.parametrize("n", [1, 3, 6, 13, 20])
    def test_equals_psd_project_on_hermitian_input(self, n, rng):
        for M in (random_hermitian(rng, n), near_hermitian(rng, n)):
            assert same_bits(psd_part(M), psd_project(M))

    def test_no_hermiticity_check(self, rng):
        M = random_complex(rng, (4, 4))
        with pytest.raises(NotHermitianError):
            psd_project(M)
        assert same_bits(psd_part(M), psd_project((M + M.conj().T) / 2.0))

    def test_lapack_failure_is_linalg_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError):
            psd_part(np.eye(2))


class TestEigenvalues:
    """The stacked reader gives each matrix the spectrum it has alone."""

    @staticmethod
    def reference_lowest(M):
        return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 14, 20])
    def test_stack_matches_each_matrix(self, n, rng):
        stack = np.stack([near_hermitian(rng, n) for _ in range(5)])
        spectra = eigenvalues(stack)
        assert spectra.shape == (5, n)
        assert np.all(np.diff(spectra, axis=1) >= 0)
        for M, spectrum in zip(stack, spectra):
            assert same_bits(spectrum, eigenvalues(M))
            assert same_bits(spectrum[0], lowest_eigenvalue(M))
            assert same_bits(spectrum[0], self.reference_lowest(M))

    def test_no_hermiticity_defect_is_computed(self):
        # The defect's norm would overflow here; the reader still answers.
        M = np.diag([1e200, -1e200]).astype(complex)
        M[0, 1] = 1e200
        assert lowest_eigenvalue(M) < 0

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            lowest_eigenvalue(np.ones((2, 3)))
