import numpy as np
import pytest

from posmap.choi import (
    ChoiBlocks,
    ChoiMatrix,
    apply_map,
    assemble_blocks,
    choi_from_map,
    conjugate_choi,
    extract_blocks,
    row_abs,
    row_abs_product,
)
from posmap.exceptions import (
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotInFaceFormError,
)
from posmap.matkernel import frobenius, partial_transpose, psd_check, psd_sqrt
from posmap.rand import random_unitary
from conftest import random_complex


def embed_map(n):
    """A |-> A (+) 0: embeds the 2x2 input into the top corner."""

    def phi(A):
        out = np.zeros((n + 1, n + 1), dtype=complex)
        out[:2, :2] = A
        return out

    return phi


def random_face_blocks(rng, n):
    B = random_complex(rng, (n, n))
    U = random_complex(rng, (n, n))
    return ChoiBlocks(
        a=float(rng.uniform(0, 2)),
        x=0j,
        C=random_complex(rng, n),
        Y=random_complex(rng, n),
        Z=random_complex(rng, n),
        B=(B + B.conj().T) / 2,
        T=random_complex(rng, (n, n)),
        U=(U + U.conj().T) / 2,
    )


class TestChoiConstruction:
    def test_embedding_map_hand_assembly(self):
        choi = choi_from_map(embed_map(1), 1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0  # phi(E_11) = E_11
        expected[0, 3] = 1.0  # phi(E_12) = E_12
        expected[3, 0] = 1.0  # phi(E_21) = E_21
        expected[3, 3] = 1.0  # phi(E_22) = E_22
        assert np.array_equal(choi.H, expected)

    def test_corner_embedding_is_matrix_units(self):
        def phi(A):
            out = np.zeros((3, 3), dtype=complex)
            out[0, 0] = A[0, 0] + 0 * A[1, 1]
            return out

        # diag(A, 0, ...) pattern: phi(E_ij) = A_ij E_11 only for i=j=1 here;
        # use the full diag embedding instead.
        def phi_diag(A):
            out = np.zeros((3, 3), dtype=complex)
            out[0, 0] = A[0, 0]
            return out

        choi = choi_from_map(phi_diag, 2)
        assert choi.H[0, 0] == 1.0
        assert np.count_nonzero(choi.H) == 1

    def test_mutually_inverse_with_apply(self, rng):
        phi = embed_map(2)
        choi = choi_from_map(phi, 2)
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2), dtype=complex)
                E[i, j] = 1.0
                assert np.array_equal(apply_map(choi, E), phi(E))

    def test_rejects_wrong_codomain(self):
        with pytest.raises(DimensionMismatchError):
            choi_from_map(embed_map(2), 1)

    def test_rejects_non_hermiticity_preserving(self):
        def phi(A):
            out = np.zeros((3, 3), dtype=complex)
            out[0, 1] = A[0, 1]  # phi(E_21) != phi(E_12)*
            out[0, 0] = A[0, 0] + A[1, 1]
            return out

        with pytest.raises(NotHermitianError):
            choi_from_map(phi, 2)

    def test_stores_the_hermitian_part(self, rng):
        G = random_complex(rng, (6, 6))
        exact = G + G.conj().T
        assert np.array_equal(ChoiMatrix.from_array(exact).H, exact)
        near = exact.copy()
        near[0, 1] += 1e-12
        H = ChoiMatrix.from_array(near).H
        assert np.array_equal(H, H.conj().T)
        assert np.array_equal(H, (near + near.conj().T) / 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        H = np.eye(6, dtype=complex)
        H[2, 2] = bad
        with pytest.raises(NonFiniteError):
            ChoiMatrix.from_array(H)


class TestPsdVerdicts:
    def test_the_pair_of_checks_once(self, rng):
        G = random_complex(rng, (8, 8))
        H = ChoiMatrix.from_array(G + G.conj().T)
        cp, ccp = H.psd_verdicts
        assert H.psd_verdicts[0] is cp and H.psd_verdicts[1] is ccp
        for got, expected in zip((cp, ccp), (psd_check(H.H),
                                             psd_check(partial_transpose(H.H, 4)))):
            assert got.is_psd == expected.is_psd
            assert got.min_eigenvalue == expected.min_eigenvalue
            assert np.array_equal(got.witness, expected.witness)


class TestApplyMap:
    def test_unit_input_returns_block(self, rng):
        blocks = random_face_blocks(rng, 2)
        choi = assemble_blocks(blocks)
        E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(apply_map(choi, E11), choi.block(1, 1))

    def test_hermitian_output_on_hermitian_input(self, rng):
        blocks = random_face_blocks(rng, 3)
        choi = assemble_blocks(blocks)
        A = np.array([[1.0, 1j], [-1j, 1.0]])
        out = apply_map(choi, A)
        assert frobenius(out - out.conj().T) < 1e-12

    def test_linear(self, rng):
        blocks = random_face_blocks(rng, 2)
        choi = assemble_blocks(blocks)
        A = random_complex(rng, (2, 2))
        B = random_complex(rng, (2, 2))
        lhs = apply_map(choi, 2.0 * A + 1j * B)
        rhs = 2.0 * apply_map(choi, A) + 1j * apply_map(choi, B)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestExtractBlocks:
    def test_round_trip(self, rng):
        blocks = random_face_blocks(rng, 3)
        choi = assemble_blocks(blocks)
        back = extract_blocks(choi)
        assert np.array_equal(assemble_blocks(back).H, choi.H)
        for name in ("C", "Y", "Z", "B", "T", "U"):
            assert np.array_equal(getattr(back, name), getattr(blocks, name))
        assert back.a == blocks.a

    def test_rejects_nonzero_x(self, rng):
        blocks = random_face_blocks(rng, 2)
        bad = ChoiBlocks(
            a=blocks.a, x=1e-3 + 0j, C=blocks.C, Y=blocks.Y, Z=blocks.Z,
            B=blocks.B, T=blocks.T, U=blocks.U,
        )
        choi = assemble_blocks(bad)
        with pytest.raises(NotInFaceFormError) as err:
            extract_blocks(choi)
        assert err.value.offenders

    def test_rejects_filled_corner(self, rng):
        blocks = random_face_blocks(rng, 2)
        H = assemble_blocks(blocks).H.copy()
        H[3, 3] = 0.5  # the forced-zero diagonal slot of the second block
        with pytest.raises(NotInFaceFormError):
            extract_blocks(ChoiMatrix.from_array(H))


class TestFaceFormOffenders:
    def test_read_once_and_listed_in_pattern_order(self, rng):
        blocks = random_face_blocks(rng, 2)
        H = assemble_blocks(blocks).H.copy()
        # Entries of the pattern, set in an order unlike the listed one.
        for (i, j), v in (((0, 3), 0.5), ((5, 3), 0.2j), ((3, 4), 0.1 + 0.7j), ((3, 3), 0.3)):
            H[i, j], H[j, i] = v, np.conj(v)
        choi = ChoiMatrix.from_array(H)
        offenders = choi.face_form_offenders
        assert choi.face_form_offenders is offenders
        assert [(r, c) for r, c, _ in offenders] == [
            (3, 3), (3, 4), (4, 3), (3, 5), (5, 3), (0, 3)]
        # Each modulus is the scalar abs() of its entry, to the last bit
        # (a vectorized np.abs differs from it at 0.1 + 0.7j).
        moduli = [m for _, _, m in offenders]
        assert moduli == [abs(complex(choi.H[r, c])) for r, c, _ in offenders]
        assert moduli == pytest.approx([0.3, 0.5**0.5, 0.5**0.5, 0.2, 0.2, 0.5])
        with pytest.raises(NotInFaceFormError) as err:
            extract_blocks(choi)
        assert err.value.offenders == list(offenders)
        assert str(err.value).endswith(
            "(3,3)=3.000e-01, (3,4)=7.071e-01, (4,3)=7.071e-01, (3,5)=2.000e-01, "
            "(5,3)=2.000e-01, (0,3)=5.000e-01")

    def test_face_form_has_none(self, rng):
        assert assemble_blocks(random_face_blocks(rng, 3)).face_form_offenders == ()


class TestConjugateChoi:
    def test_matches_map_action(self, rng):
        blocks = random_face_blocks(rng, 2)
        choi = assemble_blocks(blocks)
        K = random_unitary(3, rng)
        rotated = conjugate_choi(choi, K)
        for i in (1, 2):
            for j in (1, 2):
                expected = K.conj().T @ choi.block(i, j) @ K
                assert np.allclose(rotated.block(i, j), expected, atol=1e-12)


class TestRowAbs:
    def test_basis_row(self):
        assert np.allclose(row_abs(np.array([1.0, 0.0])), np.diag([1.0, 0.0]))

    def test_literal_example(self):
        X = np.array([3.0, 4.0j])
        expected = np.array([[1.8, 2.4j], [-2.4j, 3.2]])
        assert np.allclose(row_abs(X), expected, atol=1e-12)
        # norm times the projector onto xi = conj(X)/||X||
        xi = X.conj() / 5.0
        assert np.allclose(row_abs(X), 5.0 * np.outer(xi, xi.conj()), atol=1e-12)

    def test_zero(self):
        assert np.array_equal(row_abs(np.zeros(3)), np.zeros((3, 3)))

    def test_eigensolver_oracle(self, rng):
        # The spectral square root of a rank-one Gram matrix is only accurate
        # to ~sqrt(eps) in its null space, so the oracle comparison is loose;
        # the projector identity below is the tight one.
        for _ in range(50):
            n = int(rng.integers(1, 7))
            X = random_complex(rng, n)
            gram = np.outer(X.conj(), X)
            assert frobenius(row_abs(X) - psd_sqrt(gram)) < 1e-7

    def test_projector_identity(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            X = random_complex(rng, n)
            xi = X.conj() / np.linalg.norm(X)
            P = np.outer(xi, xi.conj())
            assert frobenius(row_abs(X) - np.linalg.norm(X) * P) <= 1e-12 * max(
                1.0, np.linalg.norm(X) ** 2
            )


class TestRowAbsProduct:
    def test_same_vector(self):
        X = np.array([1.0, 0.0])
        assert np.allclose(row_abs_product(X, X), np.diag([1.0, 0.0]))

    def test_orthogonal_vanishes(self):
        X1 = np.array([1.0, 0.0])
        X2 = np.array([0.0, 1.0])
        assert np.allclose(row_abs_product(X1, X2), np.zeros((2, 2)))

    def test_matches_matrix_product(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            X1 = random_complex(rng, n)
            X2 = random_complex(rng, n)
            direct = row_abs(X1) @ row_abs(X2)
            assert frobenius(row_abs_product(X1, X2) - direct) < 1e-11
