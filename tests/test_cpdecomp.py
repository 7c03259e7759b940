import numpy as np
import pytest

from posmap.choi import ChoiBlocks, ChoiMatrix, assemble_blocks, extract_blocks
from posmap.cpdecomp import (
    ccp_check,
    condensed_matrix,
    condensed_psd_relations,
    cp_check,
    decompose,
    DecompositionCertificate,
    kadison_constraints,
    ppt_project,
    validate_certificate,
    witness_search,
)
from posmap.exceptions import InvalidCertificateError
from posmap.matkernel import frobenius, partial_transpose, psd_check
from posmap.rand import random_psd
from posmap.tang import TangParams, build_pipeline, tang_choi
from conftest import product_violation, random_complex


def cp_shaped_blocks(n=2, y=0.6):
    Y = np.zeros(n, dtype=complex)
    Y[0] = y
    gram = np.outer(Y.conj(), Y)
    return ChoiBlocks(
        a=1.0, x=0j, C=np.zeros(n, dtype=complex), Y=Y,
        Z=np.zeros(n, dtype=complex), B=np.eye(n) - gram,
        T=np.zeros((n, n), dtype=complex), U=gram,
    )


def mirror_blocks(blocks):
    """Swap the roles of Y and Z (conjugating T accordingly)."""
    return ChoiBlocks(
        a=blocks.a, x=blocks.x, C=blocks.C, Y=blocks.Z, Z=blocks.Y,
        B=blocks.B, T=blocks.T.conj().T, U=blocks.U,
    )


def random_decomposable(rng, d):
    A = random_psd(2 * d, rng)
    B = partial_transpose(random_psd(2 * d, rng), d)
    return ChoiMatrix.from_array(A + B)


def face_psd_blocks(rng, n, kind):
    """Face-form blocks whose condensed matrix is strictly positive definite."""
    K = random_psd(2 * n + 1, rng) + 0.3 * np.eye(2 * n + 1)
    a = float(K[0, 0].real)
    C = K[0, 1 : n + 1].copy()
    row = K[0, n + 1 :].copy()
    B = K[1 : n + 1, 1 : n + 1].copy()
    mid = K[1 : n + 1, n + 1 :].copy()
    U = K[n + 1 :, n + 1 :].copy()
    zero = np.zeros(n, dtype=complex)
    if kind == "cp":
        return ChoiBlocks(a=a, x=0j, C=C, Y=row, Z=zero, B=B, T=mid, U=U)
    return ChoiBlocks(a=a, x=0j, C=C, Y=zero, Z=row, B=B, T=mid.conj().T, U=U)


def face_form_decomposable(rng, n=2):
    H1 = assemble_blocks(face_psd_blocks(rng, n, "cp")).H
    H2 = assemble_blocks(face_psd_blocks(rng, n, "ccp")).H
    return ChoiMatrix.from_array(H1 + H2)


@pytest.fixture(scope="module")
def tang_raw():
    return tang_choi(TangParams(0.9, 0.12))


class TestCpCheck:
    def test_cp_shaped_blocks(self):
        v = cp_check(cp_shaped_blocks())
        assert v.holds
        K = condensed_matrix(cp_shaped_blocks(), "cp")
        assert frobenius(v.factor @ v.factor - K) < 1e-9

    def test_tang_not_cp(self):
        blocks = extract_blocks(build_pipeline(TangParams(0.5, 1 / 24)).Hfinal)
        v = cp_check(blocks)
        assert not v.holds
        assert v.direct_min_eig < -1e-3

    def test_nonzero_z_fails_regardless(self):
        blocks = cp_shaped_blocks()
        bad = ChoiBlocks(
            a=blocks.a, x=blocks.x, C=blocks.C, Y=blocks.Y,
            Z=np.array([0.5, 0.0], dtype=complex), B=blocks.B, T=blocks.T,
            U=blocks.U,
        )
        v = cp_check(bad)
        assert not v.holds
        assert v.row_norm > 0.4

    def test_ccp_mirror(self):
        v = ccp_check(mirror_blocks(cp_shaped_blocks()))
        assert v.holds

    def test_agreement_with_direct_spectral(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            B = random_complex(rng, (n, n))
            U = random_complex(rng, (n, n))
            blocks = ChoiBlocks(
                a=float(rng.uniform(0, 2)), x=0j,
                C=random_complex(rng, n), Y=random_complex(rng, n),
                Z=random_complex(rng, n), B=(B + B.conj().T) / 2,
                T=random_complex(rng, (n, n)), U=(U + U.conj().T) / 2,
            )
            H = assemble_blocks(blocks)
            assert cp_check(blocks).holds == psd_check(H.H).is_psd
            assert (
                ccp_check(blocks).holds
                == psd_check(partial_transpose(H.H, H.dim)).is_psd
            )


class TestCondensedRelations:
    def test_cp_example_all_hold(self):
        rel = condensed_psd_relations(cp_shaped_blocks(), "cp")
        assert rel.all_hold()

    def test_zero_a_with_coupling_fails(self):
        n = 2
        Y = np.array([0.5, 0.0], dtype=complex)
        blocks = ChoiBlocks(
            a=0.0, x=0j, C=np.zeros(n, dtype=complex), Y=Y,
            Z=np.zeros(n, dtype=complex), B=np.eye(n),
            T=np.zeros((n, n), dtype=complex), U=np.eye(n),
        )
        rel = condensed_psd_relations(blocks, "cp")
        assert rel.row_dominated < -1e-3

    def test_random_psd_condensed_satisfies_all(self, rng):
        # Construct the condensed matrix PSD by fiat and check the implied
        # Schur-complement margins.
        for _ in range(20):
            n = int(rng.integers(2, 4))
            K = random_psd(2 * n + 1, rng)
            blocks = ChoiBlocks(
                a=float(K[0, 0].real), x=0j,
                C=K[0, 1 : n + 1].copy(), Y=K[0, n + 1 :].copy(),
                Z=np.zeros(n, dtype=complex), B=K[1 : n + 1, 1 : n + 1].copy(),
                T=K[1 : n + 1, n + 1 :].copy(), U=K[n + 1 :, n + 1 :].copy(),
            )
            rel = condensed_psd_relations(blocks, "cp")
            assert rel.all_hold()


class TestDecompose:
    def test_psd_input_trivial_split(self, rng):
        H = ChoiMatrix.from_array(random_psd(6, rng))
        out = decompose(H)
        assert out.decomposed
        assert frobenius(out.certificate.H2) < 1e-8
        validate_certificate(H, out.certificate)

    def test_random_decomposable_roundtrip(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            H = random_decomposable(rng, d)
            out = decompose(H)
            assert out.decomposed
            assert out.residual <= 1e-7
            validate_certificate(H, out.certificate)

    def test_face_form_split_carries_structural_zeros(self, rng):
        # A face-form decomposable map: CP part plus coCP part, both face-form
        # and strictly feasible so the split search converges quickly.
        H = face_form_decomposable(rng)
        out = decompose(H)
        assert out.decomposed
        H1, H2 = out.certificate.H1, out.certificate.H2
        d = H.dim
        assert np.max(np.abs(H1[d, :])) == 0.0          # split part one: no Z row
        assert np.max(np.abs(H2[0, d + 1 :])) == 0.0    # split part two: no Y row
        assert np.max(np.abs(H2[d, d:])) == 0.0
        # part two inherits the full Z row
        assert np.allclose(H2[d, 1:d], H.H[d, 1:d], atol=1e-7)

    def test_tang_not_decomposed(self, tang_raw):
        out = decompose(tang_raw, max_iters=3000)
        assert not out.decomposed
        assert out.residual > 1e-3

    def test_corrupted_certificate_rejected(self, rng):
        H = random_decomposable(rng, 2)
        out = decompose(H)
        bad = DecompositionCertificate(
            H1=out.certificate.H1 - 0.5 * np.eye(H.H.shape[0]),
            H2=out.certificate.H2,
            residual=out.certificate.residual,
            min_eig_H1=out.certificate.min_eig_H1,
            min_eig_H2_pt=out.certificate.min_eig_H2_pt,
        )
        with pytest.raises(InvalidCertificateError):
            validate_certificate(H, bad)


class TestStopReason:
    def test_decomposable_splits(self, rng):
        out = decompose(random_decomposable(rng, 3))
        assert out.decomposed and out.stop == "split"

    def test_nonpositive_map_witnessed(self, rng):
        H = ChoiMatrix.from_array(product_violation(rng, 3))
        out = decompose(H)
        assert not out.decomposed and out.stop == "witness"

    def test_normalized_tang_plateaus(self):
        out = decompose(build_pipeline(TangParams(0.9, 0.12)).Hfinal)
        assert not out.decomposed and out.stop == "plateau"

    def test_budget_cap(self, rng):
        d = 4
        A = random_psd(2 * d, rng, rank=1)
        B = partial_transpose(random_psd(2 * d, rng, rank=1), d)
        out = decompose(ChoiMatrix.from_array(A + B), max_iters=5)
        assert not out.decomposed
        assert out.stop == "cap" and out.iterations == 5


class TestAcceleratedProjection:
    """Anderson acceleration cuts the projection pairs a verdict takes."""

    def test_random_maps_split_within_25_iterations(self, rng):
        for d in [6, 7, 8, 9, 10] * 2:
            H = random_decomposable(rng, d)
            out = decompose(H, max_iters=25)
            assert out.decomposed and out.stop == "split", (d, out.stop)
            assert out.iterations <= 25
            validate_certificate(H, out.certificate)

    def test_raw_tang_witness_within_150_iterations(self, tang_raw):
        out = witness_search(tang_raw, max_iters=150)
        assert out.found
        rho = out.certificate.rho
        assert out.certificate.value == pytest.approx(
            float(np.trace(tang_raw.H @ rho).real), abs=1e-12
        )
        assert out.certificate.value < -1e-6
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(rho)[0] >= -1e-8
        assert np.linalg.eigvalsh(partial_transpose(rho, 4))[0] >= -1e-8


class TestPptProject:
    def test_output_is_ppt_state(self, rng):
        X = random_complex(rng, (8, 8))
        X = (X + X.conj().T) / 2
        rho = ppt_project(X, 4)
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho)[0] > -1e-8
        assert np.linalg.eigvalsh(partial_transpose(rho, 4))[0] > -1e-8

    def test_fixed_point_on_ppt_state(self, rng):
        W = random_psd(6, rng)
        rho = ppt_project(W / np.trace(W).real, 3)
        assert frobenius(ppt_project(rho, 3) - rho) < 1e-7


class TestWitnessSearch:
    def test_psd_input_finds_nothing(self, rng):
        H = ChoiMatrix.from_array(random_psd(6, rng))
        out = witness_search(H)
        assert not out.found
        assert out.best_value >= -1e-8

    def test_pt_psd_input_finds_nothing(self, rng):
        H = ChoiMatrix.from_array(partial_transpose(random_psd(6, rng), 3))
        out = witness_search(H)
        assert not out.found
        assert out.best_value >= -1e-8

    def test_tang_witnessed(self, tang_raw):
        out = witness_search(tang_raw)
        assert out.found
        cert = out.certificate
        assert cert.value < -1e-6
        assert abs(np.trace(cert.rho).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(cert.rho)[0] >= -1e-8
        assert np.linalg.eigvalsh(partial_transpose(cert.rho, 4))[0] >= -1e-8

    def test_exclusivity_with_decompose(self, tang_raw, rng):
        # A witness and a split must never coexist: check on both a
        # nondecomposable and a decomposable instance.
        wit = witness_search(tang_raw)
        dec = decompose(tang_raw, max_iters=2000)
        assert not (wit.found and dec.decomposed)
        H = random_decomposable(rng, 3)
        wit = witness_search(H)
        dec = decompose(H)
        assert not (wit.found and dec.decomposed)


class TestKadison:
    def test_psd_trivial_split(self, rng):
        H = ChoiMatrix.from_array(random_psd(6, rng))
        out = decompose(H)
        report = kadison_constraints(H, out.certificate)
        assert report.all_pass()

    def test_random_decomposable_margins(self, rng):
        for _ in range(5):
            H = random_decomposable(rng, int(rng.integers(2, 5)))
            out = decompose(H)
            report = kadison_constraints(H, out.certificate)
            assert report.all_pass(), report

    def test_identity_map_saturates(self):
        # phi = identity on 2x2 matrices: the split is (phi, 0) and the
        # Schwarz bound is tight, so margins sit at zero.
        E = np.zeros((4, 4), dtype=complex)
        E[0, 0] = E[0, 3] = E[3, 0] = E[3, 3] = 1.0
        H = ChoiMatrix.from_array(E)
        out = decompose(H)
        report = kadison_constraints(H, out.certificate)
        assert report.all_pass()
        assert min(report.entry_margins.values()) < 1e-5

    def test_face_form_block_margins_present(self, rng):
        H = face_form_decomposable(rng)
        out = decompose(H)
        report = kadison_constraints(H, out.certificate)
        assert set(report.block_margins) == {"offdiag_12", "offdiag_21"}
        assert report.all_pass()
