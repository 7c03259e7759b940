import math
from dataclasses import replace

import numpy as np
import pytest

from posmap import cpdecomp
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
    WITNESS_TOL,
    witness_search,
)
from posmap.exceptions import (
    DimensionMismatchError,
    InvalidCertificateError,
    NotHermitianError,
)
from posmap.matkernel import (
    PSD_TOL,
    frobenius,
    lowest_eigenvalue,
    partial_transpose,
    psd_check,
    require_hermitian,
)
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


def condensed_layout(blocks, variant):
    """``[[a, C, Y], [C*, B, T], [Y*, T*, U]]``, or for ``"ccp"`` the same
    with ``Y -> Z`` and ``T -> T*``, written out from the named blocks."""
    row, mid = (blocks.Y, blocks.T) if variant == "cp" else (blocks.Z, blocks.T.conj().T)
    return np.block([
        [np.array([[blocks.a]]), blocks.C[None, :], row[None, :]],
        [blocks.C.conj()[:, None], blocks.B, mid],
        [row.conj()[:, None], mid.conj().T, blocks.U],
    ])


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
        # A nonzero Z, or x, fails CP however PSD the condensed matrix is,
        # and the mirrored blocks fail coCP; the direct test agrees.
        blocks = cp_shaped_blocks()
        for offending, row_norm in (
            ({"Z": np.array([0.5, 0.0], dtype=complex)}, 0.5),
            ({"x": 1e-3 + 0j}, 1e-3),
        ):
            bad = replace(blocks, **offending)
            for check, checked in ((cp_check, bad), (ccp_check, mirror_blocks(bad))):
                v = check(checked)
                assert not v.holds
                assert v.row_norm == pytest.approx(row_norm)
                assert v.condensed_min_eig >= -PSD_TOL
                assert v.direct_min_eig < -PSD_TOL

    @pytest.mark.parametrize("variant", ["cp", "ccp"])
    def test_condensed_matrix_is_the_block_layout(self, rng, variant):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            B = random_complex(rng, (n, n))
            U = random_complex(rng, (n, n))
            blocks = ChoiBlocks(
                a=float(rng.uniform(0, 2)), x=complex(*rng.standard_normal(2)),
                C=random_complex(rng, n), Y=random_complex(rng, n),
                Z=random_complex(rng, n), B=(B + B.conj().T) / 2,
                T=random_complex(rng, (n, n)), U=(U + U.conj().T) / 2,
            )
            K = condensed_matrix(blocks, variant)
            assert np.array_equal(K, condensed_layout(blocks, variant))

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

    @pytest.mark.parametrize("a, accepted", [(0.4e-9, True), (0.6e-9, False)])
    def test_residual_and_cone_violation_share_one_tolerance(self, rng, a, accepted):
        # H1 = H - a u u* for a null vector u of the unit-norm PSD H: residual
        # a and min_eig_H1 -a, each within PSD_TOL on its own, and together
        # 2a, a lower bound of -2a on <v, H v> over product vectors.
        H = random_psd(6, rng, rank=5)
        H /= np.linalg.norm(H)
        u = np.linalg.eigh(H)[1][:, 0]
        cert = DecompositionCertificate(
            H1=H - a * np.outer(u, u.conj()), H2=np.zeros_like(H),
            residual=a, min_eig_H1=-a, min_eig_H2_pt=0.0,
        )
        assert cert.lower_bound == -2 * a
        if accepted:
            validate_certificate(ChoiMatrix.from_array(H), cert)
        else:
            with pytest.raises(InvalidCertificateError):
                validate_certificate(ChoiMatrix.from_array(H), cert)

    @pytest.mark.parametrize("size", [1, 4, 8])
    def test_certificate_of_another_shape_raises(self, rng, size):
        H = random_decomposable(rng, 3)
        part = np.eye(size, dtype=complex)
        for H1, H2 in ((part, np.zeros_like(H.H)), (np.zeros_like(H.H), part)):
            cert = DecompositionCertificate(H1, H2, 0.0, 0.0, 0.0)
            with pytest.raises(DimensionMismatchError):
                validate_certificate(H, cert)

    def test_zero_split_of_small_map_rejected(self, tang_raw):
        # Its residual ||H||_F = 6.1e-10 is below PSD_TOL; the split
        # tolerance scales with H.
        H = ChoiMatrix.from_array(1e-10 * tang_raw.H)
        zero = np.zeros_like(H.H)
        trivial = DecompositionCertificate(
            H1=zero, H2=zero, residual=frobenius(H.H), min_eig_H1=0.0, min_eig_H2_pt=0.0
        )
        with pytest.raises(InvalidCertificateError):
            validate_certificate(H, trivial)


class TestTrivialSplits:
    """A CP map splits as (H, 0) and a coCP map as (0, H), with no projection."""

    @pytest.fixture
    def no_projection(self, monkeypatch):
        def project(*args):
            raise AssertionError("the projection ran")

        monkeypatch.setattr(cpdecomp, "_project", project)

    def test_psd_input(self, rng, no_projection):
        H = ChoiMatrix.from_array(random_psd(6, rng))
        out = decompose(H)
        assert out.iterations == 0 and out.stop == "split"
        cert = out.certificate
        assert same_bits(cert.H1, H.H)
        assert not np.any(cert.H2)
        assert out.residual == cert.residual == 0.0
        assert cert.lower_bound == cert.min_eig_H1 == pytest.approx(
            lowest_eigenvalue(H.H), abs=1e-15)
        validate_certificate(H, cert)

    def test_cocp_only_input(self, rng, no_projection):
        H = ChoiMatrix.from_array(partial_transpose(random_psd(6, rng), 3))
        assert not H.psd_verdicts[0].is_psd
        out = decompose(H)
        assert out.iterations == 0 and out.stop == "split"
        cert = out.certificate
        assert not np.any(cert.H1)
        assert same_bits(cert.H2, H.H)
        assert cert.lower_bound == cert.min_eig_H2_pt == pytest.approx(
            lowest_eigenvalue(partial_transpose(H.H, 3)), abs=1e-15)
        validate_certificate(H, cert)

    def test_cp_split_first_when_both_hold(self, rng):
        # A separable state's Choi matrix is PSD and PT-PSD.
        a, b = random_psd(2, rng), random_psd(3, rng)
        H = ChoiMatrix.from_array(np.kron(a, b))
        assert all(v.is_psd for v in H.psd_verdicts)
        cert = decompose(H).certificate
        assert same_bits(cert.H1, H.H) and not np.any(cert.H2)

    def test_certificate_owns_its_parts(self, rng):
        H = ChoiMatrix.from_array(random_psd(6, rng))
        before = H.H.copy()
        cert = decompose(H).certificate
        cert.H1[:] = 0.0
        assert same_bits(H.H, before)

    @pytest.mark.parametrize("a, trivial", [(0.9e-9, True), (1.1e-9, False)])
    def test_tolerance_edge(self, rng, a, trivial):
        # H - a u u* for a null vector u of the unit-norm PSD H has
        # Frobenius norm above 1, so the split tolerance is PSD_TOL itself.
        H = random_psd(6, rng, rank=5)
        H /= np.linalg.norm(H)
        u = np.linalg.eigh(H)[1][:, 0]
        choi = ChoiMatrix.from_array(H - a * np.outer(u, u.conj()))
        assert not choi.psd_verdicts[1].is_psd
        out = decompose(choi, max_iters=50)
        if trivial:
            assert out.iterations == 0 and out.stop == "split"
            assert out.certificate.lower_bound == pytest.approx(-a, abs=1e-15)
        else:
            assert out.iterations >= 1

    @pytest.mark.parametrize("scale", [1e150, 1e-11])
    @pytest.mark.parametrize("kind", ["psd", "pt_psd"])
    def test_far_scales(self, scale, kind):
        # PT-PSD maps at 1e150 once plateaued at residual ~1e135 and read
        # undecided: the projection's stop tests are not scale-free there.
        for seed in range(4):
            A = random_psd(6, np.random.default_rng(seed))
            M = partial_transpose(A, 3) if kind == "pt_psd" else A
            H = ChoiMatrix.from_array(M * scale)
            out = decompose(H)
            assert out.decomposed and out.iterations == 0, (seed, out.stop)
            assert out.residual == 0.0
            validate_certificate(H, out.certificate)

    def test_absolute_psd_verdict_does_not_split_a_small_map(self, tang_raw):
        # Both PSD verdicts hold at the absolute PSD_TOL on this tiny map,
        # but the trivial splits fail the scaled split tolerance.
        H = ChoiMatrix.from_array(1e-10 * tang_raw.H)
        assert all(v.is_psd for v in H.psd_verdicts)
        out = decompose(H, max_iters=3000)
        assert not out.decomposed and out.iterations >= 1


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
        rho = out.witness.rho
        assert out.witness.value == pytest.approx(
            float(np.trace(tang_raw.H @ rho).real), abs=1e-12
        )
        assert out.witness.value < -1e-6
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
        assert out.decomposed and out.stop == "split"

    def test_pt_psd_input_finds_nothing(self, rng):
        H = ChoiMatrix.from_array(partial_transpose(random_psd(6, rng), 3))
        out = witness_search(H)
        assert not out.found
        assert out.decomposed and out.stop == "split"

    def test_tang_witnessed(self, tang_raw):
        out = witness_search(tang_raw)
        assert out.found
        cert = out.witness
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


class TestStateChecks:
    """A run state-checks a candidate only when it would stop the run."""

    @pytest.fixture
    def checked_states(self, monkeypatch):
        """Every candidate state handed to the state check, in order."""
        states = []
        check = cpdecomp._is_ppt_state

        def spy(rho, d):
            states.append(rho)
            return check(rho, d)

        monkeypatch.setattr(cpdecomp, "_is_ppt_state", spy)
        return states

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_split_run_checks_no_state(self, d, rng, checked_states):
        out = decompose(random_decomposable(rng, d))
        assert out.decomposed and out.stop == "split"
        assert checked_states == []

    def test_raw_tang_checks_only_stopping_candidates(self, tang_raw,
                                                      checked_states):
        # A fresh Choi matrix: the shared fixture may hold a cached run.
        out = witness_search(ChoiMatrix.from_array(tang_raw.H))
        assert out.found and out.stop == "witness" and out.iterations == 51
        assert out.witness.value == pytest.approx(-7.46e-4, abs=5e-7)
        values = [float(np.vdot(tang_raw.H, rho).real) for rho in checked_states]
        assert values and all(v < -WITNESS_TOL for v in values)
        assert values[-1] == out.witness.value


class TestConeStepKernel:
    """The projection's cone steps factor their iterates directly."""

    @pytest.mark.parametrize("face", [False, True])
    def test_decompose_makes_no_psd_project_call(self, face, rng, monkeypatch):
        from posmap import matkernel

        calls = []
        original = matkernel.psd_project

        def counted(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(matkernel, "psd_project", counted)
        monkeypatch.setattr(cpdecomp, "psd_project", counted)
        H = face_form_decomposable(rng) if face else random_decomposable(rng, 3)
        out = decompose(H)
        assert out.decomposed
        assert calls == []


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestOneKernelPerCheck:
    """The state, certificate and Kadison checks read their eigenvalues
    through the kernel and give what their own LAPACK calls gave."""

    @staticmethod
    def two_validations(rho, d):
        # The state check that validated rho and PT(rho) separately.
        if abs(np.trace(rho).real - 1.0) > cpdecomp.STATE_TRACE_TOL:
            return False
        tol = cpdecomp.STATE_TOL
        if np.linalg.eigvalsh(require_hermitian(rho, tol=tol))[0] < -tol:
            return False
        pt = require_hermitian(partial_transpose(rho, d), tol=tol)
        return bool(np.linalg.eigvalsh(pt)[0] >= -tol)

    @staticmethod
    def near_states(rng, d):
        size = 2 * d
        psd = random_psd(size, rng)
        sigma = psd / np.trace(psd).real
        yield sigma  # a state, PPT or not
        # PPT: PT(sigma) has no eigenvalue below -1/2.
        mixed = (np.eye(size) + 0.5 * sigma) / (size + 0.5)
        yield mixed
        yield mixed - 2e-8 * np.eye(size) / size  # trace just outside the tolerance
        yield mixed + random_complex(rng, (size, size), 1e-12)  # defect below STATE_TOL
        v = np.kron(np.array([1.0, 1.0]) / np.sqrt(2), np.eye(d)[0])
        w = np.kron(np.array([1.0, -1.0]) / np.sqrt(2), np.eye(d)[1 % d])
        yield np.outer(v + w, (v + w).conj()) / 2  # entangled for d > 1: PT not PSD

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 9])
    def test_state_check_matches_two_validations(self, d, rng):
        verdicts = []
        for rho in self.near_states(rng, d):
            got = cpdecomp._is_ppt_state(rho, d)
            assert got == self.two_validations(rho, d)
            verdicts.append(got)
        assert verdicts[1] and not verdicts[2]

    def test_pt_not_psd_is_rejected(self):
        # |00> + |11>, a PSD state whose partial transpose is not PSD.
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = np.outer(v, v).astype(complex)
        assert psd_check(rho).is_psd
        assert not psd_check(partial_transpose(rho, 2)).is_psd
        assert cpdecomp._is_ppt_state(rho, 2) is False
        assert self.two_validations(rho, 2) is False

    def test_hermiticity_defect_above_state_tol_raises(self, rng):
        rho = np.eye(6, dtype=complex) / 6
        rho[0, 1] += 1e-7
        for check in (cpdecomp._is_ppt_state, self.two_validations):
            with pytest.raises(NotHermitianError):
                check(rho, 3)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_certificate_numbers_and_margins_match_direct_calls(self, d, rng):
        H = random_decomposable(rng, d)
        cert = decompose(H).certificate
        pt = require_hermitian(partial_transpose(cert.H2, d), tol=cpdecomp.STATE_TOL)
        m1 = float(np.linalg.eigvalsh(require_hermitian(cert.H1, tol=cpdecomp.STATE_TOL))[0])
        expected = (frobenius(cert.H1 + cert.H2 - H.H), m1, float(np.linalg.eigvalsh(pt)[0]))
        checked = cpdecomp._split_certificate(H.H, d, cert.H1, cert.H2)[0]
        assert (checked.residual, checked.min_eig_H1, checked.min_eig_H2_pt) == expected

        blocks = cpdecomp._positional_blocks
        B, B1, B2 = blocks(H.H, d), blocks(cert.H1, d), blocks(cert.H2, d)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(B[(1, 1)] + B[(2, 2)]))))
        margins = {
            (i, j): lowest_eigenvalue(norm * (B1[(j, j)] + B2[(i, i)])
                                      - B[(i, j)].conj().T @ B[(i, j)])
            for i in (1, 2) for j in (1, 2)
        }
        report = cpdecomp._kadison_margins(H, cert)
        assert report.norm_phi_identity == norm
        assert report.entry_margins == margins

    @pytest.mark.parametrize("d", range(1, 11))
    def test_without_index_is_the_double_delete(self, d, rng):
        # Every dropped index of the m x d layouts; index d of m = 2 is the
        # face of the Choi layout.
        for m in (2, 3, 4):
            M = random_complex(rng, (m * d, m * d))
            for face in range(m * d):
                expected = np.delete(np.delete(M, face, axis=0), face, axis=1)
                assert same_bits(cpdecomp._without_index(M, face), expected)


def dicke_isometry(k):
    """The real Dicke basis of Sym^{k+1}(C^2) as the columns of an isometry
    into (C^2)^{(k+1)}: column j is the normalized sum of the basis words
    with j factors e2."""
    words = np.arange(2 ** (k + 1))
    Pi = np.zeros((words.size, k + 2))
    Pi[words, [bin(w).count("1") for w in words]] = 1.0
    return Pi / np.sqrt(Pi.sum(axis=0))


def lift(H, d, k):
    """H_k = (Pi (x) I_d)* (I_{2^k} (x) H) (Pi (x) I_d), on the (k+2) x d layout."""
    P = np.kron(dicke_isometry(k), np.eye(d))
    L = P.T @ np.kron(np.eye(2 ** k), H) @ P
    return (L + L.conj().T) / 2


class TestLayoutGenericProjection:
    """The projection reads its m x d layout from the matrix and its face
    from one dropped index, so the symmetric lift of the qubit side runs it
    unchanged."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lift_restricts_to_symmetric_product_vectors(self, k, rng):
        # <c(x) (x) y, H_k c(x) (x) y> = |x|^{2k} f(x, y), with c(x) the
        # Dicke coordinates of x^{(k+1)}: c_j = sqrt(C(k+1, j)) x1^{k+1-j} x2^j.
        Pi = dicke_isometry(k)
        assert np.allclose(Pi.T @ Pi, np.eye(k + 2), rtol=0.0, atol=1e-15)
        for d in (2, 3, 4):
            H = product_violation(rng, d)
            Hk = lift(H, d, k)
            for _ in range(5):
                x, y = random_complex(rng, 2), random_complex(rng, d)
                c = np.array([math.comb(k + 1, j) ** 0.5 * x[0] ** (k + 1 - j) * x[1] ** j
                              for j in range(k + 2)])
                v, w = np.kron(c, y), np.kron(x, y)
                f = np.vdot(w, H @ w).real
                assert np.vdot(v, Hk @ v).real == pytest.approx(
                    np.vdot(x, x).real ** k * f, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_lift_of_a_nonpositive_map_never_splits(self, k):
        # A split of H_k would prove the map positive; these maps are not.
        for s in range(10):
            d = 2 + s % 3
            Hk = lift(product_violation(np.random.default_rng(s), d), d, k)
            out = cpdecomp._project(Hk / frobenius(Hk), d, None, 3000)
            assert out.certificate is None, (s, out.stop)

    def test_lifted_tang_splits_on_the_face(self):
        # Normalized Tang (0.9, 0.12) at k = 1: a 12-square matrix on the
        # 3 x 4 layout, whose face e2 (x) e2 (x) f1 lifts to index (k+1) d.
        d, k = 4, 1
        H = lift(build_pipeline(TangParams(0.9, 0.12)).Hfinal.H, d, k)
        H /= frobenius(H)
        assert H.shape == (12, 12)
        face = (k + 1) * d
        out = cpdecomp._project(H, d, face, 600)
        assert out.decomposed and out.stop == "split"
        assert out.iterations <= 600
        cert = out.certificate
        assert cpdecomp._split_certificate(H, d, cert.H1, cert.H2)[0] is not None
        # Checked again from scratch: H1 PSD, and H2 PSD after the transpose
        # on the symmetric factor, within the split tolerance.
        pt = cert.H2.reshape(k + 2, d, k + 2, d).transpose(2, 1, 0, 3).reshape(H.shape)
        m1, m2 = np.linalg.eigvalsh(cert.H1)[0], np.linalg.eigvalsh(pt)[0]
        excess = np.linalg.norm(cert.H1 + cert.H2 - H) + max(-m1, 0.0) + max(-m2, 0.0)
        assert excess <= PSD_TOL
        assert not np.any(cert.H1[face]) and not np.any(pt[face])


class TestKadison:
    def test_psd_trivial_split(self, rng):
        H = ChoiMatrix.from_array(random_psd(6, rng))
        out = decompose(H)
        report = kadison_constraints(H, out.certificate)
        assert report.all_pass()

    def test_rejects_an_invalid_certificate(self, rng):
        H = random_decomposable(rng, 2)
        cert = decompose(H).certificate
        with pytest.raises(InvalidCertificateError):
            kadison_constraints(H, replace(cert, H1=cert.H1 + 1e-3 * np.eye(4)))

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

    def test_face_form_split_has_zero_row_d(self, rng):
        # Row d of H1 and of PT(H2) vanishes in a face-form split, so the
        # constraints written in the named blocks are entry margins (1, 2)
        # and (2, 1).
        H = face_form_decomposable(rng)
        out = decompose(H)
        d = H.dim
        assert not np.any(out.certificate.H1[d])
        assert not np.any(partial_transpose(out.certificate.H2, d)[d])
        report = kadison_constraints(H, out.certificate)
        assert report.all_pass()
