import numpy as np
import pytest

from posmap.choi import ChoiBlocks, assemble_blocks, extract_blocks
from posmap.exceptions import (
    NotDependentError,
    NotUnitVectorError,
    ZeroPatternViolationError,
)
from posmap.extremal import (
    CanonicalForm,
    canonicalize,
    check_row_dependence,
    classify_degenerate,
    compress,
    equality_case_detect,
    face_intersection_check,
    random_equality_blocks,
    scramble_blocks,
)
from posmap.matkernel import frobenius
from posmap.positivity import CERTIFIED, VIOLATION_FOUND, certify_positivity
from posmap.rand import rng_for
from posmap.tang import TangParams, build_pipeline
from conftest import random_complex


def unital_blocks(Y, Z, B, T, U):
    n = len(Y)
    return ChoiBlocks(
        a=1.0, x=0j, C=np.zeros(n, dtype=complex),
        Y=np.asarray(Y, dtype=complex), Z=np.asarray(Z, dtype=complex),
        B=np.asarray(B, dtype=complex), T=np.asarray(T, dtype=complex),
        U=np.asarray(U, dtype=complex),
    )


def canonical_fixture(y, z, t, W, V):
    W = np.asarray(W, dtype=complex)
    u = (abs(y) + abs(z)) ** 2
    return CanonicalForm(
        y=complex(y), z=complex(z), u=u, t=complex(t),
        W_row=W, V_row=np.asarray(V, dtype=complex),
        basis_change=np.eye(len(W) + 2, dtype=complex),
    )


class TestEqualityDetect:
    def test_zero_map_is_equality(self):
        n = 2
        blocks = unital_blocks(
            np.zeros(n), np.zeros(n), np.eye(n), np.zeros((n, n)),
            np.zeros((n, n)),
        )
        res = equality_case_detect(blocks)
        assert res.equality and res.gap < 1e-14

    def test_constructed_equality(self, rng):
        blocks, _ = random_equality_blocks(3, rng)
        res = equality_case_detect(blocks)
        assert res.equality

    def test_scrambled_equality_maps_detected(self):
        # Scrambling leaves U rank-deficient with eigenvalues near 1e-17,
        # which a square root of U would turn into gaps near 1e-8.
        r = rng_for(7, "scrambled-equality")
        for k in range(40):
            blocks, _ = random_equality_blocks(2 + k % 3, r)
            scrambled, _ = scramble_blocks(blocks, r)
            res = equality_case_detect(scrambled)
            assert res.equality, (k, res.gap)

    def test_tang_is_strict(self):
        blocks = extract_blocks(build_pipeline(TangParams(0.5, 1 / 24)).Hfinal)
        res = equality_case_detect(blocks)
        assert not res.equality
        assert res.gap > 0.1


class TestRowDependence:
    def test_parallel_rows(self):
        blocks = unital_blocks(
            [1.0, 0.0], [2.0, 0.0], np.eye(2), np.zeros((2, 2)), np.eye(2)
        )
        rep = check_row_dependence(blocks)
        assert rep.dependent
        assert abs(abs(rep.eta0[0]) - 1.0) < 1e-12
        assert abs(abs(rep.y) - 1.0) < 1e-12
        assert abs(abs(rep.z) - 2.0) < 1e-12

    def test_independent_rows_report(self):
        blocks = unital_blocks(
            [1.0, 0.0], [0.0, 1.0], np.eye(2), np.zeros((2, 2)), np.eye(2)
        )
        rep = check_row_dependence(blocks)
        assert not rep.dependent
        assert rep.singular_values[1] > 0.9

    def test_forced_equality_with_independent_rows_is_not_positive(self):
        # Independent rows with the bound saturated: such a map cannot be
        # positive, and the search must produce a violation.
        n = 2
        blocks = unital_blocks(
            [1.0, 0.0], [0.0, 1.0], np.zeros((n, n)), np.zeros((n, n)),
            np.eye(n),
        )
        assert equality_case_detect(blocks).equality
        assert certify_positivity(blocks, budget=32).status == VIOLATION_FOUND

    def test_recovers_construction(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            eta0 = random_complex(rng, n)
            eta0 /= np.linalg.norm(eta0)
            y, z = 0.4 * np.exp(2j * np.pi * rng.random()), 0.2
            Y = y * eta0.conj()
            Z = z * eta0.conj()
            blocks = unital_blocks(
                Y, Z, np.eye(n), np.zeros((n, n)), np.zeros((n, n))
            )
            rep = check_row_dependence(blocks)
            assert rep.dependent
            overlap = abs(np.vdot(rep.eta0, eta0))
            assert abs(overlap - 1.0) < 1e-10


class TestDegenerateClassification:
    def test_cp_case(self):
        Y = np.array([0.6, 0.0], dtype=complex)
        gram = np.outer(Y.conj(), Y)
        blocks = unital_blocks(Y, np.zeros(2), np.eye(2) - gram,
                               np.zeros((2, 2)), gram)
        out = classify_degenerate(blocks)
        assert out.verdict == "cp"
        assert out.cp.holds

    def test_cocp_case(self):
        Z = np.array([0.5, 0.5], dtype=complex) / np.sqrt(2)
        gram = np.outer(Z.conj(), Z)
        blocks = unital_blocks(np.zeros(2), Z, np.eye(2) - gram,
                               np.zeros((2, 2)), gram)
        out = classify_degenerate(blocks)
        assert out.verdict == "cocp"
        assert out.cp.holds

    def test_both_rows_nonzero(self, rng):
        blocks, _ = random_equality_blocks(2, rng)
        assert classify_degenerate(blocks).verdict == "not_applicable"


class TestCanonicalize:
    def test_already_canonical_read_off(self):
        canon_in = canonical_fixture(0.3, 0.2 * 1j, 0.05j, [0.02 + 0.01j], [0.0])
        blocks = canon_in.blocks()
        out = canonicalize(blocks)
        assert abs(abs(out.y) - 0.3) < 1e-12
        assert abs(abs(out.z) - 0.2) < 1e-12
        assert abs(out.u - canon_in.u) < 1e-12
        assert abs(abs(out.t) - 0.05) < 1e-12
        # phase convention: y real nonnegative
        assert out.y.imag == pytest.approx(0.0, abs=1e-12)
        assert out.y.real >= 0

    def test_scrambled_recovery(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            blocks, truth = random_equality_blocks(n, rng)
            scrambled, _ = scramble_blocks(blocks, rng)
            out = canonicalize(scrambled)
            assert abs(abs(out.y) - abs(truth["y"])) < 1e-9
            assert abs(abs(out.z) - abs(truth["z"])) < 1e-9
            assert abs(out.u - truth["u"]) < 1e-9
            assert abs(abs(out.t) - abs(truth["t"])) < 1e-9
            assert abs(np.linalg.norm(out.W_row) - np.linalg.norm(truth["W"])) < 1e-9
            # reassembly reproduces the rotated Choi matrix
            G = out.basis_change
            from posmap.choi import conjugate_choi

            rotated = conjugate_choi(assemble_blocks(scrambled), G)
            assert frobenius(rotated.H - out.choi().H) < 1e-9

    def test_u_is_coupling_square(self, rng):
        blocks, _ = random_equality_blocks(3, rng)
        out = canonicalize(blocks)
        assert abs(out.u - (abs(out.y) + abs(out.z)) ** 2) < 1e-10

    def test_rejects_independent_rows(self):
        blocks = unital_blocks(
            [1.0, 0.0], [0.0, 1.0], np.eye(2), np.zeros((2, 2)), np.eye(2)
        )
        with pytest.raises(NotDependentError):
            canonicalize(blocks)

    def test_rejects_wrong_zero_pattern(self, rng):
        # Dependent rows but a full U: not a genuine equality-case map.
        n = 2
        Y = np.array([0.3, 0.0], dtype=complex)
        blocks = unital_blocks(
            Y, 0.5 * Y, np.eye(n) * 0.5, np.zeros((n, n)), np.eye(n) * 0.5
        )
        with pytest.raises(ZeroPatternViolationError):
            canonicalize(blocks)


class TestCompress:
    def test_first_basis_vector_saturates(self):
        canon = canonical_fixture(0.3, 0.25, 0.04j, [0.05], [0.02])
        rho = np.zeros(2, dtype=complex)
        rho[0] = 1.0
        out = compress(canon, rho)
        assert abs(out.y - np.conj(canon.y)) < 1e-12
        assert abs(out.z - np.conj(canon.z)) < 1e-12
        assert abs(out.margin) < 1e-12  # |y| + |z| = sqrt(u)

    def test_orthogonal_rho_margin(self):
        canon = canonical_fixture(0.3, 0.25, 0.0, [0.0], [0.0])
        rho = np.array([0.0, 1.0], dtype=complex)
        out = compress(canon, rho)
        assert abs(out.y) < 1e-12 and abs(out.z) < 1e-12
        assert abs(out.margin - np.sqrt(canon.u)) < 1e-12

    def test_random_rho_bound_holds(self, rng):
        blocks, _ = random_equality_blocks(3, rng)
        canon = canonicalize(blocks)
        for _ in range(20):
            rho = random_complex(rng, 3)
            rho /= np.linalg.norm(rho)
            out = compress(canon, rho)
            assert out.margin >= -1e-9
            assert out.conditions.all_hold

    def test_rejects_non_unit(self):
        canon = canonical_fixture(0.3, 0.25, 0.0, [0.0], [0.0])
        with pytest.raises(NotUnitVectorError):
            compress(canon, np.array([1.0, 1.0]))


class TestFaceIntersection:
    def test_canonical_map_lies_in_intersection(self, rng):
        blocks, _ = random_equality_blocks(2, rng)
        rep = check_row_dependence(blocks)
        choi = assemble_blocks(blocks)
        assert face_intersection_check(choi, rep.eta0)

    def test_full_rank_u_fails(self):
        n = 2
        blocks = unital_blocks(
            np.zeros(n), np.zeros(n), np.eye(n) * 0.5, np.zeros((n, n)),
            np.eye(n) * 0.5,
        )
        eta0 = np.array([0.0, 1.0], dtype=complex)
        assert not face_intersection_check(assemble_blocks(blocks), eta0)

    def test_tang_fails(self):
        pipe = build_pipeline(TangParams(0.5, 1 / 24))
        eta0 = np.array([0.0, 0.0, 1.0], dtype=complex)
        assert not face_intersection_check(pipe.Hfinal, eta0)


class TestGenerator:
    def test_fixtures_are_certified_equality_maps(self, rng):
        for n in (2, 3, 4):
            blocks, truth = random_equality_blocks(n, rng)
            assert equality_case_detect(blocks).equality
            assert certify_positivity(blocks, budget=24).status == CERTIFIED
            assert abs(truth["u"] - (abs(truth["y"]) + abs(truth["z"])) ** 2) < 1e-14

    def test_scramble_preserves_spectra(self, rng):
        blocks, _ = random_equality_blocks(3, rng)
        scrambled, _ = scramble_blocks(blocks, rng)
        H0 = assemble_blocks(blocks).H
        H1 = assemble_blocks(scrambled).H
        assert np.allclose(
            np.linalg.eigvalsh(H0), np.linalg.eigvalsh(H1), atol=1e-10
        )
