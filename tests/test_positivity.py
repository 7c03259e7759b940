import numpy as np
import pytest

from posmap.choi import ChoiBlocks, ChoiMatrix, assemble_blocks, extract_blocks, row_abs
from posmap.exceptions import (
    BadScalarsError,
    DimensionMismatchError,
    NotPSDError,
    NotUnitalFaceFormError,
    SingularMatrixError,
)
from posmap.matkernel import psd_check
from posmap.positivity import (
    BLOCH_POINTS,
    CERTIFIED,
    REFINE_STARTS,
    REFINE_STEPS,
    VIOLATION_FOUND,
    Refinement,
    _bloch_min,
    _fibonacci_sphere,
    admissible_combination,
    block_positive_2x2,
    block_positive_choi,
    certify_positivity,
    coupling_bound_check,
    face_membership,
    face_structure_report,
    positivity_slack_triple,
    scalar_choi_conditions,
)
from posmap.acceptance import _certified_triple, _violating_triple
from posmap.extremal import random_equality_blocks
from posmap.rand import random_psd, rng_for
from posmap.tang import TangParams, build_pipeline
from conftest import benchmark_case, product_violation, random_complex


def dense_sphere_min(P, S, Q, n_samples=40000, seed=7):
    """Independent oracle: the gap minimized over a dense random sphere set."""
    rng = np.random.default_rng(seed)
    etas = rng.standard_normal((n_samples, P.shape[0])) + 1j * rng.standard_normal(
        (n_samples, P.shape[0])
    )
    etas /= np.linalg.norm(etas, axis=1, keepdims=True)
    p = np.einsum("mi,ij,mj->m", etas.conj(), P, etas).real
    q = np.einsum("mi,ij,mj->m", etas.conj(), Q, etas).real
    s = np.einsum("mi,ij,mj->m", etas.conj(), S, etas)
    return float(np.min(p * q - np.abs(s) ** 2))


def dense_lambda_min(P, S, Q, n_samples=40000, seed=7):
    """Independent oracle: min eigenvalue of phi(xi xi*) over dense random xi."""
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_samples, 2)) + 1j * rng.standard_normal((n_samples, 2))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    w = xi[:, :, None] * xi.conj()[:, None, :]
    images = (
        w[:, 0, 0, None, None] * P
        + w[:, 0, 1, None, None] * S
        + w[:, 1, 0, None, None] * S.conj().T
        + w[:, 1, 1, None, None] * Q
    )
    return float(np.linalg.eigvalsh(images)[:, 0].min())


def witness_value(H, witness):
    """Quadratic form of the Choi matrix at the product vector kron(lam, eta)."""
    v = np.kron(np.asarray(witness.lam), witness.eta)
    return float(np.vdot(v, H @ v).real)


def unital_blocks(n, Y, Z, B, T, U):
    return ChoiBlocks(
        a=1.0, x=0j, C=np.zeros(n, dtype=complex),
        Y=np.asarray(Y, dtype=complex), Z=np.asarray(Z, dtype=complex),
        B=np.asarray(B, dtype=complex), T=np.asarray(T, dtype=complex),
        U=np.asarray(U, dtype=complex),
    )


def cp_shaped_blocks(n=2, y=0.6):
    """Blocks of a completely positive map: Z = 0, U = Y*Y, B = 1 - Y*Y, T = 0."""
    Y = np.zeros(n, dtype=complex)
    Y[0] = y
    gram = np.outer(Y.conj(), Y)
    return unital_blocks(n, Y, np.zeros(n), np.eye(n) - gram, np.zeros((n, n)), gram)


def eig_calls(monkeypatch, call):
    """``call()`` and the number of checked ``hermitian_eig`` calls it made."""
    import posmap.matkernel as matkernel

    calls = []
    original = matkernel.hermitian_eig

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(matkernel, "hermitian_eig", counted)
    return call(), len(calls)


@pytest.fixture(scope="module")
def tang_blocks():
    return extract_blocks(build_pipeline(TangParams(0.5, 1 / 24)).Hfinal)


class TestBlockPositive2x2:
    def test_trivial_certified(self):
        v = block_positive_2x2(np.eye(2), np.zeros((2, 2)), np.eye(2), budget=8)
        assert v.status == CERTIFIED
        assert abs(v.margin - 1.0) < 1e-9

    def test_rank_one_violation_matches_grid_oracle(self):
        P = np.diag([1.0, 0.0]).astype(complex)
        Q = np.diag([1.0, 0.0]).astype(complex)
        S = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        oracle = dense_sphere_min(P, S, Q)
        assert oracle < -1e-3
        v = block_positive_2x2(P, S, Q, budget=16)
        assert v.status == VIOLATION_FOUND
        assert v.margin <= oracle + 1e-6
        # witness reproduces the violation
        eta = v.witness.eta
        p = np.real(np.vdot(eta, P @ eta))
        q = np.real(np.vdot(eta, Q @ eta))
        s = np.vdot(eta, S @ eta)
        assert p * q - abs(s) ** 2 < -1e-9
        lam1, lam2 = v.witness.lam
        form = (
            abs(lam1) ** 2 * p
            + 2 * np.real(np.conj(lam1) * lam2 * s)
            + abs(lam2) ** 2 * q
        )
        assert form < 0
        # the witness scalars make an admissible non-PSD combination
        combo = admissible_combination(
            P, S, Q, abs(lam1) ** 2, abs(lam2) ** 2, np.conj(lam1) * lam2
        )
        assert not psd_check(combo).is_psd

    def test_tang_slack_triple_certified(self, tang_blocks):
        P, S, Q = positivity_slack_triple(tang_blocks)
        v = block_positive_2x2(P, S, Q, budget=32)
        assert v.status == CERTIFIED

    def test_margin_close_to_oracle(self, rng):
        for _ in range(5):
            P = random_psd(2, rng)
            Q = random_psd(2, rng)
            S = random_complex(rng, (2, 2))
            v = block_positive_2x2(P, S, Q, budget=32)
            assert v.margin <= dense_lambda_min(P, S, Q) + 1e-6
            if dense_sphere_min(P, S, Q) < -1e-6:
                assert v.status == VIOLATION_FOUND

    def test_scaling_s_never_raises_margin(self, rng):
        P = random_psd(2, rng) + 0.5 * np.eye(2)
        Q = random_psd(2, rng) + 0.5 * np.eye(2)
        S = random_complex(rng, (2, 2), scale=0.3)
        margins = [
            block_positive_2x2(P, t * S, Q, budget=16, seed=3).margin
            for t in (1.0, 1.5, 2.0, 4.0)
        ]
        for a, b in zip(margins, margins[1:]):
            assert b <= a + 1e-6

    def test_scalar_blocks_match_closed_form(self, rng):
        # For 1x1 blocks min over unit xi of phi(xi xi*) is the smallest
        # eigenvalue of [[p, s], [conj(s), q]].
        for _ in range(10):
            p, q = rng.uniform(0.0, 2.0, size=2)
            s = complex(*rng.uniform(-1.5, 1.5, size=2))
            v = block_positive_2x2([[p]], [[s]], [[q]], budget=8)
            exact = np.linalg.eigvalsh(np.array([[p, s], [np.conj(s), q]]))[0]
            assert abs(v.margin - exact) < 1e-9
            assert v.status == (CERTIFIED if exact >= -1e-9 else VIOLATION_FOUND)

    def test_rejects_indefinite_p(self):
        # A non-PSD P is a violation at the north pole, returned, not raised.
        v = block_positive_2x2(np.diag([1.0, -1.0]), np.zeros((2, 2)), np.eye(2))
        assert v.status == VIOLATION_FOUND
        assert v.margin == pytest.approx(-1.0)
        assert v.poles == (v.margin, pytest.approx(1.0))
        assert v.witness.lam == (1.0 + 0j, 0j)
        assert abs(abs(v.witness.eta[1]) - 1.0) < 1e-12

    def test_mismatched_shapes_raise_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            block_positive_2x2(np.eye(2), np.zeros((3, 3)), np.eye(2))
        with pytest.raises(DimensionMismatchError):
            block_positive_2x2(np.eye(2), np.zeros((2, 2)), np.eye(3))

    def test_empty_blocks_raise_dimension_mismatch(self):
        E = np.zeros((0, 0))
        with pytest.raises(DimensionMismatchError):
            block_positive_2x2(E, E, E)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_face_form_margin_is_zero(self, rng, n):
        # phi(E_22) f1 = 0 puts the zero of a face-form map at the south pole,
        # which the engine's point set misses; the pole check supplies it.
        blocks, _ = random_equality_blocks(n, rng)
        v = block_positive_choi(assemble_blocks(blocks))
        assert v.status == CERTIFIED
        assert abs(v.margin) <= 1e-12
        assert len(v.poles) == 2 and v.margin <= min(v.poles)


class TestLargeBlocks:
    """Block sizes 4..10, which no sphere grid in C^d covered."""

    @pytest.mark.parametrize("d", range(4, 11))
    def test_violating_triple_found(self, d):
        P, S, Q = _violating_triple(d, rng_for(d, "large-violating"))
        v = block_positive_2x2(P, S, Q, budget=32)
        assert v.status == VIOLATION_FOUND
        H = np.block([[P, S], [S.conj().T, Q]])
        assert witness_value(H, v.witness) < 0.0
        assert v.margin <= dense_lambda_min(P, S, Q, n_samples=10000) + 1e-6

    @pytest.mark.parametrize("d", range(4, 11))
    def test_certified_triple_certified(self, d):
        P, S, Q = _certified_triple(d, rng_for(d, "large-certified"))
        v = block_positive_2x2(P, S, Q, budget=32)
        assert v.status == CERTIFIED
        assert v.margin <= dense_lambda_min(P, S, Q, n_samples=10000) + 1e-6


class TestAdmissibleCombination:
    def test_simple_sum(self):
        P, Q = np.eye(2), np.eye(2)
        S = np.zeros((2, 2))
        assert np.allclose(admissible_combination(P, S, Q, 1, 1, 0), 2 * np.eye(2))

    def test_hermitian_s_doubles(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = admissible_combination(np.eye(2), S, np.eye(2), 1, 1, 1)
        assert np.allclose(out, np.eye(2) * 2 + 2 * S)

    def test_rejects_inadmissible(self):
        with pytest.raises(BadScalarsError):
            admissible_combination(np.eye(2), np.eye(2), np.eye(2), 1.0, 0.1, 1.0)

    @pytest.mark.parametrize("p, q, s", [(np.nan, 1.0, 0.0), (1.0, np.inf, 0.0),
                                         (1.0, 1.0, complex(np.nan, 0.0))])
    def test_rejects_non_finite_scalars(self, p, q, s):
        with pytest.raises(BadScalarsError):
            admissible_combination(np.eye(2), np.eye(2), np.eye(2), p, q, s)

    @pytest.mark.parametrize("odd", ["S", "Q"])
    def test_rejects_mismatched_shapes(self, odd):
        P, S, Q = np.eye(2), np.eye(2), np.eye(2)
        if odd == "S":
            S = np.eye(3)
        else:
            Q = np.eye(3)
        with pytest.raises(DimensionMismatchError):
            admissible_combination(P, S, Q, 1.0, 1.0, 0.0)

    def test_certified_triples_give_psd_combinations(self, rng):
        for _ in range(10):
            P = random_psd(2, rng) + 0.3 * np.eye(2)
            Q = random_psd(2, rng) + 0.3 * np.eye(2)
            floor = np.sqrt(np.linalg.eigvalsh(P)[0] * np.linalg.eigvalsh(Q)[0])
            S = random_complex(rng, (2, 2))
            S *= 0.4 * floor / np.linalg.norm(S, 2)
            assert block_positive_2x2(P, S, Q, budget=16).status == CERTIFIED
            for _ in range(100):
                p, q = rng.uniform(0, 2, size=2)
                s = rng.random() * np.sqrt(p * q) * np.exp(2j * np.pi * rng.random())
                combo = admissible_combination(P, S, Q, p, q, s)
                assert psd_check(combo).is_psd


class TestFaceStructure:
    def test_tang_blocks_all_pass(self, tang_blocks):
        report = face_structure_report(tang_blocks)
        assert report.all_pass, {
            k: v for k, v in report.relations.items() if not v.passed
        }

    def test_zero_a_with_nonzero_c_fails(self):
        n = 2
        blocks = ChoiBlocks(
            a=0.0, x=0j, C=np.array([1.0, 0.0], dtype=complex),
            Y=np.zeros(n, dtype=complex), Z=np.zeros(n, dtype=complex),
            B=np.eye(n, dtype=complex), T=np.zeros((n, n), dtype=complex),
            U=np.eye(n, dtype=complex),
        )
        report = face_structure_report(blocks)
        assert not report.relations["C_zero_when_a_zero"].passed

    def test_normalized_tang_checks_b_and_u_once(self, monkeypatch):
        blocks = extract_blocks(build_pipeline(TangParams(0.9, 0.12)).Hfinal)
        expected = {
            name: psd_check(M).min_eigenvalue
            for name, M in (("B_psd", blocks.B), ("U_psd", blocks.U))
        }
        report, calls = eig_calls(monkeypatch, lambda: face_structure_report(blocks))
        assert calls == 2
        for name, lowest in expected.items():
            assert report.relations[name].passed
            assert report.relations[name].margin == lowest

    def test_indefinite_b_still_reports_u(self):
        n = 2
        U = np.diag([2.0, 3.0]).astype(complex)
        blocks = ChoiBlocks(
            a=1.0, x=0j, C=np.zeros(n, dtype=complex),
            Y=np.zeros(n, dtype=complex), Z=np.zeros(n, dtype=complex),
            B=np.diag([1.0, -1.0]).astype(complex),
            T=np.zeros((n, n), dtype=complex), U=U,
        )
        report = face_structure_report(blocks)
        assert not report.relations["B_psd"].passed
        assert report.relations["B_psd"].margin == pytest.approx(-1.0)
        assert report.relations["U_psd"].passed
        assert report.relations["U_psd"].margin == pytest.approx(2.0)
        assert not report.relations["BT_block_positive"].passed

    def test_nonzero_x_fails(self, tang_blocks):
        bad = ChoiBlocks(
            a=tang_blocks.a, x=1e-3 + 0j, C=tang_blocks.C, Y=tang_blocks.Y,
            Z=tang_blocks.Z, B=tang_blocks.B, T=tang_blocks.T, U=tang_blocks.U,
        )
        report = face_structure_report(bad)
        assert not report.relations["x_zero"].passed


class TestCertifyPositivity:
    def test_cp_shaped_blocks_certified(self):
        v = certify_positivity(cp_shaped_blocks(), budget=32)
        assert v.status == CERTIFIED

    def test_tang_certified(self, tang_blocks):
        v = certify_positivity(tang_blocks, budget=64)
        assert v.status == CERTIFIED

    def test_scaled_couplings_violate(self, tang_blocks):
        blown = ChoiBlocks(
            a=1.0, x=0j, C=tang_blocks.C, Y=10.0 * tang_blocks.Y,
            Z=10.0 * tang_blocks.Z, B=tang_blocks.B, T=tang_blocks.T,
            U=tang_blocks.U,
        )
        v = certify_positivity(blown, budget=64)
        assert v.status == VIOLATION_FOUND
        # witness self-verification against the assembled Choi matrix
        H = assemble_blocks(blown).H
        assert witness_value(H, v.witness) < -1e-9 / 2

    def test_requires_unital_face_form(self, tang_blocks):
        bad = ChoiBlocks(
            a=0.5, x=0j, C=tang_blocks.C, Y=tang_blocks.Y, Z=tang_blocks.Z,
            B=tang_blocks.B, T=tang_blocks.T, U=tang_blocks.U,
        )
        with pytest.raises(NotUnitalFaceFormError):
            certify_positivity(bad)

    def test_coupling_violation_implies_positivity_violation(self, tang_blocks):
        # Necessity: any map failing the coupling bound must also fail the
        # positivity search.
        blown = ChoiBlocks(
            a=1.0, x=0j, C=tang_blocks.C, Y=10.0 * tang_blocks.Y,
            Z=10.0 * tang_blocks.Z, B=tang_blocks.B, T=tang_blocks.T,
            U=tang_blocks.U,
        )
        assert not coupling_bound_check(blown).holds
        assert certify_positivity(blown, budget=64).status == VIOLATION_FOUND


class TestCouplingBound:
    def test_zero_rows(self):
        n = 2
        blocks = unital_blocks(
            n, np.zeros(n), np.zeros(n), np.eye(n) * 0.5, np.zeros((n, n)),
            np.eye(n) * 0.5,
        )
        bound = coupling_bound_check(blocks)
        assert bound.holds
        assert abs(bound.margin - np.sqrt(0.5)) < 1e-12

    def test_tang_strict(self, tang_blocks):
        bound = coupling_bound_check(tang_blocks)
        assert bound.holds and bound.strict
        # analytic margin at mu = 0.5, eps = 1/24
        rho = np.sqrt(1 - 1 / 24 + 0.25)
        expected = min(
            np.sqrt(2 / 3) - 1 / (np.sqrt(3) * rho),
            np.sqrt(0.5) - 0.5 / (2 * rho),
        )
        assert abs(bound.margin - expected) < 1e-12

    def test_saturated_scalar_case(self):
        y, z = 0.3, 0.4
        u = (y + z) ** 2
        blocks = unital_blocks(
            1, [y], [z], [[1 - u]], [[0.0]], [[u]]
        )
        bound = coupling_bound_check(blocks)
        assert bound.holds and not bound.strict
        assert abs(bound.margin) < 1e-12

    def test_rejects_indefinite_u(self):
        blocks = unital_blocks(1, [0.0], [0.0], [[1.0]], [[0.0]], [[-1.0]])
        with pytest.raises(NotPSDError):
            coupling_bound_check(blocks)


class TestScalarConditions:
    def test_all_hold(self):
        conds = scalar_choi_conditions(1, 1, 1, 0, 0, 0, 0)
        assert conds.all_hold

    def test_coupling_fails(self):
        conds = scalar_choi_conditions(1, 1, 1, 0, 0.8, 0.4, 0)
        assert not conds.coupling.holds
        assert abs(conds.coupling.margin + 0.2) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(BadScalarsError):
            scalar_choi_conditions(-1, 1, 1, 0, 0, 0, 0)

    @pytest.mark.parametrize("slot", range(7))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, slot, bad):
        scalars = [1, 1, 1, 0, 0, 0, 0]
        scalars[slot] = bad
        with pytest.raises(BadScalarsError):
            scalar_choi_conditions(*scalars)


class TestFaceMembership:
    def test_tang_in_standard_face(self):
        pipe = build_pipeline(TangParams(0.5, 1 / 24))
        res = face_membership(
            pipe.Hfinal, np.array([0.0, 1.0]), np.eye(4)[:, 0]
        )
        assert res.member

    def test_full_rank_not_member(self):
        blocks = cp_shaped_blocks()
        H = assemble_blocks(blocks).H.copy()
        H[3, 3] = 0.0  # keep face shape but test against a generic eta
        res = face_membership(
            assemble_blocks(blocks), np.array([1.0, 0.0]), np.ones(3) / np.sqrt(3)
        )
        assert not res.member

    def test_kernel_vector_is_member(self, rng):
        blocks = cp_shaped_blocks()
        choi = assemble_blocks(blocks)
        # eigenvector of phi(P_xi) at eigenvalue ~0 found spectrally
        xi = np.array([0.0, 1.0])
        block22 = choi.block(2, 2)
        w, V = np.linalg.eigh(block22)
        eta = V[:, 0]
        assert abs(w[0]) < 1e-12
        assert face_membership(choi, xi, eta).member

    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_eta_length_raises(self, length):
        # cp_shaped_blocks has n = 2, so eta must have length 3.
        choi = assemble_blocks(cp_shaped_blocks())
        with pytest.raises(DimensionMismatchError):
            face_membership(choi, np.array([0.0, 1.0]), np.ones(length) / np.sqrt(length))


class TestSlackTriple:
    def test_zero_couplings(self):
        blocks = unital_blocks(
            2, np.zeros(2), np.zeros(2), np.eye(2) * 0.5, np.zeros((2, 2)),
            np.eye(2) * 0.5,
        )
        P, S, Q = positivity_slack_triple(blocks)
        assert np.allclose(P, np.eye(2))
        assert np.allclose(S, 0)
        assert np.allclose(Q, np.eye(2) * 0.5)
        assert block_positive_2x2(P, S, Q, budget=8).status == CERTIFIED

    def test_cp_shaped_forces_zero_t(self):
        # When U = Y*Y and Z = 0 the slack block vanishes, so block
        # positivity of the triple forces T = 0; a nonzero T must violate.
        blocks = cp_shaped_blocks()
        P, S, Q = positivity_slack_triple(blocks)
        assert np.allclose(Q, 0, atol=1e-12)
        T = np.zeros((2, 2), dtype=complex)
        T[0, 1] = 0.3
        v = block_positive_2x2(P, T, Q, budget=16)
        assert v.status == VIOLATION_FOUND

    def test_rejects_singular_b(self):
        blocks = unital_blocks(
            2, np.zeros(2), np.zeros(2), np.diag([1.0, 0.0]), np.zeros((2, 2)),
            np.diag([0.0, 1.0]),
        )
        with pytest.raises(SingularMatrixError):
            positivity_slack_triple(blocks)


class TestBlockPositiveChoi:
    def test_positive_map_certified(self):
        pipe = build_pipeline(TangParams(0.9, 0.12))
        v = block_positive_choi(pipe.Hfinal, budget=32)
        assert v.status == CERTIFIED

    def test_indefinite_diagonal_block_is_violation(self, rng):
        from posmap.choi import ChoiMatrix

        H = np.zeros((6, 6), dtype=complex)
        H[:3, :3] = np.diag([1.0, 1.0, -1.0])
        H[3:, 3:] = np.eye(3)
        v = block_positive_choi(ChoiMatrix.from_array(H), budget=8)
        assert v.status == VIOLATION_FOUND
        assert v.witness.lam == (1.0 + 0j, 0j)


class TestDiagonalBlockChecks:
    """Each diagonal block is PSD-checked once, inside block_positive_2x2."""

    @staticmethod
    def eig_calls(monkeypatch, choi):
        return eig_calls(monkeypatch, lambda: block_positive_choi(choi, budget=8))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_certified_path_checks_each_block_once(self, monkeypatch, rng, d):
        from posmap.choi import ChoiMatrix
        from posmap.matkernel import partial_transpose

        H = random_psd(2 * d, rng) + partial_transpose(random_psd(2 * d, rng), d)
        verdict, calls = self.eig_calls(monkeypatch, ChoiMatrix.from_array(H))
        assert verdict.status == CERTIFIED
        assert calls == 2

    @pytest.mark.parametrize("lower, lam, failing", [
        (0, (1.0 + 0j, 0j), 1),
        (1, (0j, 1.0 + 0j), 2),
    ])
    def test_pole_violation_stops_at_the_failing_block(
        self, monkeypatch, lower, lam, failing
    ):
        # Both poles are checked once, and the violation is at the lower one,
        # whether one pole fails or both do.
        from posmap.choi import ChoiMatrix

        H = np.eye(6, dtype=complex)
        H[3 * lower + 2, 3 * lower + 2] = -2.0
        if failing == 2:
            H[3 * (1 - lower) + 2, 3 * (1 - lower) + 2] = -1.0
        verdict, calls = self.eig_calls(monkeypatch, ChoiMatrix.from_array(H))
        assert verdict.status == VIOLATION_FOUND
        assert verdict.witness.lam == lam
        assert verdict.margin == pytest.approx(-2.0)
        assert verdict.poles[lower] == verdict.margin == min(verdict.poles)
        assert calls == 2


class TestAlternatingRefinement:
    """The refinement stops once no start improves, not at its step cap."""

    def test_median_eigensolves_on_decomposable_maps(self, monkeypatch):
        from posmap.choi import ChoiMatrix
        from posmap.matkernel import partial_transpose

        calls = []
        original = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        counts = []
        for d in range(2, 12):
            rng = rng_for(d, "refinement-eigensolves")
            H = random_psd(2 * d, rng) + partial_transpose(random_psd(2 * d, rng), d)
            choi = ChoiMatrix.from_array(H)
            calls.clear()
            assert block_positive_choi(choi).status == CERTIFIED
            counts.append(len(calls))
        # Two pole checks, one initial and one final eigensolve, and one per
        # refinement step, at most REFINE_STEPS of them.
        assert np.median(counts) <= 40


def full_scan_bloch_min(P, S, Q, budget, seed):
    """Reference engine: every scan point factored in one batch, the starts
    picked by a stable sort, then the same refinement as ``_bloch_min``, with
    the ``b = 0`` guard and the improved starts kept by boolean indexing."""
    Sh = S.conj().T
    A = np.stack([(P + Q) / 2, (S + Sh) / 2, 1j * (S - Sh) / 2, (P - Q) / 2])
    rng = rng_for(seed, "bloch-sphere")
    extra = rng.standard_normal((max(int(budget), 0), 3))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    points = np.vstack([_fibonacci_sphere(BLOCH_POINTS), extra])

    def matrices(r):
        return A[0] + np.einsum("mk,kij->mij", r, A[1:])

    lowest = np.linalg.eigvalsh(matrices(points))[:, 0]
    r = points[np.argsort(lowest, kind="stable")[:REFINE_STARTS]]
    w, V = np.linalg.eigh(matrices(r))
    value, eta = w[:, 0], V[:, :, 0]
    steps, stop = 0, "cap"
    for steps in range(1, REFINE_STEPS + 1):
        b = np.einsum("mi,kij,mj->mk", eta.conj(), A[1:], eta).real
        size = np.linalg.norm(b, axis=1, keepdims=True)
        trial = np.where(size > 0.0, -b / np.where(size > 0.0, size, 1.0), r)
        w, V = np.linalg.eigh(matrices(trial))
        better = w[:, 0] < value
        if not np.any(better):
            stop = "converged"
            break
        r[better], value[better], eta[better] = trial[better], w[better, 0], V[better, :, 0]
    k = int(np.argmin(value))
    r1, r2, r3 = r[k]
    rho = np.array([[1 + r3, r1 + 1j * r2], [r1 - 1j * r2, 1 - r3]]) / 2
    return (float(value[k]), np.linalg.eigh(rho)[1][:, -1], eta[k].copy(),
            Refinement(steps, stop))


def scan_triples():
    """Named (P, S, Q) triples for the pruned-scan comparison."""
    rng = rng_for(0, "pruned-scan")
    for d in range(1, 11):
        P, Q = random_psd(d, rng), random_psd(d, rng)
        yield f"random d={d}", P, random_complex(rng, (d, d), scale=d / 4), Q
    P = random_psd(3, rng)
    yield "all ties (S = 0, P = Q)", P, np.zeros((3, 3), complex), P
    P, S, Q = _violating_triple(4, rng)
    for scale in (1e-11, 1e150):
        yield f"violating triple x {scale:g}", scale * P, scale * S, scale * Q
    yield "violating triple", P, S, Q
    H = product_violation(rng, 3)
    yield "product violation", H[:3, :3], H[:3, 3:], H[3:, 3:]
    for stage in ("H0", "Hfinal"):
        H = getattr(build_pipeline(TangParams(0.5, 1 / 24)), stage).H
        yield f"tang {stage}", H[:4, :4], H[:4, 4:], H[4:, 4:]
    H = benchmark_case("nonpositive", 5, 1).H
    d = len(H) // 2
    yield "nonpositive case", H[:d, :d], H[:d, d:], H[d:, d:]


class TestPrunedScan:
    """The two-batch scan starts the refinement where a full scan would."""

    @pytest.mark.parametrize("budget", [0, 16, 64, 1000])
    def test_same_result_as_full_scan(self, budget):
        for k, (name, P, S, Q) in enumerate(scan_triples()):
            P, S, Q = (np.asarray(m, dtype=complex) for m in (P, S, Q))
            got = _bloch_min(P, S, Q, budget, k)
            want = full_scan_bloch_min(P, S, Q, budget, k)
            assert got[0] == want[0], name
            assert np.array_equal(got[1], want[1]), name
            assert np.array_equal(got[2], want[2]), name
            assert got[3] == want[3], name

    def test_scan_skips_points_on_a_violating_triple(self, monkeypatch):
        # Batch sizes through eigvalsh: the coarse points, the three A_k for
        # the Lipschitz constant, and the fine points the bound keeps.
        sizes = []
        original = np.linalg.eigvalsh

        def counted(a):
            sizes.append(a.shape[0])
            return original(a)

        P, S, Q = _violating_triple(3, rng_for(1, "scan-count"))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        _bloch_min(P, S, Q, 64, 0)
        assert sum(sizes) < BLOCH_POINTS + 64


class TestRefinementReport:
    """The verdict says how the engine's refinement ended."""

    @pytest.mark.parametrize("stage", ["H0", "Hfinal"])
    def test_tang_refinement_hits_the_cap(self, stage):
        choi = getattr(build_pipeline(TangParams(0.5, 0.5**2 / 12)), stage)
        v = block_positive_choi(choi, budget=64, seed=0)
        assert v.status == CERTIFIED
        assert v.refine == Refinement(REFINE_STEPS, "cap")

    def test_nonpositive_triple_converges(self):
        # Case 1 of the benchmark's nonpositive pool at seed 5: PSD diagonal
        # blocks, so the engine decides.
        case = benchmark_case("nonpositive", 5, 1)
        v = block_positive_choi(ChoiMatrix.from_array(case.H), seed=case.seed)
        assert v.status == VIOLATION_FOUND
        assert v.refine.stop == "converged"
        assert 1 <= v.refine.steps < REFINE_STEPS

    def test_no_refinement_when_a_pole_decides(self):
        v = block_positive_2x2(np.diag([1.0, -1.0]), np.zeros((2, 2)), np.eye(2))
        assert v.status == VIOLATION_FOUND and v.refine is None
