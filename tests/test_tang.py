import numpy as np
import pytest

from posmap.choi import choi_from_map, extract_blocks
from posmap.exceptions import BadParamsError
from posmap.matkernel import frobenius, psd_check, psd_inv_sqrt
from posmap.tang import (
    TangParams,
    blockwise_final_choi,
    build_pipeline,
    closed_form_constants,
    normalized_zero_mask,
    param_grid,
    phi0_apply,
    resolve_y_entry,
    tang_choi,
    verify_tang,
)

POINTS = [TangParams(0.9, 0.12), TangParams(0.5, 1 / 24), TangParams(0.3, 0.01)]


class TestParams:
    def test_valid_boundary(self):
        TangParams(0.6, 0.06)  # eps = mu^2 / 6 exactly

    @pytest.mark.parametrize(
        "mu,eps",
        [(0.9, 0.2), (0.9, 0.0), (0.9, -0.1), (0.0, 0.01), (1.0, 0.1), (1.5, 0.1)],
    )
    def test_invalid(self, mu, eps):
        with pytest.raises(BadParamsError):
            TangParams(mu, eps)


class TestParamGrid:
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(BadParamsError):
            param_grid(k)


class TestRawMap:
    def test_first_unit(self):
        out = phi0_apply(TangParams(0.5, 1 / 24), np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([1 - 1 / 24, 1.0, 2.0, 1.0]))

    def test_identity_corners(self):
        p = TangParams(0.5, 1 / 24)
        out = phi0_apply(p, np.eye(2))
        expected = np.diag([1 - p.eps + p.mu**2, 3.0, 4.0, 2.0]).astype(complex)
        expected[0, 3] = expected[3, 0] = -p.mu
        assert np.allclose(out, expected)

    def test_zero(self):
        assert np.allclose(phi0_apply(TangParams(0.5, 0.01), np.zeros((2, 2))), 0)

    def test_hermiticity_preserving(self, rng):
        p = TangParams(0.7, 0.05)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Aherm = (A + A.conj().T) / 2
        out = phi0_apply(p, Aherm)
        assert frobenius(out - out.conj().T) < 1e-14


class TestRawChoi:
    def test_reference_entries(self):
        H = tang_choi(TangParams(0.5, 1 / 24)).H
        assert H[0, 0] == 23 / 24
        assert H[4, 4] == 0.25
        assert H[2, 4] == 0.5
        assert H[3, 7] == 0.0
        # inner zero pattern of the coupling row
        assert np.array_equal(H[4, [0, 1, 3, 5, 6]], np.zeros(5))

    def test_matches_map_action_exactly(self):
        for p in POINTS:
            direct = tang_choi(p)
            generic = choi_from_map(lambda A: phi0_apply(p, A), 3)
            assert np.array_equal(direct.H, generic.H)

    def test_not_psd_either_way(self):
        from posmap.matkernel import partial_transpose

        H = tang_choi(TangParams(0.5, 1 / 24)).H
        assert not psd_check(H).is_psd
        assert not psd_check(partial_transpose(H, 4)).is_psd


class TestCornerConstants:
    def test_signs_and_equations(self):
        for p in POINTS:
            alpha, beta, gamma = closed_form_constants(p)
            assert alpha > 0 and beta > 0 and gamma < 0
            assert abs(alpha**2 + gamma**2 - p.rho**2) < 1e-12
            assert abs(beta**2 + gamma**2 - 2.0) < 1e-12
            assert abs((alpha + beta) * gamma + p.mu) < 1e-12

    def test_rotation_identity_follows(self):
        for p in POINTS:
            alpha, beta, gamma = closed_form_constants(p)
            lhs = (p.mu * gamma + alpha) ** 2 + (p.mu * beta + gamma) ** 2
            assert abs(lhs - p.rho**2) < 1e-12

    def test_inverse_sqrt_oracle(self):
        # The assembled corner matrix must invert the corner of phi0(I).
        p = TangParams(0.5, 1 / 24)
        alpha, beta, gamma = closed_form_constants(p)
        corner = np.array([[p.rho**2, -p.mu], [-p.mu, 2.0]])
        R2 = np.array([[beta, -gamma], [-gamma, alpha]]) / p.delta
        assert frobenius(R2 @ corner @ R2 - np.eye(2)) < 1e-12
        oracle = psd_inv_sqrt(corner)
        assert frobenius(R2 - oracle) < 1e-10

    def test_small_mu_limit(self):
        p = TangParams(1e-4, 1e-9 / 6.01)
        _, _, gamma = closed_form_constants(p)
        assert gamma < 0
        assert abs(gamma) < p.mu  # gamma = -mu / D with D > 2


class TestPipeline:
    def test_reference_diagonal(self):
        p = TangParams(0.5, 1 / 24)
        pipe = build_pipeline(p)
        H = pipe.Hfinal.H
        first = np.diagonal(H)[:4].real
        expected = [1.0, 1 / 3, 0.5, (1 - p.eps) / p.delta**2]
        assert np.allclose(first, expected, atol=1e-12)
        last = np.diagonal(H)[4:].real
        assert np.allclose(
            last, [0.0, 2 / 3, 0.5, p.rho**2 / p.delta**2], atol=1e-12
        )

    def test_unitality(self):
        pipe = build_pipeline(TangParams(0.9, 0.12))
        assert frobenius(pipe.Hfinal.map_of_identity() - np.eye(4)) < 1e-9

    def test_two_routes_agree(self):
        for p in POINTS:
            pipe = build_pipeline(p)
            other = blockwise_final_choi(pipe)
            assert frobenius(pipe.Hfinal.H - other.H) < 1e-9

    def test_grid_residuals(self):
        for p in param_grid(5):
            res = build_pipeline(p).residuals()
            assert res["unitality"] <= 1e-9
            assert res["W_unitarity"] <= 1e-10
            assert res["corner_system"] <= 1e-10
            assert res["rotation_identity"] <= 1e-10
            assert res["zero_pattern"] <= 1e-9

    def test_positivity_preserved_by_normalization(self):
        # The normalization is a congruence by a positive matrix followed by
        # a unitary conjugation, so block-positivity of the raw and final
        # Choi matrices must agree.
        from posmap.positivity import CERTIFIED, block_positive_choi

        p = TangParams(0.5, 1 / 24)
        pipe = build_pipeline(p)
        raw = block_positive_choi(pipe.H0, budget=32)
        final = block_positive_choi(pipe.Hfinal, budget=32)
        assert raw.status == CERTIFIED
        assert final.status == CERTIFIED

    def test_block_anatomy(self):
        p = TangParams(0.9, 0.12)
        blocks = extract_blocks(build_pipeline(p).Hfinal)
        assert abs(blocks.a - 1.0) < 1e-12
        assert np.linalg.norm(blocks.C) < 1e-12
        # Y is supported on the first coordinate, Z on the second
        assert abs(blocks.Y[0] + 1 / (np.sqrt(3) * p.rho)) < 1e-12
        assert np.max(np.abs(blocks.Y[1:])) < 1e-12
        assert abs(blocks.Z[1] + p.mu / (2 * p.rho)) < 1e-12
        # B + U = identity (unital face form)
        assert frobenius(blocks.B + blocks.U - np.eye(3)) < 1e-12

    def test_zero_mask_counts(self):
        mask = normalized_zero_mask()
        assert mask.sum() == 64 - (7 + 2 * 5)


class TestYEntryResolution:
    def test_consistent_variant(self):
        variants = {resolve_y_entry(build_pipeline(p)).variant for p in POINTS}
        assert variants == {"rho"}

    def test_residual_tight(self):
        res = resolve_y_entry(build_pipeline(TangParams(0.3, 0.01)))
        assert abs(res.observed - res.rho_candidate) < 1e-12
        assert abs(res.observed - res.delta_candidate) > 1e-3


class TestVerifyReport:
    def test_reference_point_all_pass(self):
        report = verify_tang(TangParams(0.9, 0.12), budget=32, seed=0)
        failing = {k: v for k, v in report.checks.items() if not v.passed}
        assert report.all_pass, failing
        assert report.y_entry.variant == "rho"

    def test_zero_pattern_check_reads_the_pipeline_residual(self, monkeypatch):
        # One entry under the printed-zero mask above STRUCT_TOL fails the check.
        from posmap.tang import TangPipeline

        residuals = TangPipeline.residuals
        monkeypatch.setattr(TangPipeline, "residuals",
                            lambda self: {**residuals(self), "zero_pattern": 2e-9})
        report = verify_tang(TangParams(0.9, 0.12), budget=32, seed=0)
        failing = {k for k, v in report.checks.items() if not v.passed}
        assert failing == {"zero_pattern"}
