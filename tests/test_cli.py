import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from posmap import cli
from posmap.choi import ChoiMatrix, assemble_blocks
from posmap.cli import build_classification, main
from posmap.cpdecomp import STATE_TOL, STATE_TRACE_TOL, WITNESS_TOL, decompose
from posmap.exceptions import ParseError
from posmap.io import (
    jsonable,
    load_matrix,
    matrix_digest,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)
from posmap.matkernel import partial_transpose
from posmap.positivity import POSITIVITY_TOL, block_positive_choi
from posmap.rand import random_psd, random_unit_vector, rng_for
from posmap.tang import TangParams, build_pipeline, tang_choi
from conftest import complex_matrices, product_violation


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """Parse CLI output as strict JSON: ``NaN`` and ``Infinity`` are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_ppt_witness(H, witness):
    """``witness`` is ``{rho, value}`` with rho a PPT state and Tr(H rho) < 0."""
    rho = matrix_from_obj(witness["rho"])
    assert abs(np.trace(rho).real - 1.0) <= STATE_TRACE_TOL
    assert np.linalg.eigvalsh(rho)[0] >= -STATE_TOL
    d = H.shape[0] // 2
    assert np.linalg.eigvalsh(partial_transpose(rho, d))[0] >= -STATE_TOL
    value = np.trace(H @ rho).real
    assert value < -WITNESS_TOL
    assert witness["value"] == pytest.approx(value, abs=1e-12)


class TestMatrixSchema:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(M=complex_matrices())
    def test_round_trip_bit_faithful(self, M, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, M)
        for back in (load_matrix(path),
                     matrix_from_obj(json.loads(json.dumps(jsonable(M))))):
            assert back.shape == M.shape
            # Raw bits, so that -0.0 differs from 0.0 and every subnormal counts.
            assert np.array_equal(back.view(np.uint64), M.view(np.uint64))
            assert np.array_equal(np.signbit(back.view(np.float64)),
                                  np.signbit(M.view(np.float64)))
            assert matrix_digest(back) == matrix_digest(M)

    def test_schema_fields(self):
        obj = matrix_to_obj(np.array([[1.0 + 2.0j]]))
        assert obj == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}

    def test_rejects_malformed(self):
        for obj in (
            {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]},
            [1, 2, 3],
            # Sizes are JSON integers >= 0: never truncated, never read off a bool.
            {"rows": 2.7, "cols": 1, "data": [[1.0, 0.0], [2.0, 0.0]]},
            {"rows": True, "cols": 1, "data": [[1.0, 0.0]]},
            {"rows": 10**20, "cols": 0, "data": []},
        ):
            with pytest.raises(ParseError):
                matrix_from_obj(obj)

    def test_jsonable_handles_reports(self, rng):
        from posmap.positivity import coupling_bound_check
        from posmap.choi import extract_blocks

        blocks = extract_blocks(build_pipeline(TangParams(0.5, 1 / 24)).Hfinal)
        out = jsonable(coupling_bound_check(blocks))
        json.dumps(out)  # must be encodable


class TestTangCommand:
    def test_raw_output_matches_library(self, tmp_path, capsys):
        out = tmp_path / "raw.json"
        code = main(["tang", "--mu", "0.9", "--eps", "0.12", "--stage", "raw",
                     "--out", str(out)])
        assert code == 0
        M = load_matrix(out)
        assert np.array_equal(M, tang_choi(TangParams(0.9, 0.12)).H)

    def test_bad_eps_exit_2(self, capsys):
        assert main(["tang", "--mu", "0.9", "--eps", "0.2"]) == 2

    def test_normalized_is_unital(self, tmp_path):
        out = tmp_path / "norm.json"
        code = main(["tang", "--mu", "0.5", "--eps", "0.041666",
                     "--stage", "normalized", "--out", str(out)])
        assert code == 0
        H = ChoiMatrix.from_array(load_matrix(out))
        assert np.linalg.norm(H.map_of_identity() - np.eye(4)) < 1e-9

    def test_stdout_when_no_out(self, capsys):
        code = main(["tang", "--mu", "0.5", "--eps", "0.01"])
        assert code == 0
        captured = capsys.readouterr()
        obj = strict_json(captured.out)
        assert obj["rows"] == 8
        assert "rho=" in captured.err


class TestClassifyCommand:
    def test_tang_normalized_report(self, tmp_path, capsys):
        src = tmp_path / "map.json"
        save_matrix(src, build_pipeline(TangParams(0.9, 0.12)).Hfinal.H)
        out = tmp_path / "report.json"
        code = main(["classify", str(src), "--out", str(out),
                     "--witness-restarts", "6", "--max-iters", "4000"])
        assert code == 0
        report = strict_json(out.read_text())
        assert report["flags"]["positive"]["status"] == "certified"
        assert report["flags"]["cp"] is False
        assert report["flags"]["ccp"] is False
        assert report["flags"]["decomposable"] == "no-witness"
        assert report["flags"]["equality_case"] is False
        assert report["face_form"]["in_face_form"] is True
        assert "timings" in report

    def test_psd_input_decomposes(self, tmp_path, rng):
        src = tmp_path / "psd.json"
        save_matrix(src, random_psd(6, rng))
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out)]) == 0
        report = strict_json(out.read_text())
        assert report["flags"]["cp"] is True
        assert report["flags"]["decomposable"] == "yes"

    def test_scaled_psd_input_decomposes(self, tmp_path, rng):
        from posmap.cpdecomp import DecompositionCertificate, validate_certificate

        H = random_psd(6, rng) * 1e150
        src = tmp_path / "psd.json"
        save_matrix(src, H)
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out),
                     "--max-iters", "50"]) == 0
        report = strict_json(out.read_text())
        assert report["flags"]["decomposable"] == "yes"
        cert = report["decomposition"]["certificate"]
        validate_certificate(ChoiMatrix.from_array(H), DecompositionCertificate(
            H1=matrix_from_obj(cert["H1"]), H2=matrix_from_obj(cert["H2"]),
            residual=cert["residual"], min_eig_H1=cert["min_eig_H1"],
            min_eig_H2_pt=cert["min_eig_H2_pt"]))

    def test_equality_fixture_gets_canonical_form(self, tmp_path):
        from posmap.extremal import random_equality_blocks

        blocks, _ = random_equality_blocks(2, rng_for(0, "cli-fixture"))
        src = tmp_path / "eq.json"
        save_matrix(src, assemble_blocks(blocks).H)
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out)]) == 0
        report = strict_json(out.read_text())
        assert report["flags"]["equality_case"] is True
        assert "canonical_form" in report
        assert "y" in report["canonical_form"]

    def test_near_hermitian_blocks_classify(self, tmp_path, capsys):
        # The defect passes the whole-matrix check of from_array but is 100
        # times the tolerance of the 2x2 block P on its own.
        H = np.diag([1.0, 1.0, 1000.0, 1000.0]).astype(complex)
        H[0, 1] = 1e-8j
        src = tmp_path / "near.json"
        save_matrix(src, H)
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out)]) == 0
        report = strict_json(out.read_text())
        # The diagonal map splits, so classify proves positivity without the
        # engine; the engine must still take the near-Hermitian blocks.
        assert report["flags"]["positive"]["status"] == "proved"
        assert block_positive_choi(ChoiMatrix.from_array(H)).status == "certified"
        assert report["input_digest"] == matrix_digest(H)

    def test_reports_deciding_tolerances(self):
        from posmap import choi, cpdecomp, extremal, matkernel, positivity
        from posmap.cli import build_classification

        report = build_classification(tang_choi(TangParams(0.9, 0.12)),
                                      max_iters=50)
        assert report["tolerances"] == {
            "positivity": positivity.POSITIVITY_TOL,
            "psd": matkernel.PSD_TOL,
            "struct": choi.STRUCT_TOL,
            "unital": choi.UNITAL_TOL,
            "equality": extremal.EQUALITY_TOL,
            "feas": cpdecomp.FEAS_TOL,
            "witness": cpdecomp.WITNESS_TOL,
            "plateau_relative": cpdecomp.PLATEAU_TOL,
            "state_trace": cpdecomp.STATE_TRACE_TOL,
            "state": cpdecomp.STATE_TOL,
        }

    def test_parse_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", str(bad)]) == 3

    def test_round_trip_digest(self, tmp_path, capsys):
        src = tmp_path / "raw.json"
        main(["tang", "--mu", "0.9", "--eps", "0.12", "--out", str(src)])
        out = tmp_path / "report.json"
        main(["classify", str(src), "--out", str(out),
              "--witness-restarts", "4", "--max-iters", "2000"])
        report = strict_json(out.read_text())
        assert report["input_digest"] == matrix_digest(load_matrix(src))

    def test_raw_tang_reports_its_witness(self, tmp_path):
        H = tang_choi(TangParams(0.9, 0.12)).H
        src = tmp_path / "raw.json"
        save_matrix(src, H)
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out)]) == 0
        report = strict_json(out.read_text())
        assert report["flags"]["decomposable"] == "no-witness"
        assert_ppt_witness(H, report["witness"])

    def test_deterministic_given_seed(self, tmp_path):
        src = tmp_path / "raw.json"
        main(["tang", "--mu", "0.9", "--eps", "0.12", "--out", str(src)])
        reports = []
        for k in range(2):
            out = tmp_path / f"r{k}.json"
            main(["classify", str(src), "--out", str(out), "--seed", "7",
                  "--witness-restarts", "4", "--max-iters", "2000"])
            obj = strict_json(out.read_text())
            obj.pop("timings")
            reports.append(json.dumps(obj, sort_keys=True))
        assert reports[0] == reports[1]

    def test_unknown_report_is_strict_json(self, tmp_path):
        # No candidate of this short run is state-checked; the report once
        # printed ``"best_value": Infinity``.
        rng = np.random.default_rng(29)
        G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        src = tmp_path / "h.json"
        save_matrix(src, G + G.conj().T)
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out),
                     "--max-iters", "5"]) == 0
        report = strict_json(out.read_text())
        assert report["flags"]["decomposable"] == "unknown"
        assert report["witness"]["stop"] == "cap"
        assert report["witness"]["iterations"] == 5

    def test_unknown_report_carries_the_witness_run(self, tmp_path):
        src = tmp_path / "map.json"
        save_matrix(src, build_pipeline(TangParams(0.9, 0.12)).Hfinal.H)
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out),
                     "--max-iters", "2"]) == 0
        report = strict_json(out.read_text())
        assert report["flags"]["decomposable"] == "unknown"
        witness = report["witness"]
        assert witness == {"found": False, "residual": witness["residual"],
                           "iterations": 2, "stop": "cap",
                           "budget": {"max_iters": 2}}
        assert 0.0 < witness["residual"] < np.inf


def decomposable_map(rng, d):
    H = random_psd(2 * d, rng) + partial_transpose(random_psd(2 * d, rng), d)
    return H / np.linalg.norm(H)


class TestSplitFirstPositivity:
    """A validated split proves positivity; the engine runs only without one."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return block_positive_choi(*args, **kwargs)

        monkeypatch.setattr(cli, "block_positive_choi", spy)
        return calls

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_split_proves_positivity_without_engine(self, d, rng, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the positivity engine ran")

        monkeypatch.setattr(cli, "block_positive_choi", engine)
        H = decomposable_map(rng, d)
        report = build_classification(ChoiMatrix.from_array(H))
        cert = report["decomposition"]["certificate"]
        positive = report["flags"]["positive"]
        bound = cert["min_eig_H1"] + cert["min_eig_H2_pt"] - cert["residual"]
        assert positive == {"status": "proved", "lower_bound": bound,
                            "evidence": "split", "witness": None}
        assert bound >= -POSITIVITY_TOL
        assert "positivity" not in report["timings"]
        values = [
            np.vdot(v, H @ v).real
            for v in (np.kron(random_unit_vector(2, rng), random_unit_vector(d, rng))
                      for _ in range(300))
        ]
        assert bound <= min(values) + 1e-12

    def test_split_with_negative_bound_runs_engine(self, engine_calls):
        # Shifted just below the engine's margin, the map has a product value
        # of at most -3e-9, so no split can bound it above -POSITIVITY_TOL;
        # this instance still splits within the split tolerance.
        H0 = decomposable_map(np.random.default_rng(1), 3)
        margin = block_positive_choi(ChoiMatrix.from_array(H0)).margin
        H = H0 - (margin + 3e-9) * np.eye(6)
        report = build_classification(ChoiMatrix.from_array(H))
        assert report["flags"]["decomposable"] == "yes"
        cert = report["decomposition"]["certificate"]
        bound = cert["min_eig_H1"] + cert["min_eig_H2_pt"] - cert["residual"]
        assert bound < -POSITIVITY_TOL
        assert len(engine_calls) == 1
        assert report["flags"]["positive"]["status"] != "proved"
        assert "margin" in report["flags"]["positive"]
        assert "positivity" in report["timings"]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_product_violation_never_proved(self, d, rng, engine_calls):
        report = build_classification(ChoiMatrix.from_array(product_violation(rng, d)))
        assert len(engine_calls) == 1
        assert report["flags"]["positive"]["status"] == "violation_found"


class TestDecomposeCommand:
    def test_decomposable_file(self, tmp_path, rng):
        H = random_psd(6, rng) + partial_transpose(random_psd(6, rng), 3)
        src = tmp_path / "h.json"
        save_matrix(src, H)
        out = tmp_path / "cert.json"
        assert main(["decompose", str(src), "--out", str(out)]) == 0
        obj = strict_json(out.read_text())
        assert obj["decomposed"] is True
        assert obj["residual"] <= 1e-7
        H1 = matrix_from_obj(obj["certificate"]["H1"])
        H2 = matrix_from_obj(obj["certificate"]["H2"])
        assert np.linalg.norm(H1 + H2 - H) <= 1e-7

    def test_raw_tang_prints_its_witness(self, tmp_path):
        H = tang_choi(TangParams(0.9, 0.12)).H
        src = tmp_path / "raw.json"
        save_matrix(src, H)
        out = tmp_path / "run.json"
        assert main(["decompose", str(src), "--out", str(out)]) == 0
        obj = strict_json(out.read_text())
        assert obj["decomposed"] is False and obj["stop"] == "witness"
        assert "note" not in obj and "certificate" not in obj
        assert_ppt_witness(H, obj["witness"])

    def test_failed_search_says_it_proves_nothing(self, tmp_path):
        src = tmp_path / "raw.json"
        save_matrix(src, tang_choi(TangParams(0.9, 0.12)).H)
        out = tmp_path / "run.json"
        assert main(["decompose", str(src), "--out", str(out),
                     "--max-iters", "2"]) == 0
        obj = strict_json(out.read_text())
        assert obj["stop"] == "cap"
        assert "witness" not in obj and "certificate" not in obj
        assert "not a nondecomposability proof" in obj["note"]


class TestReportFile:
    """Reports are one line of compact JSON and carry the split bit for bit."""

    @pytest.mark.parametrize("command", ["classify", "decompose"])
    def test_one_line_with_exact_certificate(self, command, tmp_path, rng):
        H = decomposable_map(rng, 3)
        src = tmp_path / "h.json"
        save_matrix(src, H)
        out = tmp_path / "report.json"
        assert main([command, str(src), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\n" not in text[:-1]
        obj = strict_json(text)
        cert = (obj["decomposition"] if command == "classify" else obj)["certificate"]
        expected = decompose(ChoiMatrix.from_array(H)).certificate
        for name in ("H1", "H2"):
            assert np.array_equal(matrix_from_obj(cert[name]).view(np.uint64),
                                  getattr(expected, name).view(np.uint64))


class TestParser:
    def test_built_at_most_once_and_seed_read_per_call(self, tmp_path,
                                                       monkeypatch):
        from posmap import cli

        builds, seeds = [], []
        make_parser = cli.make_parser

        def counting_make_parser():
            builds.append(1)
            return make_parser()

        def record(choi, budget, max_iters, seed):
            seeds.append(seed)
            return {}

        monkeypatch.setattr(cli, "make_parser", counting_make_parser)
        monkeypatch.setattr(cli, "build_classification", record)
        src = tmp_path / "h.json"
        save_matrix(src, random_psd(4, rng_for(0, "cli-parser")))
        for seed in ("7", "11"):
            monkeypatch.setenv("POSMAP_SEED", seed)
            assert main(["classify", str(src), "--out", str(tmp_path / "r.json")]) == 0
        assert len(builds) <= 1
        assert seeds == [7, 11]
        assert cli.make_parser().parse_args(["classify", "x"]).max_iters == 20000


class TestDegenerateSizes:
    """Iteration caps and grid sizes below 1, and negative point budgets, are
    rejected by the parser."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--max-iters", "0"],
        ["classify", "--max-iters", "-3"],
        ["decompose", "--max-iters", "0"],
        ["decompose", "--max-iters", "-1"],
    ])
    def test_max_iters_below_one_exit_2(self, argv, tmp_path, capsys):
        src = tmp_path / "h.json"
        save_matrix(src, random_psd(4, rng_for(0, "cli-sizes")))
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(src), *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-iters: must be at least 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_grid_below_one_exit_2(self, grid, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid", grid])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--grid: must be at least 1" in captured.err
        assert captured.out == ""

    def test_negative_budget_exit_2(self, tmp_path, capsys):
        src = tmp_path / "h.json"
        save_matrix(src, random_psd(4, rng_for(0, "cli-sizes")))
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(src), "--budget", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--budget: must be at least 0" in err
        assert "Traceback" not in err
        # A budget of 0 adds no random points to the fixed scan, and stays valid.
        assert main(["classify", str(src), "--budget", "0"]) == 0


class TestCanonicalCommand:
    def test_writes_canonical_form(self, tmp_path):
        from posmap.extremal import random_equality_blocks, scramble_blocks

        r = rng_for(0, "cli-canonical")
        blocks, truth = random_equality_blocks(3, r)
        scrambled, _ = scramble_blocks(blocks, r)
        src = tmp_path / "eq.json"
        save_matrix(src, assemble_blocks(scrambled).H)
        out = tmp_path / "canon.json"
        assert main(["canonical", str(src), "--out", str(out)]) == 0
        obj = strict_json(out.read_text())
        y = complex(*obj["y"])
        assert abs(abs(y) - abs(truth["y"])) < 1e-8

    def test_non_face_form_exit_3(self, tmp_path, rng, capsys):
        src = tmp_path / "h.json"
        save_matrix(src, random_psd(6, rng))
        assert main(["canonical", str(src)]) == 3


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["classify", "decompose", "canonical"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_exit_3_with_error_line(self, command, bad, tmp_path, capsys):
        H = build_pipeline(TangParams(0.5, 1 / 24)).Hfinal.H.copy()
        H[1, 1] = bad
        src = tmp_path / "bad.json"
        save_matrix(src, H)
        assert main([command, str(src)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


#: Malformed files whose errors ``load_matrix`` must turn into ``ParseError``.
MALFORMED_FILES = {
    "not_utf8": b"\xff\xfe\x00\x00",
    "too_deep": b"[" * 100000 + b"]" * 100000,
    "negative_sizes": b'{"rows": -1, "cols": -1, "data": [[1.0, 0.0]]}',
    "huge_integer": b'{"rows": 1, "cols": 1, "data": [[' + b"1" * 5000 + b', 0]]}',
}


class TestMalformedFile:
    @pytest.mark.parametrize("command", ["classify", "decompose", "canonical"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED_FILES))
    def test_exit_3_with_error_line(self, command, kind, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_bytes(MALFORMED_FILES[kind])
        assert main([command, str(src)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestNormOverflowInput:
    @pytest.mark.parametrize("command", ["classify", "decompose"])
    @pytest.mark.parametrize("kind", ["off_diagonal", "scaled_psd"])
    def test_exit_3_with_error_line(self, command, kind, tmp_path, rng, capsys):
        if kind == "off_diagonal":
            H = np.eye(6, dtype=complex)
            H[0, 1] = 1e200
        else:
            H = random_psd(6, rng) * 1e200
        src = tmp_path / "big.json"
        save_matrix(src, H)
        assert main([command, str(src)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestSolverFailure:
    # A failing eigh reaches the commands through the kernel, as
    # NoConvergenceError; a failing eigvalsh through direct LAPACK calls.
    @pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
    @pytest.mark.parametrize("command", ["classify", "decompose"])
    def test_exit_4_with_error_line(self, command, solver, tmp_path, monkeypatch,
                                    capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        src = tmp_path / "map.json"
        save_matrix(src, tang_choi(TangParams(0.9, 0.12)).H)
        monkeypatch.setattr(np.linalg, solver, fail)
        assert main([command, str(src)]) == 4
        assert capsys.readouterr().err.startswith("error: ")


class TestVerifyCommand:
    def test_smoke_battery_passes(self, capsys):
        code = main(["verify", "--grid", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        lines = [l for l in captured.out.splitlines() if l.startswith("[C")]
        assert len(lines) == 11
        assert all(" PASS " in l for l in lines)
