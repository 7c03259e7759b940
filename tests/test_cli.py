import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from posmap import cli, cpdecomp, positivity
from posmap.choi import ChoiBlocks, ChoiMatrix, assemble_blocks
from posmap.cli import build_classification, main
from posmap.cpdecomp import (
    STATE_TOL,
    STATE_TRACE_TOL,
    WITNESS_TOL,
    decompose,
    witness_search,
)
from posmap.exceptions import ParseError
from posmap.io import (
    jsonable,
    load_matrix,
    matrix_digest,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
    write_json,
)
from posmap.matkernel import PSD_TOL, partial_transpose
from posmap.positivity import block_positive_choi
from posmap.rand import random_psd, random_unit_vector, rng_for
from posmap.tang import TangParams, build_pipeline, tang_choi
from conftest import benchmark_case, complex_matrices, product_violation


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
            # Entries are JSON numbers: numpy would read these as numbers.
            {"rows": 1, "cols": 1, "data": [["1.5", "2"]]},
            {"rows": 1, "cols": 1, "data": [[True, False]]},
            {"rows": 1, "cols": 1, "data": [[1.5, True]]},
        ):
            with pytest.raises(ParseError):
                matrix_from_obj(obj)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite(self, bad, tmp_path):
        # Strict JSON has no token for them, and load_matrix would reject them.
        path = tmp_path / "m.json"
        with pytest.raises(ParseError):
            save_matrix(path, np.array([[1.0, bad]]))
        assert not path.exists()

    def test_jsonable_handles_reports(self, rng):
        from posmap.positivity import coupling_bound_check
        from posmap.choi import extract_blocks

        blocks = extract_blocks(build_pipeline(TangParams(0.5, 1 / 24)).Hfinal)
        out = jsonable(coupling_bound_check(blocks))
        json.dumps(out)  # must be encodable

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
    def test_jsonable_keeps_booleans(self, value):
        # bool is a subclass of int: a Python bool must not come out as 1 or 0.
        assert jsonable(value) is bool(value)
        assert json.dumps(jsonable([value])) == json.dumps([bool(value)])

    @pytest.mark.parametrize("value", [object(), {"k": [1, {2, 3}]}, b"bytes"])
    def test_jsonable_refuses_unknown_objects(self, value):
        # No silent "<... object at 0x...>" in a report: the type is named.
        with pytest.raises(TypeError, match=r"cannot convert (object|set|bytes)"):
            jsonable(value)


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

    def test_boolean_fields_are_json_booleans(self, tmp_path):
        src = tmp_path / "map.json"
        save_matrix(src, build_pipeline(TangParams(0.9, 0.12)).Hfinal.H)
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out), "--max-iters", "200"]) == 0
        report = strict_json(out.read_text())
        relations = report["face_structure"]["relations"]
        fields = [r["passed"] for r in relations.values()]
        fields += [report["coupling_bound"][k] for k in ("holds", "strict")]
        fields += [report["equality_case"]["equality"], report["unital_face_form"]]
        fields += [report["flags"][k] for k in ("cp", "ccp", "equality_case")]
        assert len(fields) == 14
        assert all(type(v) is bool for v in fields), fields

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

    def test_b_plus_u_off_identity_is_not_unital(self, tmp_path):
        # a = 1, C = 0 and x = 0, but ||B + U - I||_F = 0.4: phi(I) != I.
        from posmap.extremal import random_equality_blocks

        blocks, _ = random_equality_blocks(2, rng_for(0, "cli-not-unital"))
        H = assemble_blocks(blocks).H
        H[1, 1] += 0.4
        src, out = tmp_path / "map.json", tmp_path / "report.json"
        save_matrix(src, H)
        assert main(["classify", str(src), "--out", str(out),
                     "--max-iters", "50"]) == 0
        report = strict_json(out.read_text())
        assert report["unital_face_form"] is False
        assert report["flags"]["equality_case"] is None
        assert "equality_case" not in report

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
            "psd": matkernel.PSD_TOL,
            "struct": choi.STRUCT_TOL,
            "unital": choi.UNITAL_TOL,
            "equality": extremal.EQUALITY_TOL,
            "strict": positivity.STRICT_TOL,
            "dependence": extremal.DEPENDENCE_TOL,
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


#: The stages ``classify`` times on each path, in report order.
ALL_STAGES = ["decompose", "positivity", "cp_ccp", "face_structure", "equality_case",
              "witness_search"]
NO_SPLIT_STAGES = ["decompose", "positivity", "cp_ccp", "witness_search"]


class TestTimingKeys:
    @pytest.mark.parametrize("case, stages", [
        ("decomposable", ["decompose", "cp_ccp"]),
        ("nonpositive", NO_SPLIT_STAGES),
        ("raw_tang", NO_SPLIT_STAGES),
        ("normalized_tang", ALL_STAGES),
        ("faceform", ALL_STAGES),
    ])
    def test_exact_keys_per_path(self, case, stages):
        if case in ("decomposable", "nonpositive", "faceform"):
            H = benchmark_case(case, 1, 0).H
        elif case == "raw_tang":
            H = tang_choi(TangParams(0.9, 0.12)).H
        else:
            H = build_pipeline(TangParams(0.9, 0.12)).Hfinal.H
        # A short split search: none of these inputs splits after 200 iterations
        # unless it splits at once.
        timings = build_classification(ChoiMatrix.from_array(H), max_iters=200)["timings"]
        assert list(timings) == stages
        assert all(type(t) is float and t >= 0.0 for t in timings.values())


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
        assert bound >= -PSD_TOL
        assert "positivity" not in report["timings"]
        values = [
            np.vdot(v, H @ v).real
            for v in (np.kron(random_unit_vector(2, rng), random_unit_vector(d, rng))
                      for _ in range(300))
        ]
        assert bound <= min(values) + 1e-12

    def test_shift_below_margin_is_not_split(self, engine_calls):
        # Shifted just below the engine's margin, the map has a product value
        # of at most -3e-9, so no accepted split can exist: its lower bound
        # would be at least -PSD_TOL.  A split tolerance looser than PSD_TOL
        # once accepted a split here, beside an engine violation.
        H0 = decomposable_map(np.random.default_rng(1), 3)
        margin = block_positive_choi(ChoiMatrix.from_array(H0)).margin
        H = H0 - (margin + 3e-9) * np.eye(6)
        report = build_classification(ChoiMatrix.from_array(H))
        assert len(engine_calls) == 1
        assert report["flags"]["positive"]["status"] == "violation_found"
        assert report["flags"]["decomposable"] != "yes"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_product_violation_never_proved(self, d, rng, engine_calls):
        report = build_classification(ChoiMatrix.from_array(product_violation(rng, d)))
        assert len(engine_calls) == 1
        assert report["flags"]["positive"]["status"] == "violation_found"


class TestTrivialSplitReports:
    """CP and coCP maps are split as (H, 0) and (0, H) before any projection,
    and ``classify`` PSD-checks H and PT(H) once each."""

    @pytest.fixture
    def checked_sizes(self, monkeypatch):
        """The size of every matrix handed to ``psd_check``, in order."""
        import sys
        from posmap import matkernel

        original = matkernel.psd_check
        sizes = []

        def counted(matrix):
            sizes.append(len(matrix))
            return original(matrix)

        for name, mod in list(sys.modules.items()):
            if name.startswith("posmap") and getattr(mod, "psd_check", None) is original:
                monkeypatch.setattr(mod, "psd_check", counted)
        return sizes

    @pytest.mark.parametrize("kind", ["cp", "decomposable", "nonpositive", "tang"])
    def test_one_pair_of_full_checks(self, kind, rng, checked_sizes):
        H = {"cp": lambda: random_psd(6, rng),
             "decomposable": lambda: decomposable_map(rng, 3),
             "nonpositive": lambda: product_violation(rng, 3),
             "tang": lambda: tang_choi(TangParams(0.9, 0.12)).H}[kind]()
        report = build_classification(ChoiMatrix.from_array(H))
        assert checked_sizes.count(len(H)) == 2
        expected = {"cp": "yes", "decomposable": "yes"}.get(kind, "no-witness")
        assert report["flags"]["decomposable"] == expected

    @staticmethod
    def cocp_only(rng):
        # An entangled rank-2 state plus 0.01 I, partially transposed.
        return partial_transpose(random_psd(6, rng, rank=2) + 0.01 * np.eye(6), 3)

    def test_cocp_report(self, rng):
        H = self.cocp_only(rng)
        report = build_classification(ChoiMatrix.from_array(H))
        assert report["flags"]["cp"] is False and report["flags"]["ccp"] is True
        dec = report["decomposition"]
        assert dec["iterations"] == 0 and dec["stop"] == "split"
        cert = dec["certificate"]
        assert not np.any(matrix_from_obj(cert["H1"]))
        assert np.array_equal(matrix_from_obj(cert["H2"]), H)
        bound = report["flags"]["positive"]["lower_bound"]
        assert bound == cert["min_eig_H2_pt"]
        assert bound == pytest.approx(report["ccp_min_eigenvalue"], abs=1e-14)
        assert bound == pytest.approx(0.01, abs=1e-14)

    def test_decompose_command_on_cocp_map(self, tmp_path, rng):
        src, out = tmp_path / "h.json", tmp_path / "run.json"
        save_matrix(src, self.cocp_only(rng))
        assert main(["decompose", str(src), "--out", str(out)]) == 0
        obj = strict_json(out.read_text())
        assert obj["decomposed"] is True
        assert obj["iterations"] == 0 and obj["stop"] == "split"
        assert obj["residual"] == 0.0


class TestCertificateNumbersOnce:
    """``classify`` and ``decompose`` read the kadison margins of the split
    that ``decompose`` just accepted without re-validating it."""

    @pytest.mark.parametrize("command", ["classify", "decompose"])
    def test_no_revalidation_and_same_margins(self, command, rng, tmp_path,
                                              monkeypatch):
        from posmap import cpdecomp

        H = decomposable_map(rng, 3)
        choi = ChoiMatrix.from_array(H)
        expected = jsonable(cpdecomp.kadison_constraints(choi, decompose(choi).certificate))
        calls = []

        def spy(*args):
            calls.append(args)

        monkeypatch.setattr(cpdecomp, "validate_certificate", spy)
        src, out = tmp_path / "h.json", tmp_path / "r.json"
        save_matrix(src, H)
        assert main([command, str(src), "--out", str(out)]) == 0
        obj = strict_json(out.read_text(encoding="utf-8"))
        kadison = (obj["decomposition"] if command == "classify" else obj)["kadison"]
        assert kadison == strict_json(json.dumps(expected))
        assert calls == []


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


class TestWriteJson:
    """Files are overwritten in place, and hold exactly the new text."""

    OBJ = {"rows": 1, "cols": 1, "data": [[0.1, -2.5e-300]], "note": "\u00e9"}

    def test_bytes_are_the_compact_text(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(self.OBJ, path)
        assert path.read_bytes() == (json.dumps(self.OBJ, allow_nan=False)
                                     + "\n").encode("utf-8")

    def test_shorter_overwrite_leaves_only_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 10000)
        write_json({"a": 1}, path)
        assert path.read_bytes() == b'{"a": 1}\n'

    def test_overwrite_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"a": list(range(100))}, path)
        path.chmod(0o640)
        before = path.stat()
        write_json({"a": 1}, path)
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert after.st_mode == before.st_mode
        assert after.st_size == len(b'{"a": 1}\n')

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        ours, plain = tmp_path / "ours.json", tmp_path / "plain.json"
        write_json({"a": 1}, ours)
        plain.write_text("{}")
        assert ours.stat().st_mode == plain.stat().st_mode

    def test_symlinked_out_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old content that is longer than the new one\n")
        link.symlink_to(target)
        assert main(["tang", "--mu", "0.5", "--eps", "0.01", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert np.array_equal(load_matrix(target),
                              tang_choi(TangParams(0.5, 0.01)).H)

    def test_dev_null_is_accepted(self):
        write_json(self.OBJ, "/dev/null")
        assert main(["tang", "--mu", "0.5", "--eps", "0.01", "--out", "/dev/null"]) == 0

    def test_refused_nan_leaves_old_content(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n")
        with pytest.raises(ParseError):
            write_json({"value": float("nan")}, path)
        assert path.read_text() == "old\n"


def _command_input(command, tmp_path):
    """Arguments that make ``command`` succeed up to writing its output."""
    if command == "tang":
        return ["tang", "--mu", "0.5", "--eps", "0.01"]
    src = tmp_path / "in.json"
    if command == "canonical":
        from posmap.extremal import random_equality_blocks

        blocks, _ = random_equality_blocks(2, rng_for(0, "cli-unwritable"))
        save_matrix(src, assemble_blocks(blocks).H)
        return ["canonical", str(src)]
    save_matrix(src, decomposable_map(rng_for(0, "cli-unwritable"), 2))
    return [command, str(src)]


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["tang", "classify", "decompose", "canonical"])
    @pytest.mark.parametrize("kind", ["missing_directory", "directory"])
    def test_exit_3_with_error_line(self, command, kind, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json" if kind == "missing_directory" else tmp_path
        assert main(_command_input(command, tmp_path) + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        # tang prints its derived constants to stderr first.
        assert err.splitlines()[-1].startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err


class TestRefinementInReport:
    """``positive.refine`` appears whenever the positivity engine ran."""

    def _positive(self, H, tmp_path, seed=0):
        src, out = tmp_path / "h.json", tmp_path / "report.json"
        save_matrix(src, H)
        assert main(["classify", str(src), "--out", str(out), "--max-iters", "50",
                     "--seed", str(seed)]) == 0
        return strict_json(out.read_text())["flags"]["positive"]

    def test_tang_reads_converged(self, tmp_path):
        H = build_pipeline(TangParams(0.5, 0.5**2 / 12)).H0.H
        positive = self._positive(H, tmp_path)
        assert positive["status"] == "certified"
        assert positive["refine"]["stop"] == "converged"
        assert positive["refine"]["steps"] <= 25

    def test_nonpositive_triple_reads_converged(self, tmp_path):
        case = benchmark_case("nonpositive", 5, 1)
        positive = self._positive(case.H, tmp_path, case.seed)
        assert positive["status"] == "violation_found"
        assert positive["refine"]["stop"] == "converged"

    def test_absent_when_a_pole_or_a_split_decides(self, tmp_path):
        H = np.eye(6, dtype=complex)
        H[0, 0] = -1.0
        assert "refine" not in self._positive(H, tmp_path)
        positive = self._positive(decomposable_map(rng_for(0, "cli-refine"), 2),
                                  tmp_path)
        assert positive["evidence"] == "split" and "refine" not in positive


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

    def test_module_entry_point(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "posmap", "-h"],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: posmap")


class TestSeedEnvironment:
    """A ``POSMAP_SEED`` that is not an integer is a bad parameter, as a bad
    ``--seed`` is; it is read only when ``--seed`` is absent."""

    @pytest.fixture
    def argvs(self, tmp_path):
        src = tmp_path / "h.json"
        save_matrix(src, random_psd(4, rng_for(0, "cli-seed-env")))
        return {"classify": ["classify", str(src), "--out", str(tmp_path / "r.json")],
                "verify": ["verify", "--grid", "1"]}

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_malformed_value_exits_2(self, command, argvs, monkeypatch, capsys):
        monkeypatch.setenv("POSMAP_SEED", "abc")
        assert main(argvs[command]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: POSMAP_SEED must be an integer, got 'abc'\n"
        assert captured.out == ""

    def test_seed_option_wins(self, argvs, monkeypatch):
        monkeypatch.setenv("POSMAP_SEED", "abc")
        assert main([*argvs["classify"], "--seed", "3"]) == 0

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_bad_seed_option_exits_2(self, command, argvs, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argvs[command], "--seed", "abc"])
        assert exc.value.code == 2
        assert "error: argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("case", ["a_five", "zero_map_n1"])
    def test_no_canonical_form_exit_3(self, case, tmp_path, capsys):
        # Both saturate the bound with dependent rows, but no canonical form
        # rebuilds them: a = 5 in the first, a = 0 and B = 0 in the second.
        if case == "a_five":
            from posmap.extremal import random_equality_blocks

            blocks, _ = random_equality_blocks(2, rng_for(0, "cli-canonical-gate"))
            H = assemble_blocks(blocks).H
            H[0, 0] = 5.0
        else:
            H = np.zeros((4, 4))
        src = tmp_path / "eq.json"
        save_matrix(src, H)
        assert main(["canonical", str(src)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: canonical form does not rebuild")

    def test_non_face_form_exit_3(self, tmp_path, rng, capsys):
        src = tmp_path / "h.json"
        save_matrix(src, random_psd(6, rng))
        assert main(["canonical", str(src)]) == 3

    @pytest.mark.parametrize("command", ["canonical", "classify"])
    def test_single_entry_rows(self, command, tmp_path):
        # n = 1: the unital equality-case map M_2 -> M_2 with y = 0.3, z = 0.2.
        blocks = ChoiBlocks(a=1.0, x=0j, C=np.zeros(1), Y=np.array([0.3]),
                            Z=np.array([0.2]), B=np.array([[0.75]]),
                            T=np.zeros((1, 1)), U=np.array([[0.25]]))
        src = tmp_path / "eq.json"
        save_matrix(src, assemble_blocks(blocks).H)
        out = tmp_path / "out.json"
        # A short split search: the canonical form does not depend on it.
        extra = ["--max-iters", "200"] if command == "classify" else []
        assert main([command, str(src), "--out", str(out), *extra]) == 0
        obj = strict_json(out.read_text())
        if command == "classify":
            assert obj["row_dependence"]["dependent"] is True
            obj = obj["canonical_form"]
        assert (obj["y"], obj["z"], obj["u"]) == ([0.3, 0.0], [0.2, 0.0], 0.25)


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["classify", "decompose", "canonical"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_exit_3_with_error_line(self, command, bad, tmp_path, capsys):
        H = build_pipeline(TangParams(0.5, 1 / 24)).Hfinal.H.copy()
        H[1, 1] = bad
        src = tmp_path / "bad.json"
        # save_matrix refuses to write NaN and Infinity tokens; json.dumps
        # writes them by default.
        src.write_text(json.dumps(matrix_to_obj(H)))
        assert main([command, str(src)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


#: Malformed files whose errors ``load_matrix`` must turn into ``ParseError``.
MALFORMED_FILES = {
    "not_utf8": b"\xff\xfe\x00\x00",
    "too_deep": b"[" * 100000 + b"]" * 100000,
    "negative_sizes": b'{"rows": -1, "cols": -1, "data": [[1.0, 0.0]]}',
    "huge_integer": b'{"rows": 1, "cols": 1, "data": [[' + b"1" * 5000 + b', 0]]}',
    # The 4x4 identity with its first entry a string, which numpy would read.
    "string_entry": json.dumps({"rows": 4, "cols": 4, "data": [
        ["1", 0] if k == 0 else [float(k % 5 == 0), 0.0] for k in range(16)
    ]}).encode(),
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


def fail_lapack(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestSolverFailure:
    # A failing eigh, eigvalsh or svd reaches the commands as the LinAlgError
    # numpy raises, through the kernel or through direct LAPACK calls alike.
    @pytest.mark.parametrize("command, solver", [
        *((c, s) for c in ("classify", "decompose") for s in ("eigh", "eigvalsh")),
        ("canonical", "svd"),
    ])
    def test_exit_4_with_error_line(self, command, solver, tmp_path, monkeypatch,
                                    capsys):
        src = tmp_path / "map.json"
        if command == "canonical":
            from posmap.extremal import random_equality_blocks

            blocks, _ = random_equality_blocks(2, rng_for(0, "cli-solver-failure"))
            save_matrix(src, assemble_blocks(blocks).H)
        else:
            save_matrix(src, tang_choi(TangParams(0.9, 0.12)).H)
        monkeypatch.setattr(np.linalg, solver, fail_lapack)
        assert main([command, str(src)]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_tang_exit_4(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "h.json"
        monkeypatch.setattr(np.linalg, "eigh", fail_lapack)
        assert main(["tang", "--mu", "0.9", "--eps", "0.12", "--out", str(out)]) == 4
        self.assert_one_error_line(capsys)
        assert not out.exists()

    def test_classify_coupling_bound_exit_4(self, tmp_path, monkeypatch, capsys):
        # Only the coupling bound's square root fails.  Its eigensolve failure
        # is the solver's, not an input with no answer: no report entry.
        real_sqrt = positivity.psd_sqrt

        def failing_sqrt(matrix):
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", fail_lapack)
                return real_sqrt(matrix)

        src, out = tmp_path / "map.json", tmp_path / "report.json"
        save_matrix(src, build_pipeline(TangParams(0.9, 0.12)).Hfinal.H)
        monkeypatch.setattr(positivity, "psd_sqrt", failing_sqrt)
        assert main(["classify", str(src), "--out", str(out),
                     "--max-iters", "200"]) == 4
        self.assert_one_error_line(capsys)
        assert not out.exists()


class TestOneProjectionRun:
    """``classify`` projects a Choi matrix once per face and cap."""

    @pytest.fixture
    def projections(self, monkeypatch):
        """``(face, max_iters)`` of every projection run, in order."""
        runs = []
        project = cpdecomp._project

        def spy(H, d, face, max_iters):
            runs.append((face, max_iters))
            return project(H, d, face, max_iters)

        monkeypatch.setattr(cpdecomp, "_project", spy)
        return runs

    @staticmethod
    def nonpositive_choi():
        # Not in face form and no split: decompose and witness_search both run.
        return ChoiMatrix.from_array(benchmark_case("nonpositive", 5, 1).H)

    def test_nonpositive_classify_projects_once(self, projections):
        report = build_classification(self.nonpositive_choi())
        assert report["flags"]["decomposable"] == "no-witness"
        assert projections == [(None, 20000)]

    def test_face_form_classify_projects_twice(self, projections):
        # Normalized Tang is in face form: the face run, then the unrestricted one.
        H = build_pipeline(TangParams(0.9, 0.12)).Hfinal.H
        choi = ChoiMatrix.from_array(H)
        build_classification(choi)
        assert projections == [(choi.dim, 20000), (None, 20000)]

    def test_another_cap_runs_again(self, projections):
        choi = self.nonpositive_choi()
        dec = decompose(choi)
        assert witness_search(choi) is dec
        assert witness_search(choi, max_iters=50) is not dec
        assert projections == [(None, 20000), (None, 50)]

    def test_reused_witness_matches_a_fresh_run(self):
        choi = self.nonpositive_choi()
        decompose(choi)
        reused = witness_search(choi)
        fresh = cpdecomp._project(choi.H, choi.dim, None, 20000)
        assert reused.found and fresh.found
        assert np.array_equal(reused.witness.rho, fresh.witness.rho)
        assert reused.witness.value == fresh.witness.value
        assert (reused.residual, reused.iterations, reused.stop) == (
            fresh.residual, fresh.iterations, fresh.stop)


class TestVerifyCommand:
    def test_smoke_battery_passes(self, capsys):
        code = main(["verify", "--grid", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        lines = [l for l in captured.out.splitlines() if l.startswith("[C")]
        assert len(lines) == 11
        assert all(" PASS " in l for l in lines)

    def test_solver_error_fails_its_criterion(self, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "eigvalsh", fail_lapack)
        assert main(["verify", "--grid", "1"]) == 1
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l.startswith("[C")]
        assert len(lines) == 11
        assert any(" FAIL " in l and l.split(": ", 1)[1].startswith(
            "LinAlgError: Eigenvalues did not converge") for l in lines)
        assert "Traceback" not in captured.out + captured.err
