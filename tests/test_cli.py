import json

import numpy as np
import pytest

from posmap.choi import ChoiMatrix, assemble_blocks
from posmap.cli import main
from posmap.exceptions import ParseError
from posmap.io import (
    jsonable,
    load_matrix,
    matrix_digest,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)
from posmap.rand import random_psd, rng_for
from posmap.tang import TangParams, build_pipeline, tang_choi
from conftest import random_complex


class TestMatrixSchema:
    def test_round_trip_bit_faithful(self, rng, tmp_path):
        M = random_complex(rng, (5, 3))
        path = tmp_path / "m.json"
        save_matrix(path, M)
        back = load_matrix(path)
        assert np.array_equal(M, back)
        assert matrix_digest(M) == matrix_digest(back)

    def test_schema_fields(self):
        obj = matrix_to_obj(np.array([[1.0 + 2.0j]]))
        assert obj == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}

    def test_rejects_malformed(self):
        with pytest.raises(ParseError):
            matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
        with pytest.raises(ParseError):
            matrix_from_obj([1, 2, 3])

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
        obj = json.loads(captured.out)
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
        report = json.loads(out.read_text())
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
        report = json.loads(out.read_text())
        assert report["flags"]["cp"] is True
        assert report["flags"]["decomposable"] == "yes"

    def test_equality_fixture_gets_canonical_form(self, tmp_path):
        from posmap.extremal import random_equality_blocks

        blocks, _ = random_equality_blocks(2, rng_for(0, "cli-fixture"))
        src = tmp_path / "eq.json"
        save_matrix(src, assemble_blocks(blocks).H)
        out = tmp_path / "report.json"
        assert main(["classify", str(src), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["flags"]["equality_case"] is True
        assert "canonical_form" in report
        assert "y" in report["canonical_form"]

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
        report = json.loads(out.read_text())
        assert report["input_digest"] == matrix_digest(load_matrix(src))

    def test_deterministic_given_seed(self, tmp_path):
        src = tmp_path / "raw.json"
        main(["tang", "--mu", "0.9", "--eps", "0.12", "--out", str(src)])
        reports = []
        for k in range(2):
            out = tmp_path / f"r{k}.json"
            main(["classify", str(src), "--out", str(out), "--seed", "7",
                  "--witness-restarts", "4", "--max-iters", "2000"])
            obj = json.loads(out.read_text())
            obj.pop("timings")
            reports.append(json.dumps(obj, sort_keys=True))
        assert reports[0] == reports[1]


class TestDecomposeCommand:
    def test_decomposable_file(self, tmp_path, rng):
        from posmap.matkernel import partial_transpose

        H = random_psd(6, rng) + partial_transpose(random_psd(6, rng), 3)
        src = tmp_path / "h.json"
        save_matrix(src, H)
        out = tmp_path / "cert.json"
        assert main(["decompose", str(src), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["decomposed"] is True
        assert obj["residual"] <= 1e-7
        H1 = matrix_from_obj(obj["certificate"]["H1"])
        H2 = matrix_from_obj(obj["certificate"]["H2"])
        assert np.linalg.norm(H1 + H2 - H) <= 1e-7


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
        obj = json.loads(out.read_text())
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


class TestVerifyCommand:
    def test_smoke_battery_passes(self, capsys):
        code = main(["verify", "--grid", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        lines = [l for l in captured.out.splitlines() if l.startswith("[C")]
        assert len(lines) == 11
        assert all(" PASS " in l for l in lines)
