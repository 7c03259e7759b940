"""The ``--compare`` mode of ``tools/output_sweep.py``, on canned sweep files."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_sweep.py"


def _load():
    # The tool puts src/ and perfbench/ on sys.path; keep the test session's.
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("output_sweep", _PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


output_sweep = _load()

NAME = "decomposable-s1-003.classify.json"
REPORT = {
    "decomposition": {"certificate": {"H1": {"data": [[1.0, 0.0], [2.0, 0.0]]}},
                      "iterations": 4},
    "flags": {"positive": {"status": "proved", "lower_bound": 0.5},
              "cp": False, "decomposable": "yes"},
}


def sides(tmp_path, change, name=NAME):
    """Two sweep directories holding ``REPORT`` and ``change`` under ``name``."""
    a, b = tmp_path / "a", tmp_path / "b"
    for side, obj in ((a, REPORT), (b, change)):
        side.mkdir()
        (side / name).write_text(json.dumps(obj) + "\n")
    return a, b


def changed(**paths):
    obj = copy.deepcopy(REPORT)
    for path, value in paths.items():
        *keys, last = path.split("__")
        node = obj
        for key in keys:
            node = node[key]
        node[last] = value
    return obj


class TestCompare:
    def test_identical_sides(self, tmp_path, capsys):
        assert output_sweep.compare(*sides(tmp_path, REPORT)) == 0
        assert capsys.readouterr().out == "1 files on both sides, 0 differ, 0 verdicts differ\n"

    def test_numbers_are_listed_by_path(self, tmp_path, capsys):
        obj = changed(decomposition__iterations=5)
        obj["decomposition"]["certificate"]["H1"]["data"][1][0] = 2.5
        assert output_sweep.compare(*sides(tmp_path, obj)) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "classify decomposable: 1 of 1 files differ",
            f"  decomposition.certificate.H1.data[][]: 1 ({NAME})",
            f"  decomposition.iterations: 1 ({NAME})",
        ]

    @pytest.mark.parametrize("path, value", [
        ("flags__decomposable", "unknown"),
        ("flags__cp", True),
        ("flags__positive__status", "certified"),
    ])
    def test_a_verdict_change_fails(self, tmp_path, capsys, path, value):
        assert output_sweep.compare(*sides(tmp_path, changed(**{path: value}))) == 1
        shown = path.replace("__", ".")
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            f"verdict: {NAME}: {shown} ")

    def test_decomposed_is_a_verdict(self, tmp_path):
        name = "nonpositive-s2-000.decompose.json"
        a, b = tmp_path / "a", tmp_path / "b"
        for side, value in ((a, False), (b, True)):
            side.mkdir()
            (side / name).write_text(json.dumps({"decomposed": value}) + "\n")
        assert output_sweep.compare(a, b) == 1

    def test_a_file_on_one_side_fails(self, tmp_path, capsys):
        a, b = sides(tmp_path, REPORT)
        (a / "tang-0.9-0.12-raw.json").write_text("{}\n")
        assert output_sweep.compare(a, b) == 1
        assert capsys.readouterr().out.splitlines()[-1] == f"only in {a}: tang-0.9-0.12-raw.json"

    def test_groups(self):
        assert output_sweep.group(NAME) == ("classify", "decomposable")
        assert output_sweep.group("faceform-s5-097.input.json") == ("input", "faceform")
        assert output_sweep.group("tang-0.3-0.01-normalized.json") == ("tang", "normalized")
