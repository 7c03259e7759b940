"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the library's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import posmap  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL_WORKLOADS = ("tang", "decomposable", "nonpositive", "faceform")


def run_bench(workload, trace, cwd=ROOT, seconds="0.01"):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_registered_workloads_exist():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(ALL_WORKLOADS)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert m["value"] > 0
    if workload != "faceform":
        assert result["correct"] and result["failed"] == 0


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("decomposable", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    metrics = result["metrics"]
    assert metrics["cpdecomp.decompose.calls"]["value"] == 1.0
    assert metrics["cpdecomp.witness_search.calls"]["value"] == 0.0
    assert metrics["matkernel.lapack_eigh.calls"]["value"] >= \
        metrics["matkernel.hermitian_eig.calls"]["value"] > 0
    assert "tracing overhead" in proc.stdout


def test_tracer_restores_every_patched_name():
    import layertrace
    from posmap import cli, cpdecomp, matkernel

    before = (cli.decompose, cpdecomp.psd_project, np.linalg.eigh,
              posmap.ChoiMatrix.__dict__["from_array"])
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        assert cli.decompose is not before[0]
        assert cpdecomp.psd_project is not before[1]
        assert np.linalg.eigh is not before[2]
        tracer.active = True
        matkernel.psd_project(np.eye(3))
        tracer.active = False
        calls, incl, own = tracer.stats("matkernel.psd_project")
        assert calls == 1 and incl >= own >= 0
        assert tracer.stats("matkernel.lapack_eigh")[0] == 1
        assert list(tracer.span_parent) == [-1, 0, 1]
    finally:
        tracer.uninstall()
    after = (cli.decompose, cpdecomp.psd_project, np.linalg.eigh,
             posmap.ChoiMatrix.__dict__["from_array"])
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("workload", ("decomposable", "nonpositive"))
def test_warmup_walks_the_workloads_own_stages(workload, tmp_path):
    import layertrace

    wl = workloads.WORKLOADS[workload]
    case = workloads.warmup_case(wl)
    assert case.truth["kind"] == workload
    wl.prepare([case], tmp_path)
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        tracer.active = True
        code, _ = wl.run(case)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert code == 0
    assert tracer.stats("cpdecomp.decompose")[0] == 1
    searched = tracer.stats("cpdecomp.witness_search")[0]
    assert searched == (0 if workload == "decomposable" else 1)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("decomposable", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_partial_transpose_matches_posmap():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.array_equal(verdicts.partial_transpose(H, 3), posmap.partial_transpose(H, 3))


@pytest.fixture(scope="module")
def decomposable_report(tmp_path_factory):
    wl = workloads.WORKLOADS["decomposable"]
    case = workloads.decomposable_cases(workloads.case_rng(5, "selftest"), 1)[0]
    wl.prepare([case], tmp_path_factory.mktemp("classify"))
    code, out = wl.run(case)
    assert code == 0
    return case, json.loads(Path(out).read_text())


def _doctored(report, edit):
    copy = json.loads(json.dumps(report))
    edit(copy)
    return copy


def test_genuine_report_passes(decomposable_report):
    case, report = decomposable_report
    outcome = verdicts.check_decomposable(case.H, case.truth["d"], report)
    assert outcome.status == verdicts.OK, outcome.detail


def test_flipped_decomposable_flag_counts_as_wrong(decomposable_report):
    case, report = decomposable_report

    def flip(r):
        r["flags"]["decomposable"] = "no-witness"
    outcome = verdicts.check_decomposable(case.H, case.truth["d"], _doctored(report, flip))
    assert outcome.status == verdicts.WRONG and outcome.failed


def test_tampered_certificate_counts_as_invalid(decomposable_report):
    case, report = decomposable_report

    def tamper(r):
        r["decomposition"]["certificate"]["H1"]["data"][0][0] += 1e-3
    outcome = verdicts.check_decomposable(case.H, case.truth["d"], _doctored(report, tamper))
    assert outcome.status == verdicts.INVALID and outcome.failed


def test_missing_certificate_counts_as_invalid(decomposable_report):
    case, report = decomposable_report

    def drop(r):
        del r["decomposition"]["certificate"]
    outcome = verdicts.check_decomposable(case.H, case.truth["d"], _doctored(report, drop))
    assert outcome.status == verdicts.INVALID


def test_ppt_witness_recheck():
    d = 2
    rng = workloads.case_rng(1, "selftest-witness")
    H = workloads.decomposable_matrix(rng, d)
    rho = np.eye(2 * d) / (2 * d)
    assert verdicts.ppt_witness_problems(H, d, rho)  # Tr(H rho) > 0 here
    assert not verdicts.ppt_witness_problems(-H, d, rho)
    assert verdicts.ppt_witness_problems(-H, d, 2 * rho)  # trace two


def test_positivity_witness_recheck():
    rng = workloads.case_rng(2, "selftest-product")
    H = workloads.product_violation(rng, 3)
    verdict = posmap.block_positive_choi(posmap.ChoiMatrix.from_array(H), seed=0)
    assert verdict.status == posmap.VIOLATION_FOUND
    w = verdict.witness
    assert verdicts.positivity_witness_value(H, w.eta, w.lam) < 0
    assert verdicts.positivity_witness_value(
        workloads.decomposable_matrix(rng, 3), w.eta, w.lam) >= 0
