"""Acceptance suite: every headline criterion at its pinned tolerance.

Each test runs one criterion from the built-in battery and prints a single
pass/fail line; the battery itself (posmap.acceptance) owns the tolerances.
The runner that wraps every criterion is tested at the end.
"""

import time

import numpy as np
import pytest

from posmap import acceptance
from posmap.exceptions import NotDependentError


def _report(result):
    print(result.line())
    assert result.passed, f"{result.key} {result.name}: {result.detail}"


def test_criterion_01_raw_choi_reproduction():
    _report(acceptance.criterion_choi_reproduction())


def test_criterion_02_normalization_pipeline():
    _report(acceptance.criterion_pipeline(grid_k=5))


def test_criterion_03_positivity_of_family():
    _report(acceptance.criterion_positivity(grid_k=5, seed=0))


def test_criterion_04_nondecomposability_certificate():
    _report(acceptance.criterion_nondecomposability(max_iters=20000))


def test_criterion_05_strict_coupling_bound():
    _report(acceptance.criterion_strictness(grid_k=5))


def test_criterion_06_row_vector_calculus():
    _report(acceptance.criterion_row_calculus(trials=200, seed=0))


def test_criterion_07_blockpos_equivalence_battery():
    _report(acceptance.criterion_blockpos_equivalence(certified=50, combos=100,
                                                      seed=0))


def test_criterion_08_cp_cross_validation():
    _report(acceptance.criterion_cp_crossvalidation(trials=100, seed=0))


def test_criterion_09_decomposable_round_trip():
    _report(acceptance.criterion_decomposition_roundtrip(instances=50, seed=0))


def test_criterion_10_equality_case_suite():
    _report(acceptance.criterion_equality_suite(fixtures=100, compressions=20,
                                                seed=0))


def test_criterion_11_coupling_entry_resolution():
    _report(acceptance.criterion_coupling_entry())


#: Key and title of every criterion, in battery order.
CRITERIA = [
    ("C1", "raw Choi reproduction"),
    ("C2", "normalization pipeline"),
    ("C3", "positivity of the family"),
    ("C4", "nondecomposability certificate"),
    ("C5", "strict coupling bound"),
    ("C6", "row-vector calculus"),
    ("C7", "block-positivity equivalence"),
    ("C8", "complete (co)positivity cross-validation"),
    ("C9", "decomposable round trip"),
    ("C10", "saturated-bound structure suite"),
    ("C11", "coupling-entry variant resolution"),
]


class TestRunner:
    def test_keys_and_titles(self):
        results = acceptance.run_battery(grid_k=1, seed=0)
        assert [(r.key, r.name) for r in results] == CRITERIA

    def test_over_limit_fails_with_its_runtime(self):
        @acceptance.criterion("CX", "slow probe", 0.001)
        def slow():
            time.sleep(0.005)
            return True, "done"

        result = slow()
        assert not result.passed
        assert result.seconds >= 0.005
        assert result.detail == f"done; runtime {result.seconds:.2f}s >= 0.001s"

    def test_within_limit_passes_with_the_check_detail(self):
        @acceptance.criterion("CX", "fast probe", 60.0)
        def fast(k):
            return k > 0, f"k = {k}"

        result = fast(3)
        assert (result.key, result.name, result.passed, result.detail) == (
            "CX", "fast probe", True, "k = 3")

    def test_fail_ends_the_criterion_with_its_detail(self):
        @acceptance.criterion("CX", "failing probe", None)
        def failing():
            raise acceptance._Fail("fixture 3: recovery error 1.00e-02")

        result = failing()
        assert not result.passed
        assert result.detail == "fixture 3: recovery error 1.00e-02"

    @pytest.mark.parametrize("error", [
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        NotDependentError("rows Y and Z are independent"),
    ])
    def test_solver_error_is_a_failure_naming_it(self, error):
        @acceptance.criterion("CX", "raising probe", None)
        def raising():
            raise error

        result = raising()
        assert not result.passed
        assert result.detail == f"{type(error).__name__}: {error}"

    @pytest.mark.parametrize("check", [
        lambda: acceptance.criterion_pipeline(grid_k=0),
        lambda: acceptance.criterion_positivity(grid_k=0, seed=0),
        lambda: acceptance.criterion_strictness(grid_k=0),
    ], ids=["C2", "C3", "C5"])
    def test_empty_grid_fails(self, check):
        # A grid of zero points passes nothing.
        result = check()
        assert not result.passed
        assert result.detail.startswith("BadParamsError: ")

    def test_line_format(self):
        result = acceptance.CriterionResult("C2", "normalization pipeline", True,
                                            "unitality=1.00e-16", 1.5)
        assert result.line() == ("[C2] PASS normalization pipeline: "
                                 "unitality=1.00e-16 (1.50s)")
        failed = acceptance.CriterionResult("C4", "nondecomposability certificate",
                                            False, "no witness", 2.0)
        assert failed.line() == "[C4] FAIL nondecomposability certificate: no witness (2.00s)"
