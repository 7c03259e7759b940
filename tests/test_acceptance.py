"""Acceptance suite: every headline criterion at its pinned tolerance.

Each test runs one criterion from the built-in battery and prints a single
pass/fail line; the battery itself (posmap.acceptance) owns the tolerances.
"""

import pytest

from posmap import acceptance


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{result.key}] {status} {result.name}: {result.detail} "
          f"({result.seconds:.2f}s)")
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
