"""The pair summary of ``tools/bench_pairs.py``, on canned numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]


class TestSummarize:
    def test_spread_is_numpy_linear_quartiles(self):
        out = summarize([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], "higher", 0.1)
        assert out["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                                 "runs": [1.0, 2.0, 3.0, 4.0]}

    def test_clear_gain_is_claimed(self):
        change = [v * 1.12 for v in PARENT]
        out = summarize(PARENT, change, "higher", 0.24)
        assert out["change_better_pairs"] == 10
        assert out["claim"]["holds"] and out["claim"]["pairs_needed"] == 9
        assert out["claim"]["median_gain"] == pytest.approx(1.2)
        assert out["bound"]["verdict"] == "within"
        assert out["bound"]["relative_worsening"] == pytest.approx(-0.12)

    def test_eight_of_ten_pairs_claim_nothing(self):
        change = [v * 1.12 for v in PARENT[:8]] + [v * 0.99 for v in PARENT[8:]]
        out = summarize(PARENT, change, "higher", 0.24)
        assert out["change_better_pairs"] == 8
        assert not out["claim"]["holds"]

    def test_ties_count_for_neither_side(self):
        change = [v * 1.12 for v in PARENT[:9]] + [PARENT[9]]
        out = summarize(PARENT, change, "higher", 0.24)
        assert out["change_better_pairs"] == 9 and out["claim"]["holds"]
        assert summarize(PARENT, PARENT, "higher", 0.24)["change_better_pairs"] == 0

    def test_gain_inside_the_parent_spread_claims_nothing(self):
        # Every pair won, but by less than the parent's quartile distance (0.15).
        change = [v + 0.05 for v in PARENT]
        out = summarize(PARENT, change, "higher", 0.24)
        assert out["change_better_pairs"] == 10
        assert out["claim"]["parent_quartile_distance"] == pytest.approx(0.15)
        assert not out["claim"]["holds"]

    def test_lower_is_better(self):
        change = [v * 0.9 for v in PARENT]
        out = summarize(PARENT, change, "lower", 0.24)
        assert out["change_better_pairs"] == 10 and out["claim"]["holds"]
        assert out["bound"]["relative_worsening"] == pytest.approx(-0.1)

    def test_worsening_beyond_the_bound(self):
        out = summarize(PARENT, [v * 1.3 for v in PARENT], "lower", 0.24)
        assert out["bound"]["relative_worsening"] == pytest.approx(0.3)
        assert out["bound"]["verdict"] == "exceeded"
        assert out["change_better_pairs"] == 0 and not out["claim"]["holds"]

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        wide = [5.0, 15.0, 5.0, 15.0, 10.0, 10.0, 5.0, 15.0, 10.0, 10.0]
        for factor in (0.7, 1.0, 1.1):
            out = summarize(wide, [v * factor for v in wide], "higher", 0.24)
            assert out["bound"]["verdict"] == "unresolved"
        # Unless every run of the change reads better than every parent run.
        out = summarize(wide, [v + 11.0 for v in wide], "higher", 0.24)
        assert out["bound"]["verdict"] == "within"
        out = summarize(wide, [v * 0.3 for v in wide], "lower", 0.24)
        assert out["bound"]["verdict"] == "within"
        out = summarize(wide, [v * 0.9 for v in wide], "lower", 0.24)
        assert out["bound"]["verdict"] == "unresolved"

    def test_unpaired_runs_are_refused(self):
        with pytest.raises(ValueError):
            summarize(PARENT, PARENT[:9], "higher", 0.24)
        with pytest.raises(ValueError):
            summarize([], [], "higher", 0.24)
