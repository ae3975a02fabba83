"""Tests of the benchmark's own arithmetic, on synthetic input.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import RepeatCounter, fail_counts, mismatches, quartiles, self_times, tail  # noqa: E402


class TestTail:
    def test_ten_samples_beyond(self):
        vals = list(range(1, 101))  # 1..100
        pct, value = tail(vals)
        assert value == 90
        assert sum(v > value for v in vals) == 10
        assert pct == 90.0

    def test_order_does_not_matter(self):
        vals = [float(v) for v in range(1000)]
        assert tail(vals[::-1]) == tail(vals) == (99.0, 989.0)

    def test_uneven_count(self):
        pct, value = tail(range(150))
        assert value == 139
        assert pct == pytest.approx(100.0 * 140 / 150)

    def test_too_few_samples(self):
        assert tail(range(10)) is None
        assert tail(range(11)) == (100.0 * 1 / 11, 0.0)


class TestQuartiles:
    def test_matches_statistics_quantiles(self):
        assert quartiles([4, 1, 3, 2, 5]) == (1.5, 3.0, 4.5)

    def test_single_value(self):
        assert quartiles([2.5]) == (2.5, 2.5, 2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quartiles([])


class TestSelfTimes:
    def test_nested_children_are_subtracted(self):
        spans = [
            ("train", 0.0, 10.0, -1),
            ("dual_function", 1.0, 4.0, 0),
            ("predict_batch", 1.5, 2.0, 1),
            ("predict_batch", 2.5, 3.5, 1),
            ("slacks", 5.0, 9.0, 0),
        ]
        assert self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 4.0])

    def test_self_times_sum_to_root_duration(self):
        spans = [("a", 0.0, 8.0, -1), ("b", 1.0, 5.0, 0), ("c", 2.0, 3.0, 1),
                 ("d", 6.0, 7.0, 0)]
        assert sum(self_times(spans)) == pytest.approx(8.0)

    def test_separate_roots(self):
        assert self_times([("a", 0.0, 1.0, -1), ("b", 2.0, 5.0, -1)]) == [1.0, 3.0]


class TestRepeatCounter:
    def test_exact_share(self):
        c = RepeatCounter()
        c.add([1, 2, 3, 4])
        c.add([3, 4, 5, 6])
        assert (c.sampled, c.repeats) == (8, 2)
        assert c.share == 0.25

    def test_duplicates_within_one_call_count(self):
        c = RepeatCounter()
        c.add([7, 7, 7])
        assert (c.sampled, c.repeats) == (3, 2)

    def test_counts_of_separate_processes_sum(self):
        c = RepeatCounter()
        c.add([1, 2, 1])
        c.add_counts(sampled=5, repeats=2)
        assert (c.sampled, c.repeats) == (8, 3)
        assert c.share == 3 / 8

    def test_no_rows(self):
        assert RepeatCounter().share == 0.0


class TestFailCounts:
    def test_exit_codes_and_checks(self):
        cmds = [
            {"exit_code": 0, "checks": {"a": True, "b": True}},
            {"exit_code": 1, "checks": {}},
            {"exit_code": 0, "checks": {"a": True, "b": False}},
            {"exit_code": 0, "checks": {"a": False, "b": False}},
            {"exit_code": 0, "checks": {}},
        ]
        assert fail_counts(cmds) == (5, 3)

    def test_nothing_attempted(self):
        assert fail_counts([]) == (0, 0)


class TestMismatches:
    def test_within_tolerance(self):
        ref = {"x": 1.0, "v": [0.5, -2.0], "name": "a", "ok": True}
        got = {"x": 1.0 + 1e-9, "v": [0.5, -2.0 * (1 + 1e-8)], "name": "a", "ok": True}
        assert mismatches(got, ref, rtol=1e-6, atol=1e-9) == []

    def test_reports_paths(self):
        ref = {"x": 1.0, "v": [0.5, 2.0], "name": "a", "ok": True}
        got = {"x": 1.1, "v": [0.5, 2.0], "name": "b", "ok": False}
        assert mismatches(got, ref, 1e-6, 1e-9) == [".name", ".ok", ".x"]

    def test_shape_changes(self):
        assert mismatches({"v": [1, 2]}, {"v": [1]}, 1e-6, 0) == [".v"]
        assert mismatches({"a": 1}, {"b": 1}, 1e-6, 0) == ["<root>"]


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
