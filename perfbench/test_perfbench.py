"""Tests of the perfbench helpers (percentiles, schedule, self time)."""

import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import benchlib


def span(span_id, start, end, parent=None, name="x", thread="main", pid=1, **attrs):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent,
        "start_s": start,
        "duration_s": end - start,
        "pid": pid,
        "thread": thread,
        "attrs": attrs,
    }


class TestPercentile:
    @pytest.mark.parametrize("q", [0, 10, 50, 90, 95, 99, 100])
    def test_matches_numpy_linear(self, q):
        samples = list(np.random.default_rng(3).exponential(1.0, 57))
        assert benchlib.percentile(samples, q) == pytest.approx(np.percentile(samples, q))

    def test_exact_on_raw_samples(self):
        assert benchlib.percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert benchlib.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert benchlib.percentile([7.0], 95) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            benchlib.percentile([], 50)
        with pytest.raises(ValueError):
            benchlib.percentile([1.0], 101)

    def test_summary_reports_count(self):
        assert benchlib.summary([1.0, 2.0, 3.0]) == {"p50": 2.0, "p95": 2.9, "n": 3}

    def test_quartile_spread(self):
        values = [10.0, 11.0, 9.0, 10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert benchlib.quartile_spread(values) == pytest.approx((q3 - q1) / median)
        with pytest.raises(ValueError):
            benchlib.quartile_spread([0.0, 0.0, 0.0])


class TestPoissonSchedule:
    def test_seeded_and_absolute(self):
        first = benchlib.poisson_schedule(50.0, 400, seed=7)
        assert first == benchlib.poisson_schedule(50.0, 400, seed=7)
        assert first != benchlib.poisson_schedule(50.0, 400, seed=8)
        assert first[0] == 0.0
        assert all(b >= a for a, b in zip(first, first[1:]))

    def test_mean_gap_matches_rate(self):
        due = benchlib.poisson_schedule(25.0, 20000, seed=1)
        assert due[-1] / (len(due) - 1) == pytest.approx(1 / 25.0, rel=0.03)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            benchlib.poisson_schedule(0.0, 10, seed=1)
        with pytest.raises(ValueError):
            benchlib.poisson_schedule(1.0, 0, seed=1)


class TestSelfTime:
    def test_union_merges_overlaps(self):
        assert benchlib.union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
        assert benchlib.union_length([]) == 0

    def test_parallel_children_are_not_double_counted(self):
        spans = [
            span("p", 0.0, 10.0),
            span("a", 1.0, 5.0, parent="p", thread="t1"),
            span("b", 2.0, 6.0, parent="p", thread="t2"),
        ]
        own = benchlib.self_times(spans)
        # children cover [1, 6]: a sum of durations would give 10 - 8 = 2
        assert own["p"] == pytest.approx(5.0)
        assert own["a"] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 0.0, 2.0), span("c", 1.0, 4.0, parent="p")]
        assert benchlib.self_times(spans)["p"] == pytest.approx(1.0)

    def test_orphans_on_pool_threads_are_adopted(self):
        spans = [
            span("t", 0.0, 4.0, name="tiled_layer", design="curfe"),
            span("k1", 0.5, 1.5, name="kernel", thread="pool-1", kernel="fast"),
            span("k2", 1.0, 3.0, name="kernel", thread="pool-2", kernel="fast"),
            span("late", 5.0, 6.0, name="kernel", thread="pool-1", kernel="fast"),
            span("other", 0.5, 1.0, name="kernel", thread="pool-1", pid=2, kernel="fast"),
            span("request", 0.5, 1.0, name="request", thread="pool-1"),
        ]
        linked = {s["span_id"]: s for s in benchlib.adopt_orphans(spans)}
        assert linked["k1"]["parent_id"] == "t"
        assert linked["k2"]["parent_id"] == "t"
        assert linked["late"]["parent_id"] is None
        assert linked["other"]["parent_id"] is None
        assert linked["request"]["parent_id"] is None
        assert spans[1]["parent_id"] is None  # input untouched

    def test_rollup_by_layer_metric(self):
        spans = [
            span("r", 0.0, 10.0, name="chipsim.run", design="chgfe"),
            span("l", 0.0, 9.0, parent="r", name="layer", layer="fc1"),
            span("t", 1.0, 8.0, parent="l", name="tiled_layer"),
            span("k", 2.0, 7.0, name="kernel", thread="pool-1", kernel="fast"),
            span("q", 3.0, 4.0, parent="k", name="adc_quantize", thread="pool-1"),
        ]
        totals = benchlib.rollup(spans)
        assert totals == pytest.approx({
            "inference.layer_self_s.fc1": 2.0,
            "chipsim.tiled_layer_self_s.chgfe": 2.0,
            "engine.kernel_self_s.fast": 4.0,
            "engine.adc_quantize_self_s": 1.0,
        })
        assert "chipsim.tiled_layer_self_s.curfe" in benchlib.rollup(spans[2:], design="curfe")

    def test_coverage_and_ring_fill(self):
        spans = [span("a", 0.0, 2.0), span("b", 1.0, 3.0, thread="t2"), span("c", 8.0, 12.0)]
        assert benchlib.coverage(spans, (0.0, 10.0)) == pytest.approx(0.5)
        assert benchlib.ring_fill(spans) == 2
        with pytest.raises(ValueError):
            benchlib.coverage(spans, (1.0, 1.0))


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(benchlib.__file__).parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
