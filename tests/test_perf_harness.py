"""Tests for the dual-signal measurement harness (repro.perf.harness)."""

from __future__ import annotations

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.perf import (
    HarnessError,
    TimingStats,
    counters_of,
    robust_stats,
    run_benchmark,
)


class TestRobustStats:
    def test_single_sample(self):
        stats = robust_stats([2.0])
        assert stats.repeats == 1
        assert stats.min_s == stats.median_s == stats.max_s == 2.0
        assert stats.iqr_s == 0.0

    def test_quartiles_and_iqr(self):
        stats = robust_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.median_s == 3.0
        assert stats.q1_s == 2.0
        assert stats.q3_s == 4.0
        assert stats.iqr_s == 2.0
        assert stats.mean_s == pytest.approx(3.0)

    def test_order_independent(self):
        assert robust_stats([3.0, 1.0, 2.0]).median_s == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            robust_stats([])

    def test_round_trips_through_dict(self):
        stats = robust_stats([1.0, 2.0, 3.0])
        assert TimingStats.from_dict(stats.as_dict()) == stats


class TestCountersOf:
    def test_counters_and_histogram_counts_only(self):
        reg = MetricsRegistry()
        reg.counter("work.items").inc(7)
        reg.gauge("depth").set(3.0)  # excluded: no work semantics
        hist = reg.histogram("gain")
        hist.record(1.5)
        hist.record(2.5)
        flat = counters_of(reg)
        assert flat == {"work.items": 7, "gain.count": 2}


class TestRunBenchmark:
    def test_measures_and_collects_counters(self):
        def make(scale):
            def fn(metrics):
                metrics.counter("ticks").inc(int(scale * 1000))

            return fn

        result = run_benchmark("toy", make, scale=0.5, warmups=1, repeats=3)
        assert result.name == "toy"
        assert result.scale == 0.5
        assert result.counters == {"ticks": 500}
        assert result.timing.repeats == 3
        assert result.timing.min_s >= 0.0

    def test_setup_excluded_from_counters(self):
        calls = {"setup": 0, "run": 0}

        def make(scale):
            calls["setup"] += 1

            def fn(metrics):
                calls["run"] += 1
                metrics.counter("runs").inc()

            return fn

        run_benchmark("toy", make, scale=1.0, warmups=2, repeats=3)
        assert calls["setup"] == 1  # factory once, never per repeat
        assert calls["run"] == 5  # 2 warmups + 3 timed

    def test_nondeterministic_counters_rejected(self):
        state = {"n": 0}

        def make(scale):
            def fn(metrics):
                state["n"] += 1
                metrics.counter("drift").inc(state["n"])

            return fn

        with pytest.raises(HarnessError, match="nondeterministic"):
            run_benchmark("bad", make, scale=1.0, warmups=0, repeats=2)

    def test_invalid_repeats_and_warmups(self):
        def make(scale):
            return lambda metrics: None

        with pytest.raises(ValueError):
            run_benchmark("toy", make, scale=1.0, repeats=0)
        with pytest.raises(ValueError):
            run_benchmark("toy", make, scale=1.0, warmups=-1)

    def test_params_recorded(self):
        def make(scale):
            return lambda metrics: None

        result = run_benchmark(
            "toy", make, scale=1.0, repeats=1, params={"threads": 2}
        )
        assert result.params == {"threads": 2}
        assert result.as_dict()["params"] == {"threads": 2}


class TestSuiteRegistry:
    def test_quick_suite_covers_the_hot_paths(self):
        from repro.perf import get_suite

        names = {spec.name for spec in get_suite("quick")}
        assert {
            "core_simulate",
            "core_simulate_vector",
            "vecsim_chunked",
            "localsearch_moves",
            "astar_search",
            "priorityqueue_hotness",
            "runtime_replay",
            "store_roundtrip",
            "trace_record",
            "runner_serial",
        } <= names

    def test_benchmark_name_is_a_suite_of_one(self):
        from repro.perf import REGISTRY, get_suite

        assert get_suite("astar_search") == [REGISTRY["astar_search"]]

    def test_unknown_suite_raises(self):
        from repro.perf import get_suite

        with pytest.raises(KeyError, match="nope"):
            get_suite("nope")

    def test_duplicate_registration_rejected(self):
        from repro.perf import REGISTRY, register

        assert "core_simulate" in REGISTRY
        with pytest.raises(ValueError, match="already registered"):
            register("core_simulate")(lambda scale: lambda metrics: None)

    def test_one_quick_benchmark_end_to_end(self):
        # The cheapest registered benchmark at a tiny scale: the full
        # run path (warmups, fresh registry per repeat, deterministic
        # counters) on real engine code.
        from repro.perf import REGISTRY, run_benchmark

        spec = REGISTRY["core_simulate"]
        result = run_benchmark(
            spec.name, spec.make, scale=0.001, warmups=1, repeats=2
        )
        assert result.counters["makespan.runs"] == 5
        assert result.counters["makespan.calls"] > 0
