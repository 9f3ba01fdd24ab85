"""Graceful degradation of planned schedules (repro.faults.degrade)."""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis.experiments import figure5, figure6, figure8
from repro.core import Schedule, iar_schedule, lower_bound, simulate
from repro.faults import (
    FaultInjector,
    FaultSpec,
    apply_to_schedule,
    simulate_with_faults,
)
from repro.analysis.experiments import scheme_comparison
from repro.vm.costbenefit import EstimatedModel
from repro.workloads import WorkloadSpec, dacapo, generate

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def instance():
    spec = WorkloadSpec(
        name="degrade", num_functions=10, num_calls=200, num_levels=4
    )
    return generate(spec, seed=5)


@pytest.fixture(scope="module")
def schedule(instance):
    return iar_schedule(instance)


class TestApplyToSchedule:
    def test_null_plan_is_clean(self, instance, schedule):
        plan = apply_to_schedule(instance, schedule, FaultInjector(""))
        assert plan.tasks == schedule
        assert all(plan.installs)
        assert not plan.degraded
        assert plan.compile_times == tuple(
            instance.profiles[t.function].compile_times[t.level]
            for t in schedule
        )

    def test_deterministic(self, instance, schedule):
        spec = FaultSpec(compile_fail=0.4, stall=0.3)
        plans = [
            apply_to_schedule(instance, schedule, FaultInjector(spec))
            for _ in range(2)
        ]
        assert plans[0] == plans[1]

    def test_failed_attempts_kept_but_not_installed(self, instance, schedule):
        plan = apply_to_schedule(
            instance, schedule, FaultInjector(FaultSpec(compile_fail=0.5))
        )
        assert plan.failures > 0
        assert len(plan.tasks) == len(plan.compile_times) == len(plan.installs)
        assert plan.installs.count(False) == plan.failures
        # Failed attempts still charge thread time.
        assert plan.wasted_compile_time == pytest.approx(
            sum(
                c
                for c, ok in zip(plan.compile_times, plan.installs)
                if not ok
            )
        )

    def test_every_scheduled_function_installs(self, instance, schedule):
        plan = apply_to_schedule(
            instance,
            schedule,
            FaultInjector(FaultSpec(compile_fail=0.9, retries=0)),
        )
        installed = {
            t.function for t, ok in zip(plan.tasks, plan.installs) if ok
        }
        assert installed == {t.function for t in schedule}
        assert plan.forced_installs > 0

    def test_counters_delta_matches_injector(self, instance, schedule):
        injector = FaultInjector(FaultSpec(compile_fail=0.4, stall=0.2))
        first = apply_to_schedule(instance, schedule, injector)
        second = apply_to_schedule(instance, schedule, injector)
        # One injector, two plans: tallies accumulate, deltas match.
        assert first.summary() == second.summary()
        assert injector.tally["compile_failures"] == 2 * first.failures
        assert injector.wasted_compile_time == pytest.approx(
            2 * first.wasted_compile_time
        )

    def test_stall_scales_compile_times(self, instance, schedule):
        plan = apply_to_schedule(
            instance,
            schedule,
            FaultInjector(FaultSpec(stall=1.0, stall_factor=4.0)),
        )
        assert plan.stalls == len(plan.tasks)
        assert all(plan.installs)
        for task, charged in zip(plan.tasks, plan.compile_times):
            truth = instance.profiles[task.function].compile_times[task.level]
            assert charged == 4.0 * truth


class TestSimulateWithFaults:
    def test_null_bitwise_equals_clean(self, instance, schedule):
        clean = simulate(instance, schedule, record_timeline=True)
        for engine in ("reference", "vector"):
            result, plan = simulate_with_faults(
                instance, schedule, "", engine=engine, record_timeline=True
            )
            assert result == clean
            assert not plan.degraded

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_reference_and_vector_bitwise_equal(self, instance, schedule, threads):
        spec = FaultSpec(compile_fail=0.4, stall=0.3, seed=2)
        ref, ref_plan = simulate_with_faults(
            instance, schedule, spec, compile_threads=threads,
            engine="reference", record_timeline=True,
        )
        vec, vec_plan = simulate_with_faults(
            instance, schedule, spec, compile_threads=threads,
            engine="vector", record_timeline=True,
        )
        assert ref_plan == vec_plan
        assert vec.makespan == ref.makespan
        assert vec.compile_end == ref.compile_end
        assert vec.total_bubble_time == ref.total_bubble_time
        assert vec.calls_at_level == ref.calls_at_level
        assert vec.task_timings == ref.task_timings
        assert vec.call_timings == ref.call_timings

    def test_faulty_makespan_at_least_lower_bound(self, instance, schedule):
        result, _ = simulate_with_faults(
            instance, schedule, FaultSpec(compile_fail=0.5, stall=0.5)
        )
        assert result.makespan >= lower_bound(instance)

    def test_validates_intended_schedule(self, instance):
        bad = Schedule.of(("nonexistent", 0))
        with pytest.raises(ValueError):
            simulate_with_faults(instance, bad, FaultSpec(compile_fail=0.5))

    def test_rejects_unknown_engine(self, instance, schedule):
        with pytest.raises(ValueError, match="engine"):
            simulate_with_faults(instance, schedule, "", engine="warp")


class TestFaultyComparison:
    def test_null_delegates_to_clean(self, instance):
        clean = scheme_comparison(instance, model=EstimatedModel, model_seed=0)
        injector = FaultInjector("")
        row = scheme_comparison(
            instance, model=EstimatedModel, model_seed=0, faults=injector
        )
        assert row == clean
        summary = injector.summary()
        assert all(v == 0 for k, v in summary.items() if k != "wasted_compile_time")

    def test_faulty_row_shape(self, instance):
        injector = FaultInjector(FaultSpec(compile_fail=0.3))
        row = scheme_comparison(
            instance, model=EstimatedModel, model_seed=0, faults=injector
        )
        assert set(row) == {
            "lower_bound", "iar", "default", "base_level", "optimizing_level",
        }
        assert row["lower_bound"] == 1.0
        for key in ("iar", "default", "base_level", "optimizing_level"):
            assert row[key] >= 1.0
        assert injector.summary()["compile_failures"] > 0

    def test_mispredict_only_changes_planning(self, instance):
        clean = scheme_comparison(instance, model=EstimatedModel, model_seed=0)
        injector = FaultInjector(FaultSpec(mispredict=0.8))
        row = scheme_comparison(
            instance, model=EstimatedModel, model_seed=0, faults=injector
        )
        summary = injector.summary()
        # No execution-side faults fire: nothing fails, stalls, or retries.
        assert summary["compile_failures"] == 0
        assert summary["stalls"] == 0
        # But the schedulers planned against a perturbed table, so at
        # least one scheme's normalized make-span may move; the single
        # -level baselines don't consult the cost table at all.
        assert row["base_level"] == clean["base_level"]
        assert row["optimizing_level"] == clean["optimizing_level"]


class TestFaultyFigureTraces:
    """``repro study --faults SPEC --trace-dir DIR``: the figure drivers
    trace their degraded runs, one valid, non-empty file per benchmark."""

    @pytest.mark.parametrize(
        "driver", [figure5, figure6, figure8], ids=lambda d: d.__name__
    )
    def test_every_benchmark_traced(self, driver, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "validate_trace", TOOLS / "validate_trace.py"
        )
        validate_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validate_trace)

        suite = {name: dacapo.load(name, scale=0.002) for name in ("antlr", "fop")}
        rows = driver(
            suite,
            trace_dir=str(tmp_path),
            faults="compile_fail=0.3,retries=1,seed=2",
        )
        assert all(row["faults"]["compile_failures"] > 0 for row in rows)
        label = driver.__name__
        files = sorted(tmp_path.glob("*.trace.json"))
        assert [path.name for path in files] == [
            f"{label}-antlr.trace.json",
            f"{label}-fop.trace.json",
        ]
        capsys.readouterr()
        assert validate_trace.main([str(path) for path in files]) == 0
        counts = [
            int(line.rsplit("(", 1)[1].split()[0])
            for line in capsys.readouterr().out.splitlines()
        ]
        assert len(counts) == 2 and min(counts) > 0
        # Failed compile attempts are on the timeline too.
        for path in files:
            assert '"status": "failed"' in path.read_text()

