"""The parallel experiment runner and its CLI surface.

``run_parallel`` must be a drop-in for calling the figure/table drivers
serially: identical rows in identical order no matter how many worker
processes, with per-benchmark failures isolated into ``errors`` instead
of taking the whole suite down.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    PARALLEL_DRIVERS,
    figure5,
    figure7,
    format_errors,
    run_parallel,
    table2,
)
from repro.analysis import experiments
from repro.cli import main
from repro.core import FunctionProfile, OCSPInstance
from repro.faults import degrade
from repro.workloads import WorkloadSpec, generate


def _suite():
    out = {}
    for i, name in enumerate(("alpha", "beta", "gamma")):
        spec = WorkloadSpec(
            name=name, num_functions=8, num_calls=120, num_levels=3
        )
        out[name] = generate(spec, seed=100 + i)
    return out


@pytest.fixture(scope="module")
def suite():
    """A small deterministic three-benchmark suite."""
    return _suite()


@pytest.fixture()
def iar_runs(monkeypatch):
    """The instance of every IAR run the drivers make during the test."""
    runs = []

    def counted(run):
        def wrapper(instance, *args, **kwargs):
            runs.append(instance)
            return run(instance, *args, **kwargs)

        return wrapper

    for owner in (experiments, degrade):
        monkeypatch.setattr(owner, "iar", counted(owner.iar))
    return runs


def test_registry_covers_the_paper_drivers():
    assert set(PARALLEL_DRIVERS) == {
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "table2",
        "faults_sweep",
    }


def test_serial_rows_match_direct_driver_calls(suite):
    run = run_parallel(suite, drivers=("figure5", "table2"), jobs=1)
    assert run.ok
    assert run.jobs == 1
    assert run.rows["figure5"] == figure5(suite)
    # table2 rows carry wall-clock timings; compare the deterministic
    # identity columns only.
    assert [r["benchmark"] for r in run.rows["table2"]] == [
        r["benchmark"] for r in table2(suite)
    ]


def test_parallel_rows_equal_serial_rows(suite):
    # Fork workers each plan alone; their rows must still agree.
    drivers = ("figure5", "figure6", "figure7", "table2")
    serial = run_parallel(suite, drivers=drivers, jobs=1)
    parallel = run_parallel(suite, drivers=drivers, jobs=2)
    for run in (serial, parallel):
        for row in run.rows["table2"]:  # wall-clock columns
            del row["iar_time_s"], row["percent_of_program"]
    assert serial.rows == parallel.rows
    assert parallel.jobs == 2
    assert serial.ok and parallel.ok


def test_drivers_share_one_plan_per_benchmark(suite, iar_runs):
    run = run_parallel(suite, drivers=("figure5", "figure7", "table2"), jobs=1)
    assert run.ok
    assert len(iar_runs) == len(suite)
    fresh = _suite()
    assert run.rows["figure7"] == figure7(fresh)
    assert [r["program_time_s"] for r in run.rows["table2"]] == [
        r["program_time_s"] for r in table2(fresh)
    ]


def test_sweep_rates_share_the_plan(suite, iar_runs):
    def sweep(spec):
        del iar_runs[:]
        kwargs = {"faults_sweep": {"spec": spec, "rates": (0.1, 0.4)}}
        run = run_parallel(
            suite, drivers=("faults_sweep",), jobs=1, driver_kwargs=kwargs
        )
        assert run.ok
        return len(iar_runs)

    assert sweep("") == len(suite)
    # Mispredicted views differ from rate to rate, so each rate plans
    # on its own view; the plan's run on the true projection stays.
    assert sweep("mispredict=0.2") == len(suite) * (1 + 2)


def test_no_plan_outlives_its_run(suite, iar_runs):
    for _ in range(2):
        del iar_runs[:]
        run_parallel(suite, drivers=("figure5", "figure7"), jobs=1)
        assert len(iar_runs) == len(suite)
    del iar_runs[:]
    figure7(suite)
    assert len(iar_runs) == len(suite)


def test_row_order_is_suite_insertion_order(suite):
    run = run_parallel(suite, drivers=("figure5",), jobs=2)
    assert [r["benchmark"] for r in run.rows["figure5"]] == list(suite)


def test_unknown_driver_raises():
    with pytest.raises(KeyError):
        run_parallel({}, drivers=("figure99",))


def test_failing_benchmark_is_isolated(suite):
    # An instance whose profile table is inconsistent with its calls
    # makes every scheduler in the driver blow up for that benchmark.
    broken = OCSPInstance(
        {"f0": FunctionProfile("f0", (1.0,), (1.0,))}, ("f0",), name="broken"
    )
    object.__setattr__(broken, "profiles", {})
    poisoned = dict(suite)
    poisoned["broken"] = broken
    run = run_parallel(poisoned, drivers=("figure5",), jobs=2)
    assert not run.ok
    assert [e["benchmark"] for e in run.errors] == ["broken"]
    assert run.errors[0]["driver"] == "figure5"
    # the healthy benchmarks still produced their rows, in order
    assert [r["benchmark"] for r in run.rows["figure5"]] == ["alpha", "beta", "gamma"]
    warning = format_errors(run.errors)
    assert "broken" in warning and warning.startswith("WARNING")


def test_format_errors_empty_is_empty_string():
    assert format_errors(()) == ""


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_study_jobs_output_identical(capsys):
    main(["study", "--scale", "0.002", "--figure", "fig5", "--jobs", "1"])
    serial_out = capsys.readouterr().out
    main(["study", "--scale", "0.002", "--figure", "fig5", "--jobs", "2"])
    parallel_out = capsys.readouterr().out
    assert serial_out == parallel_out
    assert "Figure 5" in serial_out
    assert "average" in serial_out


def test_cli_study_jobs_zero_means_one_per_cpu(capsys):
    rc = main(["study", "--scale", "0.002", "--figure", "table2", "--jobs", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Table 2" in out


# ---------------------------------------------------------------------------
# Statuses and cache accounting (the resumable-runner surface)
# ---------------------------------------------------------------------------


def test_statuses_cover_every_unit(suite):
    run = run_parallel(suite, drivers=("figure5", "table2"), jobs=1)
    assert set(run.statuses) == {
        f"{driver}/{bench}"
        for driver in ("figure5", "table2")
        for bench in suite
    }
    assert set(run.statuses.values()) == {"computed"}
    assert run.status_counts() == {"computed": 2 * len(suite)}


def test_uncached_run_reports_zero_cache_traffic(suite):
    run = run_parallel(suite, drivers=("figure5",), jobs=1)
    assert run.cache_hits == 0
    assert run.cache_misses == 0


def test_cache_dir_round_trip_preserves_rows(suite, tmp_path):
    cold = run_parallel(
        suite, drivers=("figure5",), jobs=1, cache=tmp_path / "store"
    )
    warm = run_parallel(
        suite, drivers=("figure5",), jobs=1, cache=tmp_path / "store"
    )
    assert cold.rows == warm.rows == {"figure5": figure5(suite)}
    assert cold.cache_misses == len(suite) and cold.cache_hits == 0
    assert warm.cache_hits == len(suite) and warm.cache_misses == 0
