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
    format_errors,
    run_parallel,
    table2,
)
from repro.cli import main
from repro.core import FunctionProfile, OCSPInstance
from repro.workloads import WorkloadSpec, generate


@pytest.fixture(scope="module")
def suite():
    """A small deterministic three-benchmark suite."""
    out = {}
    for i, name in enumerate(("alpha", "beta", "gamma")):
        spec = WorkloadSpec(
            name=name, num_functions=8, num_calls=120, num_levels=3
        )
        out[name] = generate(spec, seed=100 + i)
    return out


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
    serial = run_parallel(suite, drivers=("figure5", "figure6"), jobs=1)
    parallel = run_parallel(suite, drivers=("figure5", "figure6"), jobs=2)
    assert serial.rows == parallel.rows
    assert parallel.jobs == 2
    assert serial.ok and parallel.ok


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


def test_checkpoint_journal_is_written_without_a_store(suite, tmp_path):
    checkpoint = tmp_path / "runstate.jsonl"
    run = run_parallel(
        suite, drivers=("figure5",), jobs=1, checkpoint=checkpoint
    )
    assert run.ok
    from repro.store import load_runstate

    records = load_runstate(checkpoint)
    assert set(records) == set(run.statuses)
    assert all(record.resumable for record in records.values())
