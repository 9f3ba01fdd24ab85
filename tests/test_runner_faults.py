"""Fault injection for the fault-tolerant experiment runner.

Three ways a unit can go wrong — its driver raises, it runs past the
wall-clock budget, its worker process dies — and the recovery contract
for each: retries with backoff, pool rebuilds that never take innocent
units down with the culprit, and a result store that lets a killed run
rerun to bitwise-identical rows.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import PARALLEL_DRIVERS, run_parallel
from repro.analysis.experiments import figure5
from repro.observability import MetricsRegistry
from repro.store import ResultStore
from repro.workloads import WorkloadSpec, generate

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fault drivers ride into workers via fork"
)


@pytest.fixture(scope="module")
def suite():
    out = {}
    for i, name in enumerate(("alpha", "beta", "gamma")):
        spec = WorkloadSpec(name=name, num_functions=6, num_calls=80, num_levels=3)
        out[name] = generate(spec, seed=300 + i)
    return out


# ----------------------------------------------------------------------
# Fault drivers.  Registered for this module only (and before any pool
# exists, so fork-spawned workers inherit them); each delegates to
# figure5 on the benchmarks it leaves alone, so "innocent" rows stay
# comparable to a clean run.
# ----------------------------------------------------------------------
def _faulty_raise(suite, *, victim="beta"):
    if victim in suite:
        raise ValueError(f"injected failure for {victim}")
    return figure5(suite)


def _faulty_flaky(suite, *, victim="beta", token_dir=""):
    # Fails once per victim, then succeeds: cross-process state via a
    # token file (attempts run in different worker processes).
    if victim in suite:
        token = Path(token_dir) / f"{victim}.token"
        if not token.exists():
            token.write_text("seen")
            raise ValueError(f"injected first-attempt failure for {victim}")
    return figure5(suite)


def _faulty_sleep(suite, *, victim="beta", seconds=30.0):
    if victim in suite:
        time.sleep(seconds)
    return figure5(suite)


def _faulty_kill(suite, *, victim="beta"):
    if victim in suite:
        os.kill(os.getpid(), signal.SIGKILL)  # worker dies mid-task
    return figure5(suite)


@pytest.fixture(scope="module", autouse=True)
def _fault_drivers():
    injected = (_faulty_raise, _faulty_flaky, _faulty_sleep, _faulty_kill)
    for func in injected:
        PARALLEL_DRIVERS[func.__name__] = func
    yield
    for func in injected:
        PARALLEL_DRIVERS.pop(func.__name__, None)


class TestRaisingWorker:
    def test_serial_retries_then_fails_without_collateral(self, suite):
        metrics = MetricsRegistry()
        run = run_parallel(
            suite,
            drivers=("_faulty_raise",),
            jobs=1,
            max_retries=2,
            retry_backoff=0.001,
            metrics=metrics,
        )
        assert not run.ok
        assert run.statuses["_faulty_raise/beta"] == "failed"
        assert run.statuses["_faulty_raise/alpha"] == "computed"
        assert run.statuses["_faulty_raise/gamma"] == "computed"
        [error] = run.errors
        assert error["benchmark"] == "beta"
        assert "injected failure" in error["error"]
        # max_retries=2 → 3 attempts → 2 retry waits.
        assert metrics.counter("runner.retries").value == 2
        assert run.rows["_faulty_raise"] == figure5(
            {k: v for k, v in suite.items() if k != "beta"}
        )

    @needs_fork
    def test_pool_retries_then_fails_without_collateral(self, suite):
        run = run_parallel(
            suite,
            drivers=("_faulty_raise",),
            jobs=2,
            max_retries=1,
            retry_backoff=0.001,
        )
        assert run.statuses["_faulty_raise/beta"] == "failed"
        assert run.status_counts()["computed"] == 2
        assert run.rows["_faulty_raise"] == figure5(
            {k: v for k, v in suite.items() if k != "beta"}
        )

    @needs_fork
    def test_flaky_unit_ends_retried_and_ok(self, suite, tmp_path):
        run = run_parallel(
            suite,
            drivers=("_faulty_flaky",),
            jobs=2,
            max_retries=2,
            retry_backoff=0.001,
            driver_kwargs={"_faulty_flaky": {"token_dir": str(tmp_path)}},
        )
        assert run.ok
        assert run.statuses["_faulty_flaky/beta"] == "retried"
        assert run.rows["_faulty_flaky"] == figure5(suite)


class TestTimeout:
    @needs_fork
    def test_sleeper_is_timed_out_and_innocents_complete(self, suite):
        metrics = MetricsRegistry()
        run = run_parallel(
            suite,
            drivers=("_faulty_sleep",),
            jobs=2,
            timeout=0.5,
            max_retries=0,
            metrics=metrics,
        )
        assert run.statuses["_faulty_sleep/beta"] == "timed_out"
        assert run.statuses["_faulty_sleep/alpha"] == "computed"
        assert run.statuses["_faulty_sleep/gamma"] == "computed"
        [error] = run.errors
        assert "wall-clock" in error["error"]
        # Reclaiming the stuck worker forces at least one pool rebuild.
        assert metrics.counter("runner.pool_rebuilds").value >= 1
        assert run.rows["_faulty_sleep"] == figure5(
            {k: v for k, v in suite.items() if k != "beta"}
        )


class TestWorkerCrash:
    @needs_fork
    def test_broken_pool_is_rebuilt_and_innocents_survive(self, suite):
        metrics = MetricsRegistry()
        run = run_parallel(
            suite,
            drivers=("_faulty_kill",),
            jobs=2,
            max_retries=1,
            retry_backoff=0.001,
            metrics=metrics,
        )
        # Only the killer fails; the quarantine probing must never
        # charge the innocent in-flight victims of its BrokenProcessPool.
        assert run.statuses["_faulty_kill/beta"] == "failed"
        assert run.statuses["_faulty_kill/alpha"] in ("computed", "retried")
        assert run.statuses["_faulty_kill/gamma"] in ("computed", "retried")
        [error] = run.errors
        assert "worker process died" in error["error"]
        assert metrics.counter("runner.pool_rebuilds").value >= 1
        assert run.rows["_faulty_kill"] == figure5(
            {k: v for k, v in suite.items() if k != "beta"}
        )


# ----------------------------------------------------------------------
# Kill-and-rerun: the result store is the checkpoint.
# ----------------------------------------------------------------------
_RERUN_SCRIPT = """
import json, os, sys
from repro.analysis import PARALLEL_DRIVERS, run_parallel
from repro.analysis.experiments import figure5
from repro.workloads import WorkloadSpec, generate

def _crashy(suite, *, kill_file=""):
    # Dies with the whole process (no cleanup, like SIGKILL) when the
    # kill switch exists — but only on the last benchmark, so earlier
    # units are already in the store.
    rows = figure5(suite)
    if kill_file and os.path.exists(kill_file) and "gamma" in suite:
        os._exit(17)
    return rows

PARALLEL_DRIVERS["_crashy"] = _crashy

suite = {}
for i, name in enumerate(("alpha", "beta", "gamma")):
    spec = WorkloadSpec(name=name, num_functions=6, num_calls=80, num_levels=3)
    suite[name] = generate(spec, seed=300 + i)

cache_dir, kill_file, out_path = sys.argv[1:4]
run = run_parallel(
    suite,
    drivers=("_crashy",),
    jobs=1,
    cache=cache_dir,
    driver_kwargs={"_crashy": {"kill_file": kill_file}},
)
doc = {
    "rows": run.rows,
    "statuses": run.statuses,
    "cache_hits": run.cache_hits,
    "cache_misses": run.cache_misses,
    "ok": run.ok,
}
with open(out_path, "w") as fh:
    json.dump(doc, fh, sort_keys=True)
"""


def _run_rerun_script(tmp_path, cache_dir, kill_file, out):
    script = tmp_path / "rerun_script.py"
    script.write_text(_RERUN_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(script), str(cache_dir), str(kill_file), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestKillAndResume:
    def test_killed_run_resumes_to_bitwise_identical_rows(self, tmp_path):
        store_dir = tmp_path / "store"
        kill_file = tmp_path / "kill.switch"
        kill_file.write_text("armed")

        # 1. The run dies mid-flight on the last unit.
        proc = _run_rerun_script(
            tmp_path, store_dir, kill_file, tmp_path / "dead.json"
        )
        assert proc.returncode == 17, proc.stderr
        stats = ResultStore(store_dir).stats()
        assert stats.entries == 2, "finished units must survive the kill"

        # 2. Disarm the fault and rerun through the same store.
        kill_file.unlink()
        proc = _run_rerun_script(
            tmp_path, store_dir, kill_file, tmp_path / "resumed.json"
        )
        assert proc.returncode == 0, proc.stderr
        resumed = json.loads((tmp_path / "resumed.json").read_text())

        # 3. An uninterrupted run, fresh store, same inputs.
        proc = _run_rerun_script(
            tmp_path, tmp_path / "fresh", kill_file, tmp_path / "clean.json"
        )
        assert proc.returncode == 0, proc.stderr
        clean = json.loads((tmp_path / "clean.json").read_text())

        assert resumed["ok"] and clean["ok"]
        # Bitwise-identical rows (the files are canonical JSON dumps).
        assert (tmp_path / "resumed.json").read_bytes() != b""
        assert resumed["rows"] == clean["rows"]
        assert json.dumps(resumed["rows"], sort_keys=True) == json.dumps(
            clean["rows"], sort_keys=True
        )
        # The resumed run recomputed only the unit that was in flight
        # when the process died.
        assert resumed["statuses"]["_crashy/alpha"] == "cached"
        assert resumed["statuses"]["_crashy/beta"] == "cached"
        assert resumed["statuses"]["_crashy/gamma"] == "computed"
        assert resumed["cache_hits"] == 2
        assert resumed["cache_misses"] == 1


class TestResultStoreIntegration:
    def test_second_run_is_all_hits_and_recomputes_nothing(self, suite, tmp_path):
        store_dir = tmp_path / "store"
        cold = run_parallel(
            suite, drivers=("figure5",), jobs=1, cache=store_dir
        )
        assert cold.ok
        assert cold.cache_hits == 0 and cold.cache_misses == len(suite)

        # Prove zero recomputation, not just matching rows: the warm
        # run uses a registry whose miss counter must stay at zero.
        metrics = MetricsRegistry()
        warm = run_parallel(
            suite, drivers=("figure5",), jobs=1, cache=store_dir,
            metrics=metrics,
        )
        assert warm.ok
        assert warm.rows == cold.rows
        assert warm.cache_hits == len(suite) and warm.cache_misses == 0
        assert set(warm.statuses.values()) == {"cached"}
        snap = metrics.snapshot()
        assert snap["store.hits"] == len(suite)
        assert snap["store.misses"] == 0
        assert snap.get("store.puts", 0) == 0
        assert snap["runner.units.cached"] == len(suite)

    def test_changed_kwargs_invalidate_the_cache(self, suite, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_parallel(
            suite, drivers=("figure5",), jobs=1, cache=store,
            driver_kwargs={"figure5": {"model_seed": 1}},
        )
        assert first.ok
        second = run_parallel(
            suite, drivers=("figure5",), jobs=1, cache=store,
            driver_kwargs={"figure5": {"model_seed": 2}},
        )
        assert second.ok
        assert second.cache_hits == 0, "changed kwargs must miss"

    def test_failed_units_are_not_cached(self, suite, tmp_path):
        store = ResultStore(tmp_path / "store")
        bad = run_parallel(
            suite, drivers=("_faulty_raise",), jobs=1,
            max_retries=0, retry_backoff=0.001, cache=store,
        )
        assert not bad.ok
        # Only alpha and gamma were persisted; beta stays a miss and is
        # recomputed (and fails again) on the next run.
        again = run_parallel(
            suite, drivers=("_faulty_raise",), jobs=1,
            max_retries=0, retry_backoff=0.001, cache=store,
        )
        assert again.statuses["_faulty_raise/beta"] == "failed"
        assert again.statuses["_faulty_raise/alpha"] == "cached"
        assert again.statuses["_faulty_raise/gamma"] == "cached"
