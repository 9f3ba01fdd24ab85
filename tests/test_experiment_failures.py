"""Failure handling in the parallel runner (the narrowed handlers).

The broad ``except Exception`` blocks in ``analysis/experiments.py``
used to flatten every failure into one string.  Now each
``SuiteRun.errors`` entry carries the exception type, the attempt
count and a trimmed traceback, and store corruption — the one failure
that poisons *every* unit — aborts the run with
:class:`StoreCorruptionError` instead of being silently recomputed
around.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import run_parallel
from repro.core import FunctionProfile, OCSPInstance
from repro.store import ResultStore, StoreCorruptionError
from repro.workloads import WorkloadSpec, generate


@pytest.fixture(scope="module")
def suite():
    spec = WorkloadSpec(
        name="ok", num_functions=6, num_calls=80, num_levels=3
    )
    return {"ok": generate(spec, seed=7)}


def _poisoned(suite):
    broken = OCSPInstance(
        {"f0": FunctionProfile("f0", (1.0,), (1.0,))}, ("f0",), name="bad"
    )
    object.__setattr__(broken, "profiles", {})
    out = dict(suite)
    out["bad"] = broken
    return out


@pytest.mark.parametrize("jobs", [1, 2])
def test_errors_carry_type_and_attempts(suite, jobs):
    run = run_parallel(
        _poisoned(suite), drivers=("figure5",), jobs=jobs, max_retries=1
    )
    assert not run.ok
    (entry,) = run.errors
    assert entry["benchmark"] == "bad"
    assert entry["type"]  # the exception class name, not a guess
    assert entry["attempts"] == "2"  # first try + one retry


@pytest.mark.parametrize("jobs", [1, 2])
def test_errors_carry_a_traceback_tail(suite, jobs):
    run = run_parallel(
        _poisoned(suite), drivers=("figure5",), jobs=jobs, max_retries=0
    )
    assert not run.ok
    assert run.statuses["figure5/bad"] == "failed"
    (entry,) = run.errors  # healthy units carry no entry
    assert (entry["driver"], entry["benchmark"]) == ("figure5", "bad")
    assert entry["type"] and entry["error"].startswith(entry["type"] + ": ")
    # every value is a string, so the entry goes into --json-out as is
    assert all(isinstance(value, str) for value in entry.values())
    # the trimmed traceback: up to three "; "-joined file:line frames
    frames = entry["traceback"].split("; ")
    assert 1 <= len(frames) <= 3
    assert all(":" in frame and " in " in frame for frame in frames)
    assert json.loads(json.dumps(entry)) == entry


@pytest.mark.parametrize("jobs", [1, 2])
def test_corrupt_store_entry_aborts_the_run(suite, tmp_path, jobs):
    cache_dir = tmp_path / f"cache-{jobs}"
    first = run_parallel(
        suite, drivers=("figure5",), jobs=jobs, cache=cache_dir
    )
    assert first.ok
    store = ResultStore(cache_dir)
    # mangle every cached entry in place: valid version header, broken
    # structure (the strict read must escalate, not silently recompute)
    damaged = 0
    for sub in store.objects_dir.iterdir():
        for path in sub.glob("*.json"):
            doc = json.loads(path.read_text())
            doc["fingerprint"] = "0" * 64
            path.write_text(json.dumps(doc))
            damaged += 1
    assert damaged > 0
    with pytest.raises(StoreCorruptionError, match="corrupt store entry"):
        run_parallel(suite, drivers=("figure5",), jobs=jobs, cache=cache_dir)


def test_default_store_reads_stay_lenient(suite, tmp_path):
    # Outside the runner, a damaged entry is still just a miss (the
    # pinned contract of test_store.py) — strict mode is opt-in.
    cache_dir = tmp_path / "cache"
    run_parallel(suite, drivers=("figure5",), jobs=1, cache=cache_dir)
    store = ResultStore(cache_dir)
    (path,) = [
        p for sub in store.objects_dir.iterdir() for p in sub.glob("*.json")
    ]
    path.write_text("garbage")
    assert store.get(path.stem) is None
    assert not path.exists()  # lenient mode unlinks the dead weight
