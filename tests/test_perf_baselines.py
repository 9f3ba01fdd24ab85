"""Assertions over the *committed* benchmark baselines.

The committed ``BENCH_*.json`` files are the repo's perf contract: the
bench comparator gates wall time against them, and this module gates
their *content* — the dual-signal invariants that must hold for the
engine-equivalence story to be true:

* **counter identity across engines** — ``core_simulate`` /
  ``core_simulate_vector`` measure the same workload through the
  reference and the vector engine, so their work counters must match
  key for key, value for value;
* **the vector speedup claim** — at scale 1.0 the vector engine's
  median must beat the reference by >= 10x (proven by the committed
  numbers rather than by a README sentence);
* **the priority-queue dispatch fix** — single-threaded co-simulation
  never takes the reheapify slow path, so the committed
  ``priorityqueue_hotness`` baseline must not contain a
  ``priorityqueue.reheapifies`` counter at all.

Regenerate after an intended change with::

    python -m repro bench run --suite quick --update-baselines
    python -m repro bench run --suite speedup --scale 0.1 \
        --update-baselines --baseline-dir benchmarks/baselines/scale-0.1
    python -m repro bench run --suite speedup --scale 1.0 \
        --update-baselines --baseline-dir benchmarks/baselines/scale-1.0
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"

# (directory, expected recorded scale)
DIRS = [
    (BASELINES, 0.01),
    (BASELINES / "scale-0.1", 0.1),
    (BASELINES / "scale-1.0", 1.0),
]

# Engine twins: same workload and schedule, different engine — the
# committed counters must be identical.
TWINS = [
    ("core_simulate", "core_simulate_vector"),
]

SPEEDUP_FLOOR = 10.0


def _load(directory: Path, name: str) -> dict:
    path = directory / f"BENCH_{name}.json"
    assert path.is_file(), f"missing committed baseline {path}"
    return json.loads(path.read_text())


def test_baseline_directories_exist():
    for directory, _scale in DIRS:
        assert directory.is_dir(), f"missing baseline directory {directory}"


@pytest.mark.parametrize(
    "directory,scale", DIRS, ids=[str(s) for _d, s in DIRS]
)
@pytest.mark.parametrize("slow,fast", TWINS, ids=[t[0] for t in TWINS])
def test_engine_twins_have_identical_counters(directory, scale, slow, fast):
    """The committed counters prove counter identity across engines."""
    slow_doc = _load(directory, slow)
    fast_doc = _load(directory, fast)
    assert slow_doc["scale"] == scale
    assert fast_doc["scale"] == scale
    assert slow_doc["counters"] == fast_doc["counters"], (
        f"{slow} and {fast} counters diverge at scale {scale}"
    )
    assert slow_doc["counters"], f"{slow} baseline records no counters"


@pytest.mark.parametrize("slow,fast", TWINS, ids=[t[0] for t in TWINS])
def test_vector_speedup_at_full_scale(slow, fast):
    """The committed scale-1.0 medians prove the >= 10x vector speedup."""
    directory = BASELINES / "scale-1.0"
    slow_median = _load(directory, slow)["timing"]["median_s"]
    fast_median = _load(directory, fast)["timing"]["median_s"]
    ratio = slow_median / fast_median
    assert ratio >= SPEEDUP_FLOOR, (
        f"{slow} / {fast} speedup regressed: {ratio:.1f}x < "
        f"{SPEEDUP_FLOOR:.0f}x at scale 1.0"
    )


def test_priorityqueue_baseline_has_no_reheapifies():
    """Single-thread dispatch never reheapifies: the two-heap queue only
    pays a heapify on the multi-thread slow path, so the counter must be
    absent from the committed single-thread benchmark entirely."""
    counters = _load(BASELINES, "priorityqueue_hotness")["counters"]
    assert "priorityqueue.reheapifies" not in counters
    assert counters.get("priorityqueue.dispatched", 0) > 0
