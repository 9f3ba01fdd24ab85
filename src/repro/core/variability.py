"""Per-invocation execution-time variability (Sections 3 and 8).

Definition 1 assumes each ``e[i][j]`` is one constant, but in reality
"the execution time may differ from one call of function m_i to
another, thanks to the differences in calling parameters and contexts."
The paper argues the variation "does not affect the major conclusions"
because only per-function *totals* enter the bounds and the single-core
argument.  This module lets us test that claim instead of taking it:

* :func:`simulate_variable` — make-span simulation where each
  invocation's time is the profile's mean scaled by a seeded lognormal
  factor (unit mean), per call;
* :func:`variability_experiment` — compare scheme rankings under
  increasing variability.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

from .makespan import MakespanResult, _compile_task_finishes, _install_events
from .model import OCSPInstance
from .schedule import Schedule

__all__ = ["simulate_variable", "variability_experiment"]


def _unit_mean_lognormal(rng: random.Random, sigma: float) -> float:
    """Lognormal multiplier with mean exactly 1 (so per-function
    expected totals match the deterministic model)."""
    return math.exp(rng.gauss(-0.5 * sigma * sigma, sigma))


def simulate_variable(
    instance: OCSPInstance,
    schedule: Schedule,
    rel_sigma: float,
    seed: int = 0,
    compile_threads: int = 1,
) -> MakespanResult:
    """Simulate with per-invocation execution-time noise.

    Each invocation of ``f`` at level ``j`` runs for
    ``e[f][j] * m_k`` where ``m_k`` is a unit-mean lognormal multiplier
    drawn per call position (the *same* multiplier applies whichever
    level the call ends up running at — context slowness is a property
    of the call, not of the code version).

    Args:
        instance: the workload (profile times are the means).
        schedule: compilation schedule.
        rel_sigma: lognormal sigma of the multiplier (0 = deterministic).
        seed: RNG seed; multipliers are a deterministic function of
            (seed, call position).
        compile_threads: compiler threads.

    Raises:
        ValueError: for negative ``rel_sigma`` or bad thread counts.
    """
    if rel_sigma < 0:
        raise ValueError("rel_sigma must be non-negative")
    if compile_threads < 1:
        raise ValueError("compile_threads must be >= 1")
    schedule.validate(instance)

    rng = random.Random(seed)
    _starts, finishes, _threads = _compile_task_finishes(
        instance, schedule, compile_threads
    )
    by_function = _install_events(schedule, finishes)
    cursor = {f: 0 for f in by_function}
    best_level: Dict[str, int] = {}

    profiles = instance.profiles
    t = 0.0
    total_bubble = 0.0
    total_exec = 0.0
    calls_at_level: Dict[int, int] = {}
    for fname in instance.calls:
        multiplier = (
            _unit_mean_lognormal(rng, rel_sigma) if rel_sigma > 0 else 1.0
        )
        events = by_function[fname]
        first_ready = events[0][0]
        start = t if t >= first_ready else first_ready
        total_bubble += start - t
        idx = cursor[fname]
        best = best_level.get(fname, -1)
        while idx < len(events) and events[idx][0] <= start:
            if events[idx][1] > best:
                best = events[idx][1]
            idx += 1
        cursor[fname] = idx
        best_level[fname] = best
        exec_time = profiles[fname].exec_times[best] * multiplier
        total_exec += exec_time
        calls_at_level[best] = calls_at_level.get(best, 0) + 1
        t = start + exec_time

    return MakespanResult(
        makespan=t,
        compile_end=finishes[-1] if finishes else 0.0,
        total_bubble_time=total_bubble,
        total_exec_time=total_exec,
        calls_at_level=calls_at_level,
    )


def variability_experiment(
    instance: OCSPInstance,
    schedules: Dict[str, Schedule],
    sigmas: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    trials: int = 5,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Scheme make-spans under increasing per-call variability.

    For each sigma, each schedule is simulated ``trials`` times with
    different noise seeds and the mean make-span reported.  If the
    paper's Section 8 argument holds, scheme *rankings* are stable
    across sigmas even though absolute make-spans fluctuate.

    Returns:
        One row per sigma: ``{"sigma": s, "<name>": mean_makespan}``.
    """
    rows: List[Dict[str, object]] = []
    for sigma in sigmas:
        row: Dict[str, object] = {"sigma": sigma}
        for name, schedule in schedules.items():
            total = 0.0
            for trial in range(trials):
                result = simulate_variable(
                    instance, schedule, sigma, seed=seed + trial
                )
                total += result.makespan
            row[name] = total / trials
        rows.append(row)
    return rows
