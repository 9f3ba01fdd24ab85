"""Local-search schedule improvement.

The paper brackets the optimum between the Section 5.2 lower bound and
IAR's make-span.  On instances too large for brute force or A*, a
third probe is useful: start from any schedule and hill-climb.  If
randomized local search cannot improve IAR's schedules meaningfully,
that is direct evidence they are near-optimal — tightening the bracket
from the feasible side.

Moves (all preserve validity by construction):

* **swap** — exchange two tasks of *different* functions;
* **shift** — move one task to another position (per-function order
  preserved by only shifting past other functions' tasks);
* **toggle-high** — add or remove a function's high-level recompile;
* **upgrade/downgrade** — change a single task's level within the
  legal range.

Simulated-annealing acceptance is optional; the default is strict
hill-climbing with random restarts of the move kind.

Move evaluation runs on the :class:`~repro.core.vecsim.VectorSimulator`
incremental engine by default: each candidate replays only the call
suffix its mutation can affect, and (under strict hill-climbing) aborts
as soon as it is provably worse than the incumbent.  The engine is
bitwise-exact against the reference simulator, so ``engine="vector"``
and ``engine="reference"`` walk identical search trajectories and
return identical schedules — ``engine="reference"`` exists for
benchmarking and differential testing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .engine import make_simulator
from .model import OCSPInstance
from .schedule import CompileTask, Schedule

__all__ = ["SearchStats", "improve_schedule"]


@dataclass(frozen=True)
class SearchStats:
    """Outcome of a local-search run.

    Attributes:
        initial_makespan: make-span of the starting schedule.
        final_makespan: make-span of the returned schedule.
        iterations: moves attempted.
        accepted: moves accepted.
    """

    initial_makespan: float
    final_makespan: float
    iterations: int
    accepted: int

    @property
    def improvement(self) -> float:
        """Relative improvement over the starting schedule."""
        if self.initial_makespan == 0:
            return 0.0
        return 1.0 - self.final_makespan / self.initial_makespan


def _legal_positions(tasks: List[CompileTask], index: int) -> Tuple[int, int]:
    """Range of positions task ``index`` may move to without reordering
    its own function's tasks."""
    task = tasks[index]
    lo = 0
    for i in range(index - 1, -1, -1):
        if tasks[i].function == task.function:
            lo = i + 1
            break
    hi = len(tasks) - 1
    for i in range(index + 1, len(tasks)):
        if tasks[i].function == task.function:
            hi = i - 1
            break
    return lo, hi


def _propose(
    instance: OCSPInstance, tasks: List[CompileTask], rng: random.Random
) -> Optional[List[CompileTask]]:
    """One random valid neighbour, or ``None`` if the move fizzles."""
    move = rng.randrange(4)
    n = len(tasks)
    if move == 0 and n >= 2:  # swap two tasks of different functions
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or tasks[i].function == tasks[j].function:
            return None
        # Each task's new position must stay between its own function's
        # neighbouring tasks, or the swap would reorder a recompile
        # chain (levels must increase in schedule order).
        lo_i, hi_i = _legal_positions(tasks, i)
        lo_j, hi_j = _legal_positions(tasks, j)
        if not (lo_i <= j <= hi_i and lo_j <= i <= hi_j):
            return None
        out = list(tasks)
        out[i], out[j] = out[j], out[i]
        return out
    if move == 1 and n >= 2:  # shift one task
        i = rng.randrange(n)
        lo, hi = _legal_positions(tasks, i)
        if lo >= hi:
            return None
        j = rng.randint(lo, hi)
        if j == i:
            return None
        out = list(tasks)
        task = out.pop(i)
        out.insert(j, task)
        return out
    if move == 2:  # toggle a recompile
        fname = rng.choice(instance.called_functions)
        prof = instance.profiles[fname]
        if prof.num_levels < 2:
            return None
        positions = [i for i, t in enumerate(tasks) if t.function == fname]
        if len(positions) == 1:
            # Add a recompile at a level above the existing task's.
            current = tasks[positions[0]].level
            if current >= prof.num_levels - 1:
                return None
            level = rng.randint(current + 1, prof.num_levels - 1)
            at = rng.randint(positions[0] + 1, len(tasks))
            out = list(tasks)
            out.insert(at, CompileTask(fname, level))
            return out
        # Remove the last recompile (keep the first compile).
        out = list(tasks)
        del out[positions[-1]]
        return out
    # move == 3: change one task's level within the legal window.
    i = rng.randrange(n)
    task = tasks[i]
    prof = instance.profiles[task.function]
    below = [t.level for t in tasks if t.function == task.function and t.level < task.level]
    above = [t.level for t in tasks if t.function == task.function and t.level > task.level]
    lo = (max(below) + 1) if below else 0
    hi = (min(above) - 1) if above else prof.num_levels - 1
    if lo >= hi:
        return None
    level = rng.randint(lo, hi)
    if level == task.level:
        return None
    out = list(tasks)
    out[i] = CompileTask(task.function, level)
    return out


def improve_schedule(
    instance: OCSPInstance,
    schedule: Schedule,
    iterations: int = 2000,
    seed: int = 0,
    temperature: float = 0.0,
    compile_threads: int = 1,
    engine: Optional[str] = None,
    metrics=None,
) -> Tuple[Schedule, SearchStats]:
    """Randomized local search from ``schedule``.

    Args:
        instance: the workload.
        schedule: starting point (must be valid).
        iterations: moves to attempt.
        seed: RNG seed (deterministic search).
        temperature: 0 for strict hill-climbing; > 0 enables simulated
            annealing with exponential cooling (the value is the
            initial acceptance scale, relative to the starting
            make-span).
        compile_threads: compiler threads for evaluation.
        engine: ``"vector"`` (incremental
            :class:`~repro.core.vecsim.VectorSimulator`, the default) or
            ``"reference"`` (one full
            :func:`~repro.core.makespan.simulate` per move).  Both
            produce identical results; ``None`` defers to the session
            default (:func:`repro.core.engine.set_default_engine` /
            ``$REPRO_ENGINE``), then to ``"vector"``.
        metrics: optional
            :class:`repro.observability.MetricsRegistry`; records move
            outcomes (``localsearch.proposed`` / ``fizzled`` /
            ``invalid`` / ``evaluated`` / ``cutoff_exits`` /
            ``accepted`` / ``improved``) and a ``localsearch.gain``
            histogram of accepted make-span deltas.  Counting never
            perturbs the search trajectory.

    Returns:
        ``(best schedule found, stats)``.  The result is never worse
        than the input.

    Raises:
        ScheduleError: if the starting schedule is invalid.
        ValueError: for non-positive iteration counts or an unknown
            engine.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    sim = make_simulator(
        instance, engine, compile_threads=compile_threads, metrics=metrics
    )
    schedule.validate(instance)
    rng = random.Random(seed)

    current_span = sim.bind(schedule)
    current = list(schedule.tasks)
    best = list(current)
    best_span = current_span
    initial_span = current_span
    accepted = 0

    scale = temperature * initial_span
    # Under strict hill-climbing the exact span of a rejected move is
    # never consumed, so the incremental engine may abort a candidate
    # replay the moment it exceeds the incumbent.  Annealing needs the
    # true span for its acceptance probability — no cutoff then.
    use_cutoff = scale <= 0
    for step in range(iterations):
        proposal = _propose(instance, current, rng)
        if metrics is not None:
            metrics.counter("localsearch.proposed").inc()
        if proposal is None:
            if metrics is not None:
                metrics.counter("localsearch.fizzled").inc()
            continue
        if not Schedule(tuple(proposal)).is_valid_for(instance):
            # Defensive: every move is constructed to preserve validity,
            # but an invalid neighbour must never be evaluated.
            if metrics is not None:
                metrics.counter("localsearch.invalid").inc()
            continue
        span = sim.propose(
            proposal, cutoff=current_span if use_cutoff else None
        )
        if metrics is not None:
            metrics.counter("localsearch.evaluated").inc()
            if span == math.inf:
                metrics.counter("localsearch.cutoff_exits").inc()
        take = span <= current_span
        if not take and scale > 0:
            cooling = scale * (1.0 - step / iterations)
            if cooling > 0:
                take = rng.random() < math.exp((current_span - span) / cooling)
        if take:
            sim.commit()
            if metrics is not None:
                metrics.counter("localsearch.accepted").inc()
                metrics.histogram("localsearch.gain").record(
                    current_span - span
                )
                if span < best_span:
                    metrics.counter("localsearch.improved").inc()
            current = proposal
            current_span = span
            accepted += 1
            if span < best_span:
                best = list(proposal)
                best_span = span

    return Schedule(tuple(best)), SearchStats(
        initial_makespan=initial_span,
        final_makespan=best_span,
        iterations=iterations,
        accepted=accepted,
    )
