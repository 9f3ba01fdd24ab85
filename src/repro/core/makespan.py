"""Deterministic make-span simulation for compilation schedules.

This is the reproduction of the paper's measurement component (Section
6.1): *"the experimental framework includes a component that, for a given
compilation schedule, computes the make-span of a call sequence based on
the compilation and execution times of the involved functions, along with
the number of cores used for compilation and execution."*

Model (Sections 3, 4.2, 6.2.3):

* One execution thread processes the call sequence in order.
* ``compile_threads`` compiler threads process the schedule's tasks in
  order — when a thread becomes free it takes the next task (a FIFO
  queue, as in Jikes RVM's compilation thread).
* Compilation starts at time 0; an invocation of ``f`` cannot start
  before the first compilation of ``f`` has finished.  Waiting time on
  the execution thread is a *bubble*.
* An invocation runs the code of the best (highest-level) compilation of
  ``f`` that has finished by the moment the invocation starts.  With a
  single compiler thread this coincides with the paper's "latest
  compilation wins" rule because valid schedules only recompile at
  strictly higher levels.
* The make-span is the time from the start of the first compilation
  event to the end of program execution.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .model import ModelError, OCSPInstance
from .schedule import CompileTask, Schedule, ScheduleError

__all__ = [
    "TaskTiming",
    "CallTiming",
    "MakespanResult",
    "DueDateTable",
    "DueDateObjectives",
    "simulate",
    "simulate_single_core",
    "iter_calls",
    "objectives_from_timeline",
    "due_date_objectives",
]


@dataclass(frozen=True)
class TaskTiming:
    """Start/finish of one compile task, and the thread that ran it."""

    function: str
    level: int
    start: float
    finish: float
    thread: int


@dataclass(frozen=True)
class CallTiming:
    """Start/finish of one invocation, the level it ran at, and the
    bubble (waiting time) that preceded it."""

    function: str
    level: int
    start: float
    finish: float
    bubble: float


@dataclass(frozen=True)
class MakespanResult:
    """Outcome of a make-span simulation.

    Attributes:
        makespan: time from the first compilation's start (t=0) to the
            end of the last invocation.
        exec_end: same as ``makespan`` (kept for clarity in formulas).
        compile_end: finish time of the last compile task; may exceed
            ``makespan`` when the tail of the schedule is useless.
        total_bubble_time: total time the execution thread spent waiting
            for compilations (the paper's "bubbles").
        total_exec_time: sum of the invocation running times.
        calls_at_level: histogram ``{level: number of invocations}``.
        task_timings: per-task timeline (only when ``record_timeline``).
        call_timings: per-call timeline (only when ``record_timeline``).
    """

    makespan: float
    compile_end: float
    total_bubble_time: float
    total_exec_time: float
    calls_at_level: Dict[int, int]
    task_timings: Optional[Tuple[TaskTiming, ...]] = None
    call_timings: Optional[Tuple[CallTiming, ...]] = None

    @property
    def exec_end(self) -> float:
        return self.makespan


@dataclass(frozen=True)
class DueDateTable:
    """Per-function due dates and weights (the SCC-instances extension).

    The paper's objective is the make-span alone; external workloads —
    notably the MSOLab SCC due-date instances — ship a *due date* per
    job.  The OCSP mapping is per **function**: a function's job is
    considered complete when its **last invocation finishes**, and the
    due-date objectives (:func:`due_date_objectives`) measure lateness
    of that completion against ``due``, scaled by ``weight``.

    Attributes:
        entries: ``{function name: (due, weight)}``.  Due dates must be
            finite and non-negative; weights finite and non-negative.
    """

    entries: Mapping[str, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        checked: Dict[str, Tuple[float, float]] = {}
        for fname, entry in dict(self.entries).items():
            if not isinstance(fname, str) or not fname:
                raise ModelError(
                    f"due dates: function name must be a non-empty string, "
                    f"got {fname!r}"
                )
            try:
                due, weight = entry
            except (TypeError, ValueError):
                raise ModelError(
                    f"due dates: entry for {fname!r} must be a "
                    f"(due, weight) pair, got {entry!r}"
                ) from None
            for label, value in (("due date", due), ("weight", weight)):
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ModelError(
                        f"due dates: {label} for {fname!r} must be a "
                        f"number, got {value!r}"
                    )
                if not math.isfinite(value) or value < 0:
                    raise ModelError(
                        f"due dates: {label} for {fname!r} must be finite "
                        f"and non-negative, got {value!r}"
                    )
            checked[fname] = (float(due), float(weight))
        object.__setattr__(self, "entries", checked)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fname: str) -> bool:
        return fname in self.entries

    def items(self):
        """``(function, (due, weight))`` pairs in sorted-name order (the
        canonical aggregation order every engine uses)."""
        return sorted(self.entries.items())

    def validate_against(self, instance: OCSPInstance) -> None:
        """Check that every entry names a function of ``instance``.

        Raises:
            ModelError: for an entry whose function has no profile.
        """
        unknown = sorted(f for f in self.entries if f not in instance.profiles)
        if unknown:
            raise ModelError(
                "due dates name functions absent from the instance: "
                + ", ".join(unknown[:10])
            )


@dataclass(frozen=True)
class DueDateObjectives:
    """Due-date-aware objectives of one simulated run.

    All completions are *last-invocation finish times*, measured on the
    same clock as :attr:`MakespanResult.makespan` (t = 0 is the start of
    the first compilation).  Functions with a due date that are never
    called contribute nothing (their job never ran in this trace).

    Attributes:
        makespan: the run's make-span (for context).
        max_tardiness: ``max_f max(0, C_f - d_f)`` — the worst lateness.
        total_weighted_tardiness: ``sum_f w_f * max(0, C_f - d_f)``.
        weighted_completion: ``sum_f w_f * C_f`` (the classic
            ``sum w_j C_j`` objective).
        num_late: how many dued functions finished after their due date.
        num_jobs: how many dued functions were actually called.
        completions: ``{function: C_f}`` for every dued, called function.
    """

    makespan: float
    max_tardiness: float
    total_weighted_tardiness: float
    weighted_completion: float
    num_late: int
    num_jobs: int
    completions: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        """Plain-data view (stable keys, JSON-ready)."""
        return {
            "makespan": self.makespan,
            "max_tardiness": self.max_tardiness,
            "total_weighted_tardiness": self.total_weighted_tardiness,
            "weighted_completion": self.weighted_completion,
            "num_late": self.num_late,
            "num_jobs": self.num_jobs,
            "completions": dict(sorted(self.completions.items())),
        }


def objectives_from_timeline(
    result: MakespanResult, due: DueDateTable
) -> DueDateObjectives:
    """Aggregate due-date objectives from a recorded call timeline.

    The aggregation is deterministic and engine-independent: functions
    are visited in sorted-name order and the weighted sums accumulate
    left-associated, so every engine that produces a bitwise-identical
    timeline produces bitwise-identical objectives.

    Raises:
        ValueError: if ``result`` carries no call timeline (simulate
            with ``record_timeline=True``).
    """
    if result.call_timings is None:
        raise ValueError(
            "objectives_from_timeline needs call timings; simulate with "
            "record_timeline=True"
        )
    last_finish: Dict[str, float] = {}
    for timing in result.call_timings:
        if timing.function in due:
            last_finish[timing.function] = timing.finish
    max_tardiness = 0.0
    total_weighted_tardiness = 0.0
    weighted_completion = 0.0
    num_late = 0
    for fname, (due_time, weight) in due.items():
        finish = last_finish.get(fname)
        if finish is None:
            continue
        tardiness = finish - due_time
        if tardiness > 0.0:
            num_late += 1
            if tardiness > max_tardiness:
                max_tardiness = tardiness
            total_weighted_tardiness += weight * tardiness
        weighted_completion += weight * finish
    return DueDateObjectives(
        makespan=result.makespan,
        max_tardiness=max_tardiness,
        total_weighted_tardiness=total_weighted_tardiness,
        weighted_completion=weighted_completion,
        num_late=num_late,
        num_jobs=len(last_finish),
        completions=last_finish,
    )


def due_date_objectives(
    instance: OCSPInstance,
    schedule: Schedule,
    due: DueDateTable,
    compile_threads: int = 1,
    validate: bool = True,
    engine: Optional[str] = None,
) -> DueDateObjectives:
    """Simulate ``schedule`` and measure the due-date objectives.

    Runs one timeline-recording simulation through the engine seam
    (``engine`` as in :func:`simulate`: ``None`` defers to the session
    default) and aggregates with :func:`objectives_from_timeline`; all
    engines yield bitwise-identical objectives.
    """
    result = simulate(
        instance,
        schedule,
        compile_threads=compile_threads,
        record_timeline=True,
        validate=validate,
        engine=engine,
    )
    return objectives_from_timeline(result, due)


def _check_engine_args(
    instance: OCSPInstance,
    compile_threads: int,
    preinstalled: Optional[Mapping[str, int]],
) -> Dict[str, int]:
    """Check the thread count and each preinstalled level, both engines'
    fixed arguments; return ``preinstalled`` as a dict."""
    if compile_threads < 1:
        raise ValueError(f"compile_threads must be >= 1, got {compile_threads}")
    checked = dict(preinstalled or {})
    for fname, level in checked.items():
        prof = instance.profiles.get(fname)
        if prof is None or not 0 <= level < prof.num_levels:
            raise ValueError(f"preinstalled level {level} invalid for {fname!r}")
    return checked


def _check_task_overrides(
    num_tasks: int,
    release_times: Optional[Sequence[float]],
    task_compile_times: Optional[Sequence[float]],
    task_installs: Optional[Sequence[bool]],
) -> None:
    """Check that each per-task override given has one entry per task."""
    for label, values in (
        ("release_times", release_times),
        ("task_compile_times", task_compile_times),
        ("task_installs", task_installs),
    ):
        if values is not None and len(values) != num_tasks:
            raise ValueError(
                f"{label} has {len(values)} entries for {num_tasks} tasks"
            )


def _compile_task_finishes(
    instance: OCSPInstance,
    schedule: Sequence[CompileTask],
    compile_threads: int,
    release_times: Optional[Sequence[float]] = None,
    task_compile_times: Optional[Sequence[float]] = None,
) -> Tuple[List[float], List[float], List[int]]:
    """Compute start/finish times of every task and the thread used.

    Tasks are assigned FIFO: each task goes to the compiler thread that
    becomes free earliest (ties broken by thread id for determinism).
    With ``release_times``, task ``i`` additionally cannot start before
    ``release_times[i]`` — this replays the enqueue times of a reactive
    run (``vm.runtime``), whose greedy dispatch is exactly
    ``start = max(thread_free, enqueue_time)``.  With
    ``task_compile_times``, task ``i`` charges ``task_compile_times[i]``
    instead of the profile's compile time — the fault layer's stalled
    (slowed-down) attempts.  Both engines take their task timings from
    here.
    """
    profiles = instance.profiles
    starts: List[float] = []
    finishes: List[float] = []
    threads_used: List[int] = []
    if compile_threads == 1:
        # Fast path: back-to-back on one thread.
        t = 0.0
        for i, task in enumerate(schedule):
            c = (
                task_compile_times[i]
                if task_compile_times is not None
                else profiles[task.function].compile_times[task.level]
            )
            if release_times is not None:
                rel = release_times[i]
                if t < rel:
                    t = rel
            starts.append(t)
            t += c
            finishes.append(t)
            threads_used.append(0)
        return starts, finishes, threads_used
    free_at = [(0.0, tid) for tid in range(compile_threads)]
    heapq.heapify(free_at)
    for i, task in enumerate(schedule):
        c = (
            task_compile_times[i]
            if task_compile_times is not None
            else profiles[task.function].compile_times[task.level]
        )
        start, tid = heapq.heappop(free_at)
        if release_times is not None:
            rel = release_times[i]
            if start < rel:
                start = rel
        starts.append(start)
        finishes.append(start + c)
        threads_used.append(tid)
        heapq.heappush(free_at, (start + c, tid))
    return starts, finishes, threads_used


def _task_timings(
    schedule: Sequence[CompileTask],
    starts: Sequence[float],
    finishes: Sequence[float],
    threads: Sequence[int],
) -> Tuple[TaskTiming, ...]:
    """The per-task timeline from :func:`_compile_task_finishes`' lists."""
    return tuple(
        TaskTiming(task.function, task.level, start, finish, thread)
        for task, start, finish, thread in zip(schedule, starts, finishes, threads)
    )


def _install_events(
    schedule: Sequence[CompileTask],
    finishes: Sequence[float],
    preinstalled: Optional[Mapping[str, int]] = None,
    task_installs: Optional[Sequence[bool]] = None,
) -> Dict[str, List[Tuple[float, int]]]:
    """Each function's installs as ``(finish, level)``, sorted by finish.

    Preinstalled code installs at t = 0.  A task whose ``task_installs``
    entry is false (a failed compile attempt) occupies its thread but
    publishes no code, so it contributes no event.
    """
    by_function: Dict[str, List[Tuple[float, int]]] = {}
    if preinstalled:
        for fname, level in preinstalled.items():
            by_function[fname] = [(0.0, level)]
    for i, (task, finish) in enumerate(zip(schedule, finishes)):
        if task_installs is not None and not task_installs[i]:
            continue
        by_function.setdefault(task.function, []).append((finish, task.level))
    for events in by_function.values():
        events.sort()
    return by_function


def _simulate(
    instance: OCSPInstance,
    schedule: Schedule,
    compile_threads: int = 1,
    record_timeline: bool = False,
    validate: bool = True,
    preinstalled: Optional[Dict[str, int]] = None,
    release_times: Optional[Sequence[float]] = None,
    task_compile_times: Optional[Sequence[float]] = None,
    task_installs: Optional[Sequence[bool]] = None,
) -> MakespanResult:
    """Untraced simulation body; see :func:`simulate` for the contract."""
    preinstalled = _check_engine_args(instance, compile_threads, preinstalled)
    _check_task_overrides(
        len(schedule), release_times, task_compile_times, task_installs
    )
    if validate:
        schedule.validate(instance, preinstalled)

    starts, finishes, threads_used = _compile_task_finishes(
        instance, schedule, compile_threads, release_times, task_compile_times
    )
    by_function = _install_events(schedule, finishes, preinstalled, task_installs)

    # Monotone per-function cursor: index of the next not-yet-finished
    # compile event, and the best level among finished ones.
    cursor: Dict[str, int] = {f: 0 for f in by_function}
    best_level: Dict[str, int] = {}

    profiles = instance.profiles
    t = 0.0
    total_bubble = 0.0
    total_exec = 0.0
    calls_at_level: Dict[int, int] = {}
    call_timings: List[CallTiming] = [] if record_timeline else []

    # Once the execution clock passes the last compile finish, no call
    # can ever wait or change level again: the remainder of the trace is
    # a plain sum at each function's final level (fast tail).
    all_compiled_at = max(
        (events[-1][0] for events in by_function.values()), default=0.0
    )

    calls = iter(instance.calls)
    for fname in calls:
        if not record_timeline and t >= all_compiled_at:
            final_level = {
                f: max(lvl for _ft, lvl in events)
                for f, events in by_function.items()
            }
            for rest in chain((fname,), calls):
                lvl = final_level.get(rest)
                if lvl is None:  # unreachable when validated
                    raise ScheduleError(f"function {rest!r} is never compiled")
                e = profiles[rest].exec_times[lvl]
                total_exec += e
                t += e
                calls_at_level[lvl] = calls_at_level.get(lvl, 0) + 1
            break
        events = by_function.get(fname)
        if not events:  # unreachable when validated
            raise ScheduleError(f"function {fname!r} is never compiled")
        first_ready = events[0][0]
        start = t if t >= first_ready else first_ready
        bubble = start - t
        # Advance the cursor past every compile event finished by `start`.
        idx = cursor[fname]
        best = best_level.get(fname, -1)
        while idx < len(events) and events[idx][0] <= start:
            if events[idx][1] > best:
                best = events[idx][1]
            idx += 1
        cursor[fname] = idx
        best_level[fname] = best
        e = profiles[fname].exec_times[best]
        finish = start + e
        total_bubble += bubble
        total_exec += e
        calls_at_level[best] = calls_at_level.get(best, 0) + 1
        if record_timeline:
            call_timings.append(
                CallTiming(
                    function=fname, level=best, start=start, finish=finish,
                    bubble=bubble,
                )
            )
        t = finish

    return MakespanResult(
        makespan=t,
        compile_end=finishes[-1] if finishes else 0.0,
        total_bubble_time=total_bubble,
        total_exec_time=total_exec,
        calls_at_level=calls_at_level,
        task_timings=(
            _task_timings(schedule, starts, finishes, threads_used)
            if record_timeline
            else None
        ),
        call_timings=tuple(call_timings) if record_timeline else None,
    )


def simulate(
    instance: OCSPInstance,
    schedule: Schedule,
    compile_threads: int = 1,
    record_timeline: bool = False,
    validate: bool = True,
    preinstalled: Optional[Dict[str, int]] = None,
    release_times: Optional[Sequence[float]] = None,
    task_compile_times: Optional[Sequence[float]] = None,
    task_installs: Optional[Sequence[bool]] = None,
    tracer=None,
    metrics=None,
    engine: Optional[str] = None,
) -> MakespanResult:
    """Simulate ``schedule`` driving ``instance`` and return timings.

    Args:
        instance: the OCSP instance (call sequence + cost tables).
        schedule: compilation schedule to evaluate.
        compile_threads: number of concurrent compiler threads (the
            paper's Figure 7 varies this from 1 to 16).
        record_timeline: keep per-task and per-call timings (O(N) memory;
            off by default for long traces).
        validate: check schedule legality first (disable only in tight
            loops where the caller guarantees validity).  With
            ``preinstalled``, the coverage requirement relaxes: a
            preinstalled function needs no compile task.
        preinstalled: functions whose code at the given level is
            available from t = 0 without compilation — a persistent
            code cache (the paper's Section 9 related work) or the
            carried-over state of a replanning segment.
        release_times: optional per-task earliest start times (one per
            schedule task); used to replay a reactive run's enqueue
            times so its emergent schedule reproduces the same timing.
        task_compile_times: optional per-task compile-time override
            (one per schedule task), replacing the profile lookup —
            how :mod:`repro.faults` charges stalled (slowed) compile
            attempts without touching the validated cost tables.
        task_installs: optional per-task booleans; a ``False`` task
            occupies its compiler thread for its compile time but
            installs no code (a *failed* compile attempt).  Callers
            must ensure every called function still gets at least one
            installing task (``validate`` does not model installs).
        tracer: optional :class:`repro.observability.Tracer` (or scope);
            when given, the engine records the full timeline and it is
            traced here as compile / call / bubble spans, whichever
            engine ran.  The numbers are bitwise identical to an
            untraced run — tracing only records, it never reschedules.
        metrics: optional
            :class:`repro.observability.MetricsRegistry`; records the
            deterministic work counters ``makespan.runs``,
            ``makespan.calls``, and ``makespan.tasks``.  Counting
            happens once per run outside the replay loop, so the hot
            body is untouched and ``metrics=None`` (the default) costs
            a single branch.
        engine: ``"reference"`` (this module's pure-Python loop, the
            default) or ``"vector"``
            (:class:`~repro.core.vecsim.VectorSimulator`, the numpy
            structure-of-arrays kernel).  Both are bitwise identical;
            ``None`` defers to the session default
            (:func:`repro.core.engine.set_default_engine` /
            ``$REPRO_ENGINE``), then to ``"reference"``.  A vector
            evaluation builds its engine per call, on the cost tables
            the instance builds once.

    Returns:
        A :class:`MakespanResult`.

    Raises:
        ScheduleError: if ``validate`` and the schedule is illegal.
        ValueError: if ``compile_threads < 1``, a preinstalled level is
            out of range, ``release_times`` has the wrong length, or
            ``engine`` is unknown.
    """
    # The engine seam imports this module, so it is read at call time.
    from .engine import get_default_engine, make_simulator

    if engine is None:
        engine = get_default_engine()
    # A tracer draws its spans from the timeline, whichever engine runs.
    timeline = record_timeline or tracer is not None
    if engine is None or engine == "reference":
        result = _simulate(
            instance, schedule, compile_threads, timeline,
            validate, preinstalled, release_times,
            task_compile_times, task_installs,
        )
    else:
        result = make_simulator(
            instance,
            engine,
            compile_threads=compile_threads,
            preinstalled=preinstalled,
        ).evaluate(
            schedule,
            record_timeline=timeline,
            validate=validate,
            release_times=release_times,
            task_compile_times=task_compile_times,
            task_installs=task_installs,
        )
    if metrics is not None:
        _count_run(metrics, instance, schedule)
    if tracer is None:
        return result
    from repro.observability.instrument import trace_makespan_result

    trace_makespan_result(tracer, result)
    if record_timeline:
        return result
    return dataclasses.replace(result, task_timings=None, call_timings=None)


def _count_run(metrics, instance: OCSPInstance, schedule: Schedule) -> None:
    """Work accounting for one simulation (post-run, O(1))."""
    metrics.counter("makespan.runs").inc()
    metrics.counter("makespan.calls").inc(len(instance.calls))
    metrics.counter("makespan.tasks").inc(len(schedule))


def iter_calls(
    instance: OCSPInstance,
    schedule: Schedule,
    compile_threads: int = 1,
    preinstalled: Optional[Mapping[str, int]] = None,
):
    """Lazily yield ``(function, level, start, finish, bubble)`` per call.

    A streaming variant of :func:`simulate` (``preinstalled`` as there)
    used by schedulers (e.g. IAR) that need call start times on long
    traces without materializing a timeline.  Neither the schedule nor
    ``preinstalled`` is checked; callers must pass valid ones.
    """
    _, finishes, _ = _compile_task_finishes(instance, schedule, compile_threads)
    by_function = _install_events(schedule, finishes, preinstalled)
    cursor: Dict[str, int] = {f: 0 for f in by_function}
    best_level: Dict[str, int] = {}
    profiles = instance.profiles
    t = 0.0
    for fname in instance.calls:
        events = by_function.get(fname)
        if not events:
            raise ScheduleError(f"function {fname!r} is never compiled")
        first_ready = events[0][0]
        start = t if t >= first_ready else first_ready
        idx = cursor[fname]
        best = best_level.get(fname, -1)
        while idx < len(events) and events[idx][0] <= start:
            if events[idx][1] > best:
                best = events[idx][1]
            idx += 1
        cursor[fname] = idx
        best_level[fname] = best
        finish = start + profiles[fname].exec_times[best]
        yield fname, best, start, finish, start - t
        t = finish


def simulate_single_core(
    instance: OCSPInstance, schedule: Schedule, validate: bool = True
) -> MakespanResult:
    """Make-span when compilation and execution share a single core.

    Section 4.1: with one core the machine is always busy doing either
    compilation or execution work, so the make-span is the sum of all
    compile times in the schedule plus all invocation times.  On a single
    core, delaying a compile never hides its cost (there are no bubbles
    to avoid), so the best interleaving of a given task set runs every
    compile of ``f`` before ``f``'s first invocation; every call then
    executes at the highest level its function is ever compiled at.  We
    return the make-span under that optimal interleaving, which is the
    quantity Theorem 1 reasons about.
    """
    if validate:
        schedule.validate(instance)
    profiles = instance.profiles
    level_of: Dict[str, int] = {}
    for task in schedule:
        prev = level_of.get(task.function, -1)
        if task.level > prev:
            level_of[task.function] = task.level
    compile_total = schedule.total_compile_time(instance)
    exec_total = 0.0
    calls_at_level: Dict[int, int] = {}
    for fname in instance.calls:
        lvl = level_of[fname]
        exec_total += profiles[fname].exec_times[lvl]
        calls_at_level[lvl] = calls_at_level.get(lvl, 0) + 1
    return MakespanResult(
        makespan=compile_total + exec_total,
        compile_end=compile_total + exec_total,
        total_bubble_time=0.0,
        total_exec_time=exec_total,
        calls_at_level=calls_at_level,
    )
