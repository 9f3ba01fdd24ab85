"""On-stack replacement (OSR): switching code mid-invocation.

Section 8 notes that treating interpretation as the lowest compilation
level needs "extra care ... for the interpreters that operate at the
level of a single statement" — i.e. an executing activation can switch
to better code at a loop back-edge instead of finishing at the old
speed.  That is on-stack replacement, and it changes the simulator's
"version decided at call start" rule.

:func:`simulate_osr` implements the natural fluid model: an invocation
runs as a unit of *work*; at any moment it proceeds at the speed of the
best version compiled so far, and when a better compile finishes
mid-invocation the **remaining fraction** of the work continues at the
new speed.  (Switch cost can be charged per transition.)

Consequences, verified in tests:

* OSR never lengthens an invocation: ``simulate_osr <= simulate`` for
  the same inputs (with zero switch cost);
* OSR removes exactly the *timing* part of the level excess that the
  call-start rule charges when an upgrade lands mid-call;
* with OSR, eagerly scheduled deep compiles are less dangerous — part
  of why interpreter-based runtimes can afford V8's eager promotion.
"""

from __future__ import annotations

from typing import Dict

from .makespan import MakespanResult, _compile_task_finishes, _install_events
from .model import OCSPInstance
from .schedule import Schedule

__all__ = ["simulate_osr"]


def simulate_osr(
    instance: OCSPInstance,
    schedule: Schedule,
    compile_threads: int = 1,
    switch_cost: float = 0.0,
    validate: bool = True,
) -> MakespanResult:
    """Make-span simulation with on-stack replacement.

    Each invocation of ``f`` carries one unit of work.  Running at
    level ``j`` consumes it at rate ``1 / e[f][j]``; whenever a better
    version of ``f`` finishes compiling, the activation switches (the
    remaining work continues at the new speed), paying ``switch_cost``
    time per switch.

    Args:
        instance: the workload.
        schedule: compilation schedule.
        compile_threads: compiler threads serving the schedule FIFO.
        switch_cost: time charged at each mid-invocation switch.
        validate: check schedule legality first.

    Returns:
        A :class:`MakespanResult`; ``calls_at_level`` counts each call
        at the level it *finished* at.

    Raises:
        ScheduleError: if ``validate`` and the schedule is illegal.
        ValueError: for bad parameters.
    """
    if compile_threads < 1:
        raise ValueError("compile_threads must be >= 1")
    if switch_cost < 0:
        raise ValueError("switch_cost must be non-negative")
    if validate:
        schedule.validate(instance)

    _starts, finishes, _threads = _compile_task_finishes(
        instance, schedule, compile_threads
    )
    by_function = _install_events(schedule, finishes)

    cursor: Dict[str, int] = {f: 0 for f in by_function}
    best_level: Dict[str, int] = {}
    profiles = instance.profiles

    t = 0.0
    total_bubble = 0.0
    total_exec = 0.0
    calls_at_level: Dict[int, int] = {}

    for fname in instance.calls:
        events = by_function[fname]
        prof = profiles[fname]
        first_ready = events[0][0]
        start = t if t >= first_ready else first_ready
        total_bubble += start - t

        # Advance to the best version available at the start.
        idx = cursor[fname]
        best = best_level.get(fname, -1)
        while idx < len(events) and events[idx][0] <= start:
            if events[idx][1] > best:
                best = events[idx][1]
            idx += 1

        # Fluid execution with mid-call switches at later finishes.
        now = start
        remaining = 1.0  # fraction of the invocation's work left
        level = best
        while True:
            rate_time = prof.exec_times[level]
            # Next potentially-better compile finish for this function.
            if idx < len(events):
                next_finish, next_level = events[idx]
            else:
                next_finish, next_level = None, None
            if next_finish is not None and next_finish <= now:
                # Finished during a switch-cost window (or exactly now):
                # consume it immediately, switching if it is better.
                if next_level > level:
                    level = next_level
                    now += switch_cost
                idx += 1
                continue
            finish_if_no_switch = now + remaining * rate_time
            if (
                next_finish is None
                or next_finish >= finish_if_no_switch
                or next_level <= level
            ):
                if next_finish is not None and next_finish < finish_if_no_switch:
                    # A compile finishes mid-call but is not better:
                    # consume the event and keep running.
                    done = (next_finish - now) / rate_time
                    remaining -= done
                    now = next_finish
                    idx += 1
                    continue
                now = finish_if_no_switch
                break
            # Better version lands mid-invocation: switch.
            done = (next_finish - now) / rate_time
            remaining -= done
            now = next_finish + switch_cost
            level = next_level
            idx += 1

        cursor[fname] = idx
        best_level[fname] = level if level > best else best
        total_exec += now - start
        calls_at_level[level] = calls_at_level.get(level, 0) + 1
        t = now

    return MakespanResult(
        makespan=t,
        compile_end=finishes[-1] if finishes else 0.0,
        total_bubble_time=total_bubble,
        total_exec_time=total_exec,
        calls_at_level=calls_at_level,
    )
