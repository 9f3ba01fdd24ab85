"""The IAR (Init–Append–Replace) scheduling algorithm (Section 5.1, Figure 3).

IAR approximates optimal compilation schedules in ``O(N + M log M)`` time
(``N`` = call-sequence length, ``M`` = distinct functions).  The four steps:

1. **Init** — schedule the *low*-level compilation of every function in
   order of first appearance.  This minimizes bubbles: cheap compiles make
   code available as early as possible.
2. **Append & Replace** — classify each function by two formulas:

   * Formula 1: if ``ch + n*eh > cl + n*el`` the high level is not
     beneficial at all → category **O** (no recompilation).
   * Formula 2: otherwise, with ``n1`` = calls during the initial
     compilation phase, if ``ch - cl > K * n1 * (el - eh)`` the high
     compile is too expensive to pay early → category **A**: append its
     high-level compile after the initial phase (A sorted by ascending
     ``ch`` so costly recompiles don't delay cheap ones).  Else →
     category **R**: replace the low compile with the high compile in
     the initial phase.
3. **Fill slack through replacement** — where the gap between a
   function's first compile finishing and its first invocation (its
   *slack*) can absorb the extra compile time, upgrade the initial
   low-level compile to the high level without adding bubbles; a later
   appended high compile of that function is deleted.
4. **Append more to fill the ending gap** — if compilation finishes
   before execution does, append high-level compiles of still-low
   functions (most future calls first) into the gap.

For JITs with more than two levels, each function's two candidate levels
are its *most responsive* level (0) and its *most cost-effective* level
(Section 5.1); callers may override the latter with a cost-benefit
model's choices via ``high_levels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .model import OCSPInstance, _left_sum
from .schedule import CompileTask, Schedule

__all__ = ["IARParams", "IARResult", "iar", "iar_schedule", "DEFAULT_K"]

DEFAULT_K = 5.0
"""The paper's Formula 2 constant; any value in [3, 10] behaves similarly
(Section 5.1), which ``benchmarks/bench_ablation_K.py`` verifies."""


APPEND_ORDERS = ("compile_time", "benefit", "hotness", "first_call")
GAP_PRIORITIES = ("remaining_calls", "benefit_rate", "compile_time")


@dataclass(frozen=True)
class IARParams:
    """Tunable knobs of the IAR algorithm.

    The paper reports trying several prioritizations for the append and
    gap-fill steps and finding the simple ones sufficient ("they do not
    outperform the simple heuristics Figure 3 shows");
    ``benchmarks/bench_ablation_iar_variants.py`` re-runs that search.

    Attributes:
        k: Formula 2's ``K`` constant.
        refine_slack: run step 3 (slack-filling replacements); its
            result is kept only when the finished schedule simulates no
            longer than without it.
        fill_gap: run step 4 (ending-gap appends).
        append_order: ordering of step 2's appended high compiles —
            ``"compile_time"`` (the paper's ascending ``ch``),
            ``"benefit"`` (descending total saving), ``"hotness"``
            (descending call count), or ``"first_call"`` (program
            order).
        gap_priority: ordering of step 4's gap candidates —
            ``"remaining_calls"`` (the paper's choice),
            ``"benefit_rate"`` (saving per compile microsecond), or
            ``"compile_time"`` (cheapest first).
    """

    k: float = DEFAULT_K
    refine_slack: bool = True
    fill_gap: bool = True
    append_order: str = "compile_time"
    gap_priority: str = "remaining_calls"

    def __post_init__(self) -> None:
        if self.append_order not in APPEND_ORDERS:
            raise ValueError(
                f"append_order must be one of {APPEND_ORDERS}, "
                f"got {self.append_order!r}"
            )
        if self.gap_priority not in GAP_PRIORITIES:
            raise ValueError(
                f"gap_priority must be one of {GAP_PRIORITIES}, "
                f"got {self.gap_priority!r}"
            )


@dataclass(frozen=True)
class _FunctionInfo:
    """Per-function data IAR works with (two-level projection)."""

    name: str
    low: int
    high: Optional[int]  # None when no distinct beneficial high level exists
    cl: float
    ch: float
    el: float
    eh: float
    n: int


@dataclass(frozen=True)
class IARResult:
    """Schedule plus diagnostics about how IAR built it.

    Attributes:
        schedule: the final compilation schedule.
        categories: function → ``"A"``, ``"R"`` or ``"O"``.
        slack_upgrades: functions upgraded in place by step 3.
        gap_appends: functions whose high compile step 4 appended.
        high_level: the high candidate level chosen per function.
        makespan: the schedule's single-thread make-span on the
            instance IAR planned with, from IAR's own engine (bitwise
            equal to :func:`~repro.core.makespan.simulate` on either
            engine).
    """

    schedule: Schedule
    categories: Dict[str, str]
    slack_upgrades: Tuple[str, ...]
    gap_appends: Tuple[str, ...]
    high_level: Dict[str, int]
    makespan: float


def _function_infos(
    instance: OCSPInstance, high_levels: Optional[Mapping[str, int]]
) -> Dict[str, _FunctionInfo]:
    infos: Dict[str, _FunctionInfo] = {}
    for fname in instance.called_functions:
        prof = instance.profiles[fname]
        n = instance.call_count(fname)
        low = prof.most_responsive_level
        if high_levels is not None and fname in high_levels:
            high: Optional[int] = high_levels[fname]
            if high is not None and not 0 <= high < prof.num_levels:
                raise ValueError(
                    f"high level {high} out of range for {fname!r}"
                )
        elif prof.num_levels == 1:
            high = None
        else:
            # The high candidate is the best level *above* the most
            # responsive one (for a 2-level JIT, simply "the high
            # level").  Formula 1 then decides whether scheduling it is
            # worthwhile at all; even when it is not, step 4 may still
            # compile it with free capacity in the ending gap.
            high = min(
                range(1, prof.num_levels),
                key=lambda j: (prof.total_cost(j, n), -j),
            )
        if high is not None and high <= low:
            high = None
        infos[fname] = _FunctionInfo(
            name=fname,
            low=low,
            high=high,
            cl=prof.compile_times[low],
            ch=prof.compile_times[high] if high is not None else prof.compile_times[low],
            el=prof.exec_times[low],
            eh=prof.exec_times[high] if high is not None else prof.exec_times[low],
            n=n,
        )
    return infos


def iar(
    instance: OCSPInstance,
    params: IARParams = IARParams(),
    high_levels: Optional[Mapping[str, int]] = None,
    metrics=None,
    engine: Optional[str] = None,
) -> IARResult:
    """Run the IAR algorithm and return the schedule with diagnostics.

    Args:
        instance: the OCSP instance to schedule.
        params: algorithm knobs (see :class:`IARParams`).
        high_levels: optional per-function override of the high candidate
            level (e.g. the choice of a runtime's cost-benefit model, as
            the paper does with Jikes RVM's model in Section 6.2.1).
        metrics: optional
            :class:`repro.observability.MetricsRegistry`; when given,
            per-step counters (``iar.category.*``, ``iar.slack_upgrades``,
            ``iar.gap_appends``, ``iar.step3_reverted``) record how the
            schedule was built, and the run's engine records its work
            counters (``vecsim.*`` on the vector engine).
        engine: make-span engine for the trace passes and verification
            simulations — ``"vector"`` (the default) or
            ``"reference"``; both walk identical schedules (the engines
            are bitwise-exact twins).  ``None`` defers to the session
            default (:func:`repro.core.engine.set_default_engine` /
            ``$REPRO_ENGINE``), then to ``"vector"``.
    """
    from .engine import make_simulator

    infos = _function_infos(instance, high_levels)
    order = instance.called_functions  # first-appearance order
    # One engine serves every trace pass and verification simulation in
    # this run.
    fs = make_simulator(instance, engine, metrics=metrics)

    # ------------------------------------------------------------ step 1
    init_tasks: List[CompileTask] = [
        CompileTask(fname, infos[fname].low) for fname in order
    ]
    init_schedule = Schedule(tuple(init_tasks))
    t_init = _left_sum(infos[fname].cl for fname in order)
    _first, calls_during_init, _after, _end = fs.trace_stats(
        init_schedule, before_time=t_init
    )

    # ------------------------------------------------------------ step 2
    categories: Dict[str, str] = {}
    append_set: List[str] = []
    replace_set: List[str] = []
    for fname in order:
        info = infos[fname]
        if info.high is None or info.ch + info.n * info.eh > info.cl + info.n * info.el:
            categories[fname] = "O"
            continue
        n1 = calls_during_init.get(fname, 0)
        if info.ch - info.cl > params.k * n1 * (info.el - info.eh):
            categories[fname] = "A"
            append_set.append(fname)
        else:
            categories[fname] = "R"
            replace_set.append(fname)

    position = {fname: i for i, fname in enumerate(order)}
    tasks = list(init_tasks)
    for fname in replace_set:
        info = infos[fname]
        tasks[position[fname]] = CompileTask(fname, info.high)
    append_set.sort(key=_append_key(instance, infos, position, params.append_order))
    tasks.extend(CompileTask(f, infos[f].high) for f in append_set)
    schedule = Schedule(tuple(tasks))

    # One trace pass over the step-2 schedule serves both step 3 (its
    # first-call starts) and step 4 (the calls after its compile phase).
    step2_stats = None
    if params.refine_slack or params.fill_gap:
        step2_stats = fs.trace_stats(
            schedule, after_time=schedule.total_compile_time(instance)
        )

    # ------------------------------------------------------------ step 3
    refined: Optional[Tuple[Schedule, List[str]]] = None
    if params.refine_slack:
        refined = _fill_slack(instance, infos, order, schedule, step2_stats[0])

    # ------------------------------------------------------------ step 4
    def _finish(sched: Schedule, stats=None) -> Tuple[Schedule, List[str]]:
        if params.fill_gap:
            return _fill_ending_gap(
                instance, infos, sched, params.gap_priority, fs, stats
            )
        return sched, []

    schedule, gap_appends = _finish(schedule, step2_stats)
    slack_upgrades: List[str] = []
    if refined is None:
        makespan = fs.evaluate(schedule).makespan
    else:
        cand_schedule, cand_appends = _finish(refined[0])
        # The conservative slack test ignores the execution-side
        # speed-up shifting calls earlier and its interaction with
        # step 4's gap capacity, so compare *finished* schedules.
        makespan = fs.evaluate(schedule).makespan
        cand_span = fs.evaluate(cand_schedule).makespan
        if cand_span <= makespan:
            schedule, gap_appends = cand_schedule, cand_appends
            slack_upgrades = refined[1]
            makespan = cand_span
        elif metrics is not None:
            metrics.counter("iar.step3_reverted").inc()

    if metrics is not None:
        for cat in categories.values():
            metrics.counter(f"iar.category.{cat}").inc()
        metrics.counter("iar.slack_upgrades").inc(len(slack_upgrades))
        metrics.counter("iar.gap_appends").inc(len(gap_appends))

    return IARResult(
        schedule=schedule,
        categories=categories,
        slack_upgrades=tuple(slack_upgrades),
        gap_appends=tuple(gap_appends),
        high_level={f: i.high for f, i in infos.items() if i.high is not None},
        makespan=makespan,
    )


def _append_key(
    instance: OCSPInstance,
    infos: Dict[str, _FunctionInfo],
    position: Dict[str, int],
    append_order: str,
):
    """Sort key for step 2's appended high compiles."""
    if append_order == "compile_time":
        return lambda f: (infos[f].ch, f)
    if append_order == "benefit":
        return lambda f: (-infos[f].n * (infos[f].el - infos[f].eh), f)
    if append_order == "hotness":
        return lambda f: (-infos[f].n, f)
    # "first_call": program order of first appearance.
    return lambda f: (position[f], f)


def _gap_key(infos: Dict[str, _FunctionInfo], calls_after, gap_priority: str):
    """Sort key for step 4's gap candidates."""
    if gap_priority == "remaining_calls":
        return lambda f: (-calls_after.get(f, 0), infos[f].ch, f)
    if gap_priority == "benefit_rate":
        return lambda f: (
            -calls_after.get(f, 0) * (infos[f].el - infos[f].eh) / infos[f].ch
            if infos[f].ch > 0
            else float("-inf"),
            f,
        )
    # "compile_time": cheapest compiles first.
    return lambda f: (infos[f].ch, f)


def _fill_slack(
    instance: OCSPInstance,
    infos: Dict[str, _FunctionInfo],
    order: List[str],
    schedule: Schedule,
    first_start: Dict[str, float],
) -> Optional[Tuple[Schedule, List[str]]]:
    """Step 3: upgrade initial low compiles where slack absorbs the cost.

    A *slack* is the time between the finish of a function's first
    compilation and its first invocation (``first_start``, from the
    trace pass over ``schedule``).  Upgrading the compile at position
    ``p`` from ``cl`` to ``ch`` delays every later compile by
    ``ch - cl``; the upgrade is safe (adds no bubble) when the minimum
    remaining slack from ``p`` onwards still covers the accumulated
    delay.  The conservative test ignores that faster execution can
    shift calls earlier, so the caller verifies the finished schedule
    against the unrefined one and keeps the better.
    """
    m = len(order)

    # Finish time of each initial compile (single compile thread).
    finish = 0.0
    init_finish: List[float] = []
    for i, fname in enumerate(order):
        finish += instance.profiles[fname].compile_times[schedule[i].level]
        init_finish.append(finish)

    slack = [first_start[order[i]] - init_finish[i] for i in range(m)]
    # suffix_min[i] = min(slack[i:]) over the *initial* segment.
    suffix_min = [0.0] * m
    running = float("inf")
    for i in range(m - 1, -1, -1):
        running = min(running, slack[i])
        suffix_min[i] = running

    tasks = list(schedule.tasks)
    upgraded: List[str] = []
    delay = 0.0
    for i, fname in enumerate(order):
        info = infos[fname]
        if info.high is None or tasks[i].level != info.low:
            continue  # already high (R member) or nothing to upgrade to
        if info.eh >= info.el:
            continue
        extra = info.ch - info.cl
        if extra <= 0:
            continue
        if suffix_min[i] - delay >= extra:
            tasks[i] = CompileTask(fname, info.high)
            delay += extra
            upgraded.append(fname)

    if not upgraded:
        return None

    # Delete the appended high compile of upgraded functions, if any.
    upgraded_set = set(upgraded)
    new_tasks = tasks[:m] + [
        t
        for t in tasks[m:]
        if not (t.function in upgraded_set and t.level == infos[t.function].high)
    ]
    return Schedule(tuple(new_tasks)), upgraded


def _fill_ending_gap(
    instance: OCSPInstance,
    infos: Dict[str, _FunctionInfo],
    schedule: Schedule,
    gap_priority: str,
    fs,
    stats=None,
) -> Tuple[Schedule, List[str]]:
    """Step 4: append high compiles into the compile/exec ending gap.

    ``Tgap`` is the time between the end of all compilations and the end
    of all executions.  Functions still compiled at the low level only
    are appended (those with the most remaining calls first) while their
    compile times fit in the gap.  Appended tasks run strictly after the
    existing ones, so they can only accelerate remaining calls — never
    add bubbles.  ``stats`` is the schedule's trace pass with
    ``after_time`` at its compile end, when the caller already has it.
    """
    compile_end = schedule.total_compile_time(instance)
    if stats is None:
        stats = fs.trace_stats(schedule, after_time=compile_end)
    _first, _before, calls_after, exec_end = stats
    tgap = exec_end - compile_end
    if tgap <= 0:
        return schedule, []

    highest: Dict[str, int] = {}
    for task in schedule:
        prev = highest.get(task.function, -1)
        if task.level > prev:
            highest[task.function] = task.level

    candidates = [
        fname
        for fname, info in infos.items()
        if info.high is not None
        and highest.get(fname, -1) == info.low
        and info.eh < info.el
        and calls_after.get(fname, 0) > 0
    ]
    candidates.sort(key=_gap_key(infos, calls_after, gap_priority))

    appended: List[str] = []
    used = 0.0
    tasks = list(schedule.tasks)
    for fname in candidates:
        ch = infos[fname].ch
        if used + ch > tgap:
            continue
        used += ch
        tasks.append(CompileTask(fname, infos[fname].high))
        appended.append(fname)
    if not appended:
        return schedule, []
    return Schedule(tuple(tasks)), appended


def iar_schedule(
    instance: OCSPInstance,
    k: float = DEFAULT_K,
    high_levels: Optional[Mapping[str, int]] = None,
    engine: Optional[str] = None,
) -> Schedule:
    """Convenience wrapper returning only the IAR schedule."""
    return iar(
        instance, IARParams(k=k), high_levels=high_levels, engine=engine
    ).schedule
