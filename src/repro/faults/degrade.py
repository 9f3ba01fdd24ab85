"""Graceful degradation of *planned* schedules under fault injection.

The reactive runtime (:class:`repro.vm.runtime.RuntimeSimulator`) owns a
clock, so it degrades requests in-line as they fail.  Planned schedules
(IAR, the single-level baselines) have no clock — the schedule exists
before the run starts — so degradation is a *rewrite*:
:func:`apply_to_schedule` expands every planned task into its attempt
chain (failed attempts occupy their compiler thread but install no
code), and the resulting :class:`FaultyPlan` feeds the measurement
engines through their ``task_compile_times`` / ``task_installs``
overrides.

The chain mirrors the runtime's exactly — same decision keys
``(function, level, attempt)``, same retry-one-level-lower policy, same
guaranteed level-0 fail-safe on a first encounter — so a fault verdict
is identical no matter which engine asks.  The one deliberate
difference: the spec's ``backoff`` is a *delay* and a plan has no clock
to wait on, so the planned path ignores it (retries queue back-to-back
on the compiler threads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.bounds import lower_bound
from ..core.iar import IARParams, iar
from ..core.makespan import MakespanResult, simulate
from ..core.model import OCSPInstance
from ..core.schedule import CompileTask, Schedule
from ..core.single_level import base_level_schedule, optimizing_level_schedule
from ..vm.costbenefit import EstimatedModel
from ..vm.jikes import run_jikes
from ..vm.v8 import run_v8
from .injector import FaultInjector
from .spec import FaultSpec

__all__ = [
    "FaultyPlan",
    "apply_to_schedule",
    "simulate_with_faults",
    "faulty_scheme_comparison",
    "faulty_v8_comparison",
]

FaultsLike = Union[FaultInjector, FaultSpec, str]


def _as_injector(faults: FaultsLike, metrics=None) -> FaultInjector:
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults, metrics=metrics)


@dataclass(frozen=True)
class FaultyPlan:
    """A planned schedule after fault injection and degradation.

    Attributes:
        tasks: every compile *attempt*, in dispatch order — including
            the failed ones (they cost thread time).
        compile_times: per-attempt charged compile time (the profile's
            time, times the stall factor when the attempt stalled).
        installs: per-attempt install flag; ``False`` marks a failed
            attempt that published no code.
        failures: failed compile attempts in this plan.
        retries: attempts retried at a lower level.
        fallbacks: requests abandoned at the function's current tier.
        forced_installs: guaranteed level-0 fail-safe compiles taken
            after a first-encounter chain exhausted its retries.
        stalls: attempts that ran on a stalled compiler thread.
        wasted_compile_time: thread time burned by failed attempts.
    """

    tasks: Schedule
    compile_times: Tuple[float, ...]
    installs: Tuple[bool, ...]
    failures: int = 0
    retries: int = 0
    fallbacks: int = 0
    forced_installs: int = 0
    stalls: int = 0
    wasted_compile_time: float = 0.0

    @property
    def degraded(self) -> bool:
        """True when any fault fired on this plan."""
        return (
            self.failures > 0
            or self.stalls > 0
            or self.fallbacks > 0
        )

    def summary(self) -> Dict[str, object]:
        """Plain-data counters (JSON-ready), mirroring
        :meth:`repro.faults.FaultInjector.summary` keys."""
        return {
            "compile_failures": self.failures,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "forced_installs": self.forced_installs,
            "stalls": self.stalls,
            "wasted_compile_time": self.wasted_compile_time,
        }


def apply_to_schedule(
    instance: OCSPInstance,
    schedule: Schedule,
    injector: FaultsLike,
) -> FaultyPlan:
    """Expand ``schedule`` into its degraded attempt chains.

    Each planned task runs the same chain as the reactive runtime's
    :meth:`~repro.vm.runtime.RuntimeSimulator.enqueue` under faults:
    attempt the requested level; on failure retry one level lower, up
    to ``spec.retries`` times; a chain that runs out of retries falls
    back to the function's already-installed tier, except on a first
    encounter, where one guaranteed level-0 compile keeps the function
    runnable.  Decision keys are ``(function, level, attempt)``, so the
    verdicts match the runtime's for identical requests.

    The injector's tallies advance by exactly the counts recorded in
    the returned plan (one injector may serve several plans; the plan
    carries its own deltas).
    """
    injector = _as_injector(injector)
    spec = injector.spec
    profiles = instance.profiles
    tasks: List[CompileTask] = []
    compile_times: List[float] = []
    installs: List[bool] = []
    achieved: Dict[str, int] = {}
    before = dict(injector.tally)
    wasted_before = injector.wasted_compile_time

    for task in schedule:
        fname = task.function
        prof = profiles[fname]
        must_install = fname not in achieved
        cur = achieved.get(fname, -1)
        lvl = task.level
        attempt = 1
        while True:
            if not must_install and lvl <= cur:
                # Degraded below the installed tier: keep running there.
                injector.note_fallback()
                break
            factor = injector.compile_time_factor(fname, lvl, attempt)
            c = prof.compile_times[lvl]
            if factor != 1.0:
                c *= factor
            guaranteed = must_install and attempt > spec.retries and lvl == 0
            failed = not guaranteed and injector.compile_fails(
                fname, lvl, attempt
            )
            tasks.append(CompileTask(fname, lvl))
            compile_times.append(c)
            installs.append(not failed)
            if not failed:
                if must_install and attempt > spec.retries:
                    injector.note_forced_install()
                achieved[fname] = lvl
                break
            injector.note_wasted(c)
            if attempt > spec.retries and not must_install:
                injector.note_fallback()
                break
            if attempt <= spec.retries:
                injector.note_retry()
                lvl = max(0, lvl - 1)
            else:
                lvl = 0  # next round is the guaranteed fail-safe
            attempt += 1

    delta = {key: injector.tally[key] - before[key] for key in before}
    return FaultyPlan(
        tasks=Schedule(tuple(tasks)),
        compile_times=tuple(compile_times),
        installs=tuple(installs),
        failures=delta["compile_failures"],
        retries=delta["retries"],
        fallbacks=delta["fallbacks"],
        forced_installs=delta["forced_installs"],
        stalls=delta["stalls"],
        wasted_compile_time=injector.wasted_compile_time - wasted_before,
    )


def simulate_with_faults(
    instance: OCSPInstance,
    schedule: Schedule,
    faults: FaultsLike,
    compile_threads: int = 1,
    record_timeline: bool = False,
    validate: bool = True,
    engine: Optional[str] = None,
    metrics=None,
) -> Tuple[MakespanResult, FaultyPlan]:
    """Degrade ``schedule`` under ``faults`` and measure the result.

    Args:
        instance: the workload (the *true* cost tables — misprediction
            only affects what a scheduler planned with, never what the
            simulator charges).
        schedule: the intended (pre-fault) schedule.
        faults: a :class:`FaultInjector`, :class:`FaultSpec`, or spec
            string.
        compile_threads: compiler threads.
        record_timeline: keep per-task/per-call timings.
        validate: validate the *intended* schedule first (the degraded
            plan is by construction simulatable but not a valid
            monotone schedule, so it is never validated).
        engine: ``"reference"`` (:func:`repro.core.makespan.simulate`)
            or ``"vector"`` (:class:`repro.core.vecsim.VectorSimulator`);
            both produce bitwise-identical numbers — including the
            degradation decisions, which happen before any engine runs.
            ``None`` defers to the session default
            (:func:`repro.core.engine.set_default_engine` /
            ``$REPRO_ENGINE``), then to ``"reference"``.  The plan is
            measured through :func:`~repro.core.makespan.simulate`, so
            non-reference engines come from the instance's engine cache.
        metrics: optional metrics registry, passed to
            :func:`~repro.core.makespan.simulate` (its ``makespan.*``
            counters) and — when ``faults`` is not already an injector —
            the injector.

    Returns:
        ``(result, plan)``: the measured timings and the degraded plan
        that produced them.  A null spec takes the untouched clean
        path, so its result is bitwise equal to a fault-free run.
    """
    from ..core.engine import resolve_engine

    engine = resolve_engine(engine, fallback="reference")
    injector = _as_injector(faults, metrics=metrics)
    if validate:
        schedule.validate(instance)
    if injector.null:
        plan = FaultyPlan(
            tasks=schedule,
            compile_times=tuple(
                instance.profiles[task.function].compile_times[task.level]
                for task in schedule
            ),
            installs=(True,) * len(schedule),
        )
    else:
        plan = apply_to_schedule(instance, schedule, injector)
    result = simulate(
        instance,
        plan.tasks,
        compile_threads=compile_threads,
        record_timeline=record_timeline,
        validate=False,
        task_compile_times=None if injector.null else plan.compile_times,
        task_installs=None if injector.null else plan.installs,
        metrics=metrics,
        engine=engine,
    )
    return result, plan


def faulty_scheme_comparison(
    instance: OCSPInstance,
    faults: FaultsLike,
    model_factory=EstimatedModel,
    compile_threads: int = 1,
    iar_params: IARParams = IARParams(),
    metrics=None,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The five bars of Figures 5/6 under fault injection.

    Planned schemes (IAR, the single-level baselines) plan against the
    injector's :meth:`~repro.faults.FaultInjector.scheduler_view` (the
    mispredicted cost table) and degrade through
    :func:`simulate_with_faults`; the reactive default scheme runs with
    the injector in-line.  Everything normalizes against the *clean*
    lower bound of the projection, so degradation curves read directly
    as "how far faults push each scheme from the fault-free limit".

    Returns:
        ``(row, summary)``: the figure row (``lower_bound``, ``iar``,
        ``default``, ``base_level``, ``optimizing_level``) and the
        injector's fault tally for this benchmark.  A null spec
        delegates to the clean
        :func:`repro.analysis.experiments.scheme_comparison`, making
        zero-rate results bitwise equal to the fault-free path.
    """
    from ..analysis import metrics as ametrics
    from ..analysis.experiments import (
        driver_engine,
        project_to_model_levels,
        scheme_comparison,
    )

    injector = _as_injector(faults, metrics=metrics)
    if injector.null:
        row = scheme_comparison(
            instance,
            model_factory=model_factory,
            compile_threads=compile_threads,
            iar_params=iar_params,
        )
        return row, injector.summary()

    model = model_factory(instance)
    projected = project_to_model_levels(instance, model)
    lb = lower_bound(projected)
    high = {
        fname: projected.profiles[fname].num_levels - 1
        for fname in projected.called_functions
    }
    # What the schedulers believe the costs are; the simulators keep
    # charging ``projected`` (the truth).
    view = injector.scheduler_view(projected)
    engine = driver_engine()

    iar_sched = iar(view, iar_params, high_levels=high, engine=engine).schedule
    iar_result, _ = simulate_with_faults(
        projected,
        iar_sched,
        injector,
        compile_threads=compile_threads,
        validate=False,
        engine=engine,
    )

    default_result = run_jikes(
        projected,
        model=model_factory(view),
        compile_threads=compile_threads,
        faults=injector,
    )

    base_result, _ = simulate_with_faults(
        projected,
        base_level_schedule(projected),
        injector,
        compile_threads=compile_threads,
        validate=False,
        engine=engine,
    )

    opt_result, _ = simulate_with_faults(
        projected,
        optimizing_level_schedule(projected, levels=high),
        injector,
        compile_threads=compile_threads,
        validate=False,
        engine=engine,
    )

    row = {
        "lower_bound": 1.0,
        "iar": ametrics.normalized(iar_result.makespan, lb),
        "default": ametrics.normalized(default_result.makespan, lb),
        "base_level": ametrics.normalized(base_result.makespan, lb),
        "optimizing_level": ametrics.normalized(opt_result.makespan, lb),
    }
    return row, injector.summary()


def faulty_v8_comparison(
    instance: OCSPInstance,
    faults: FaultsLike,
    levels: Tuple[int, int] = (0, 1),
    compile_threads: int = 1,
    metrics=None,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Figure 8's row (V8 scheme on a two-level projection) under
    faults; same structure as :func:`faulty_scheme_comparison`.

    A null spec needs no special path here: the runtime normalizes a
    null injector away and planned degradation never fires, so the
    numbers are bitwise equal to the clean Figure 8 computation.
    """
    from ..analysis import metrics as ametrics
    from ..analysis.experiments import driver_engine

    injector = _as_injector(faults, metrics=metrics)
    engine = driver_engine()
    low, high = levels
    projected = instance.restricted_to_levels(
        {fname: [low, high] for fname in instance.profiles}
    )
    lb = lower_bound(projected)
    view = injector.scheduler_view(projected)

    v8_result = run_v8(
        projected, levels=(0, 1), compile_threads=compile_threads,
        faults=injector,
    )
    iar_sched = iar(view, engine=engine).schedule
    iar_result, _ = simulate_with_faults(
        projected,
        iar_sched,
        injector,
        compile_threads=compile_threads,
        validate=False,
        engine=engine,
    )
    base_result, _ = simulate_with_faults(
        projected,
        base_level_schedule(projected),
        injector,
        compile_threads=compile_threads,
        validate=False,
        engine=engine,
    )
    opt_result, _ = simulate_with_faults(
        projected,
        optimizing_level_schedule(projected),
        injector,
        compile_threads=compile_threads,
        validate=False,
        engine=engine,
    )

    row = {
        "lower_bound": 1.0,
        "iar": ametrics.normalized(iar_result.makespan, lb),
        "default": ametrics.normalized(v8_result.makespan, lb),
        "base_level": ametrics.normalized(base_result.makespan, lb),
        "optimizing_level": ametrics.normalized(opt_result.makespan, lb),
    }
    return row, injector.summary()
