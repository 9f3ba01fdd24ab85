"""Graceful degradation of *planned* schedules, and the fault-aware
Figure 5/6/8 comparisons.

The reactive runtime (:class:`repro.vm.runtime.RuntimeSimulator`) owns a
clock, so it degrades requests in-line as they fail.  Planned schedules
(IAR, the single-level baselines) have no clock — the schedule exists
before the run starts — so degradation is a *rewrite*:
:func:`apply_to_schedule` expands every planned task into the attempts
of its degradation chain (:meth:`repro.faults.FaultInjector.degrade`,
the one chain every path runs; failed attempts occupy their compiler
thread but install no code), and the resulting :class:`FaultyPlan`
feeds the measurement engines through their ``task_compile_times`` /
``task_installs`` overrides.  The spec's ``backoff`` is a *delay* and a
plan has no clock to wait on, so the planned path ignores it (retries
queue back-to-back on the compiler threads).

:func:`scheme_comparison` and :func:`v8_comparison` compute one row of
Figures 5/6 and 8, with or without faults: a null spec means no
injector, so their fault-free rows are the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type, Union

# ``experiments`` imports this module: read its names at call time.
from ..analysis import experiments
from ..analysis.metrics import normalized
from ..core.bounds import lower_bound
from ..core.engine import resolve_engine
from ..core.iar import iar
from ..core.makespan import MakespanResult, simulate
from ..core.model import OCSPInstance
from ..core.schedule import CompileTask, Schedule
from ..core.single_level import base_level_schedule, optimizing_level_schedule
from ..vm.costbenefit import CostBenefitModel, EstimatedModel
from ..vm.jikes import run_jikes
from ..vm.v8 import run_v8
from .injector import FaultInjector, active_injector
from .spec import FaultSpec

__all__ = [
    "FaultyPlan",
    "apply_to_schedule",
    "simulate_with_faults",
    "scheme_comparison",
    "v8_comparison",
]

FaultsLike = Union[FaultInjector, FaultSpec, str]


def _as_injector(faults: Optional[FaultsLike]) -> FaultInjector:
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults or "")


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
        """Plain-data counters (JSON-ready), under the keys of
        :meth:`repro.faults.FaultInjector.summary`."""
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

    Each planned task runs :meth:`FaultInjector.degrade` against the
    level its function has installed so far in this plan, and every
    attempt becomes a task of the plan.  Decision keys are
    ``(function, level, attempt)``, so the verdicts match the reactive
    runtime's for identical requests.

    The injector's tallies advance by exactly the counts recorded in
    the returned plan (one injector may serve several plans; the plan
    carries its own deltas).
    """
    injector = _as_injector(injector)
    profiles = instance.profiles
    tasks: List[CompileTask] = []
    compile_times: List[float] = []
    installs: List[bool] = []
    achieved: Dict[str, int] = {}
    before = dict(injector.tally)
    wasted_before = injector.wasted_compile_time

    for task in schedule:
        fname = task.function
        attempts, _ = injector.degrade(
            fname,
            profiles[fname].compile_times,
            task.level,
            achieved.get(fname, -1),
        )
        for lvl, _, c, failed in attempts:
            tasks.append(CompileTask(fname, lvl))
            compile_times.append(c)
            installs.append(not failed)
            if not failed:
                achieved[fname] = lvl

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
    faults: Optional[FaultsLike],
    compile_threads: int = 1,
    record_timeline: bool = False,
    validate: bool = True,
    engine: Optional[str] = None,
    metrics=None,
    tracer=None,
) -> Tuple[MakespanResult, FaultyPlan]:
    """Degrade ``schedule`` under ``faults`` and measure the result.

    Args:
        instance: the workload (the *true* cost tables — misprediction
            only affects what a scheduler planned with, never what the
            simulator charges).
        schedule: the intended (pre-fault) schedule.
        faults: ``None``, a :class:`FaultInjector`, :class:`FaultSpec`,
            or spec string.
        compile_threads: compiler threads.
        record_timeline: keep per-task/per-call timings.
        validate: validate the *intended* schedule first (the degraded
            plan is by construction simulatable but not a valid
            monotone schedule, so it is never validated).
        engine: ``"reference"`` (:func:`repro.core.makespan.simulate`)
            or ``"vector"`` (:class:`repro.core.vecsim.VectorSimulator`);
            both produce bitwise-identical numbers — including the
            degradation decisions, which happen before any engine runs.
            The plan is measured through
            :func:`~repro.core.makespan.simulate`, so ``None`` takes its
            default: the session default
            (:func:`repro.core.engine.set_default_engine` /
            ``$REPRO_ENGINE``), then ``"reference"``.
        metrics: optional metrics registry, passed to
            :func:`~repro.core.makespan.simulate` (its ``makespan.*``
            counters) and — when ``faults`` is not already an injector —
            the injector.
        tracer: optional :class:`repro.observability.Tracer` (or scope)
            for the measured timeline; failed attempts show as compile
            spans.

    Returns:
        ``(result, plan)``: the measured timings and the degraded plan
        that produced them.  No faults or a null spec takes the
        untouched clean path, so its result is bitwise equal to a
        fault-free run.
    """
    injector = active_injector(faults, metrics=metrics)
    if validate:
        schedule.validate(instance)
    if injector is None:
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
        task_compile_times=None if injector is None else plan.compile_times,
        task_installs=None if injector is None else plan.installs,
        tracer=tracer,
        metrics=metrics,
        engine=engine,
    )
    return result, plan


def _planned(projected, lb, injector, compile_threads, tracer, engine):
    """Normalized make-span of a planned schedule on ``projected``,
    degraded under ``injector``, traced in its own process group.

    ``makespan`` is the schedule's fault-free single-thread make-span
    when the caller already has it (IAR returns its own).  It stands in
    for the run when the run could change nothing: no fault can fire,
    no trace is recorded, and one compiler thread serves the schedule.
    """
    replay = not injector.null or tracer is not None or compile_threads != 1

    def span(
        schedule: Schedule, process: str, makespan: Optional[float] = None
    ) -> float:
        if makespan is None or replay:
            result, _ = simulate_with_faults(
                projected,
                schedule,
                injector,
                compile_threads=compile_threads,
                validate=False,
                engine=engine,
                tracer=None if tracer is None else tracer.scope(process),
            )
            makespan = result.makespan
        return normalized(makespan, lb)

    return span


def scheme_comparison(
    instance: OCSPInstance,
    model: Type[CostBenefitModel] = EstimatedModel,
    model_seed: int = 0,
    compile_threads: int = 1,
    tracer=None,
    faults: Optional[FaultsLike] = None,
) -> Dict[str, float]:
    """Normalized make-span of every scheme on one benchmark.

    Returns keys ``lower_bound`` (1.0 by construction), ``iar``,
    ``default`` (Jikes RVM scheme), ``base_level``, ``optimizing_level``
    — the five bars of Figures 5/6.  All schemes run on the two-level
    projection chosen by the cost-benefit model (see
    :func:`repro.analysis.experiments.project_to_model_levels`) and
    normalize against its clean lower bound, so under faults the row
    reads as "how far faults push each scheme from the fault-free
    limit".

    Args:
        instance: the benchmark.
        model: the cost-benefit model class (:class:`EstimatedModel`
            for Figure 5, :class:`OracleModel` for Figure 6), built as
            ``model(instance, seed=model_seed)``.  The projection, its
            lower bound and the clean IAR schedule come from its plan
            (:func:`repro.analysis.experiments.model_plan`), which a
            run shares between drivers and fault rates.
        model_seed: seed of the cost-benefit model.
        compile_threads: compiler threads for every scheme.
        tracer: optional :class:`repro.observability.Tracer`; each
            scheme's run lands in its own process group (``iar``,
            ``jikes``, ``base_level``, ``optimizing_level``) so one
            trace file shows the four timelines side by side.
        faults: optional injector or spec.  The planned schemes plan
            against its :meth:`~repro.faults.FaultInjector.scheduler_view`
            (the mispredicted cost table) and degrade through
            :func:`simulate_with_faults`; the reactive default scheme
            runs with the injector in-line.  An injector's tally then
            holds every fault of the four runs.
    """
    injector = _as_injector(faults)
    engine = resolve_engine()
    plan, projected = experiments.model_plan(instance, model, model_seed)
    lb = plan.lower_bound
    planned = _planned(projected, lb, injector, compile_threads, tracer, engine)
    high = {
        fname: projected.profiles[fname].num_levels - 1
        for fname in projected.called_functions
    }
    # What the schedulers believe the costs are; the simulators keep
    # charging ``projected`` (the truth).  Only an active injector
    # mispredicts, so a make-span IAR took on another view never
    # stands in for a run.
    view = injector.scheduler_view(projected)
    iar_result = plan.iar if view is projected else iar(view, engine=engine)
    # The runs go in figure order, which fixes the order of the trace
    # and of the injector's wasted-time sum.
    iar_span = planned(iar_result.schedule, "iar", iar_result.makespan)
    default_result = run_jikes(
        projected,
        model=model(view, seed=model_seed),
        compile_threads=compile_threads,
        tracer=None if tracer is None else tracer.scope("jikes"),
        faults=injector,
    )
    return {
        "lower_bound": 1.0,
        "iar": iar_span,
        "default": normalized(default_result.makespan, lb),
        "base_level": planned(base_level_schedule(projected), "base_level"),
        "optimizing_level": planned(
            optimizing_level_schedule(projected, levels=high), "optimizing_level"
        ),
    }


def v8_comparison(
    instance: OCSPInstance,
    levels: Tuple[int, int] = (0, 1),
    tracer=None,
    faults: Optional[FaultsLike] = None,
) -> Dict[str, float]:
    """Figure 8's row: the V8 scheme as ``default`` beside IAR and the
    single-level baselines, on the two-level projection ``levels``.

    The lower bound is recomputed for the projected instance, which is
    why all gaps shrink relative to Figure 5.  ``tracer`` and
    ``faults`` work as in :func:`scheme_comparison` (the runtime's
    process group is ``v8``).
    """
    injector = _as_injector(faults)
    engine = resolve_engine()
    low, high = levels
    projected = instance.restricted_to_levels(
        {fname: [low, high] for fname in instance.profiles}
    )
    lb = lower_bound(projected)
    planned = _planned(projected, lb, injector, 1, tracer, engine)
    v8_result = run_v8(
        projected,
        levels=(0, 1),
        tracer=None if tracer is None else tracer.scope("v8"),
        faults=injector,
    )
    iar_result = iar(injector.scheduler_view(projected), engine=engine)
    return {
        "lower_bound": 1.0,
        "iar": planned(iar_result.schedule, "iar", iar_result.makespan),
        "default": normalized(v8_result.makespan, lb),
        "base_level": planned(base_level_schedule(projected), "base_level"),
        "optimizing_level": planned(
            optimizing_level_schedule(projected), "optimizing_level"
        ),
    }
