"""Experiment drivers — one per table/figure of the paper's evaluation.

Each driver takes a benchmark suite (``{name: OCSPInstance}``, normally
from :func:`repro.workloads.dacapo.load_suite`) and returns plain rows
(dicts) so tests, examples, and benchmarks share identical logic.  The
mapping to the paper:

=====================  ===============================================
driver                 reproduces
=====================  ===============================================
:func:`table1`         Table 1 (benchmark characteristics)
:func:`figure5`        Fig. 5 (schemes vs lower bound, default model)
:func:`figure6`        Fig. 6 (same, oracle cost-benefit model)
:func:`figure7`        Fig. 7 (concurrent-JIT speed-ups on IAR)
:func:`figure8`        Fig. 8 (V8 scheme, two levels)
:func:`table2`         Table 2 (IAR scheduling overhead)
:func:`astar_scaling`  Section 6.2.5 (A*-search feasibility)
=====================  ===============================================
"""

from __future__ import annotations

import functools
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..core.astar import AStarMemoryExceeded, astar_schedule
from ..store import (
    StoreCorruptionError,
    CODE_VERSION,
    ResultStore,
    RunState,
    UnitRecord,
    fingerprint_unit,
    load_runstate,
)
from ..core.bounds import lower_bound
from ..core.engine import resolve_engine
from ..core.iar import IARResult, iar
from ..core.makespan import simulate
from ..core.model import FunctionProfile, OCSPInstance
from ..core.single_level import base_level_schedule, optimizing_level_schedule
from ..faults.degrade import scheme_comparison, v8_comparison
from ..faults.injector import active_injector
from ..faults.sweep import fault_sweep_rows
from ..vm.costbenefit import CostBenefitModel, EstimatedModel, OracleModel
from ..vm.jikes import run_jikes
from ..vm.v8 import run_v8
from ..workloads import WorkloadSpec, generate
from ..workloads import dacapo
from . import metrics

__all__ = [
    "table1",
    "scheme_comparison",
    "v8_comparison",
    "grand_comparison",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "table2",
    "faults_sweep",
    "astar_scaling",
    "ModelPlan",
    "model_plan",
    "average_row",
    "PARALLEL_DRIVERS",
    "SuiteRun",
    "run_parallel",
]

Suite = Dict[str, OCSPInstance]


def table1(scale: float = 0.02) -> List[Dict[str, object]]:
    """Table 1: benchmark characteristics (paper vs generated)."""
    return dacapo.table1_rows(scale=scale)


def _model_levels(instance: OCSPInstance, model: CostBenefitModel) -> Dict[str, int]:
    """The cost-benefit model's suitable level per function (most
    cost-effective under the model's predicted hotness)."""
    return {
        fname: model.suitable_level(fname, instance.call_count(fname))
        for fname in instance.called_functions
    }


def project_to_model_levels(
    instance: OCSPInstance, model: CostBenefitModel
) -> OCSPInstance:
    """Two-level projection: level 0 plus the model's suitable level.

    The paper's Figures 5–7 operate on exactly two candidate levels per
    function — "the lowest level, and the most cost-effective level
    that is determined by the ... cost-benefit model" — and normalize
    against the lower bound *of that projection*.  That is why the
    oracle model of Figure 6 lowers the bound (it picks faster suitable
    levels) and why Figure 8's two-lowest-levels projection raises it.
    """
    levels = _model_levels(instance, model)
    return instance.restricted_to_levels(
        {fname: sorted({0, lvl}) for fname, lvl in levels.items()}
    )


@dataclass(frozen=True)
class ModelPlan:
    """One benchmark's plan under one cost-benefit model: the part of
    Figures 5–7, Table 2 and every fault-sweep rate that depends on the
    model alone.

    Attributes:
        profiles: the cost table of the model's two-level projection
            (:func:`project_to_model_levels`).  The plan keeps the
            table, not the projected instance, which holds its engine's
            per-call arrays once they are built; :meth:`project`
            rebuilds the instance around the benchmark's own trace.
        lower_bound: the projection's lower bound.
        iar: IAR's result on the projection, with IAR's own choice of
            high level (on two levels, each function's top level).
        iar_time_s: host seconds of that IAR call.  It is the first
            call on its fresh projection, so it includes building the
            engine and the projection's cost tables.
    """

    profiles: Mapping[str, FunctionProfile]
    lower_bound: float
    iar: IARResult
    iar_time_s: float

    def project(self, instance: OCSPInstance) -> OCSPInstance:
        """The projection of ``instance`` that this plan was made on."""
        return OCSPInstance(self.profiles, instance.calls, instance.name)


# Set for the length of one :func:`run_parallel` call: (instance id,
# model class, model seed) -> (instance, plan).  The entry holds the
# instance, so its id cannot be reused while the run lasts.  It opens
# before any fork pool starts, so each worker inherits it empty and
# plans alone.  ``None`` outside a run: each call then plans afresh.
_PLANS: Optional[Dict[Tuple[int, type, int], Tuple[OCSPInstance, ModelPlan]]] = None


def model_plan(
    instance: OCSPInstance,
    model: Type[CostBenefitModel] = EstimatedModel,
    model_seed: int = 0,
) -> Tuple[ModelPlan, OCSPInstance]:
    """The plan of ``instance`` under ``model(instance, seed=model_seed)``,
    and the projection it was made on.

    Within one :func:`run_parallel` call each (instance, model, seed)
    is planned once, and later calls only rebuild its projection.  A
    plan is stored once it is complete, so a unit that fails while
    planning leaves nothing behind for its retry.
    """
    key = (id(instance), model, model_seed)
    entry = None if _PLANS is None else _PLANS.get(key)
    if entry is not None:
        plan = entry[1]
        return plan, plan.project(instance)
    engine = resolve_engine()
    projected = project_to_model_levels(instance, model(instance, seed=model_seed))
    # IAR runs before anything else touches the projection, so its
    # timing includes the cost-table build, as Table 2 reports it.
    started = time.perf_counter()
    result = iar(projected, engine=engine)
    elapsed = time.perf_counter() - started
    plan = ModelPlan(projected.profiles, lower_bound(projected), result, elapsed)
    if _PLANS is not None:
        _PLANS[key] = (instance, plan)
    return plan, projected


def _figure_rows(
    suite: Suite,
    label: str,
    compare: Callable[..., Dict[str, float]],
    trace_dir: Optional[str],
    faults: Optional[str],
) -> List[Dict[str, object]]:
    """One ``compare(instance, tracer=..., faults=...)`` row per
    benchmark.  Under a non-null ``faults`` spec each benchmark gets a
    fresh injector and its row a ``"faults"`` tally; with ``trace_dir``
    each benchmark's runs go to ``{trace_dir}/{label}-{name}.trace.json``.
    """
    from ..observability import Tracer, write_chrome_trace

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    rows: List[Dict[str, object]] = []
    for name, instance in suite.items():
        tracer = Tracer() if trace_dir is not None else None
        injector = active_injector(faults)
        row: Dict[str, object] = {"benchmark": name}
        row.update(compare(instance, tracer=tracer, faults=injector))
        if injector is not None:
            row["faults"] = injector.summary()
        if tracer is not None:
            write_chrome_trace(
                tracer, os.path.join(trace_dir, f"{label}-{name}.trace.json")
            )
        rows.append(row)
    return rows


def figure5(
    suite: Suite,
    model_seed: int = 0,
    trace_dir: Optional[str] = None,
    faults: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Figure 5: normalized make-spans under the default (estimated)
    cost-benefit model.

    With ``trace_dir``, each benchmark's four scheme runs are dumped as
    ``figure5-<benchmark>.trace.json`` Chrome trace files.  With a
    non-null ``faults`` spec string, every scheme runs degraded under
    that spec (see :mod:`repro.faults`) and each row gains a
    ``"faults"`` tally.
    """
    compare = functools.partial(scheme_comparison, model_seed=model_seed)
    return _figure_rows(suite, "figure5", compare, trace_dir, faults)


def figure6(
    suite: Suite,
    trace_dir: Optional[str] = None,
    faults: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Figure 6: normalized make-spans under the oracle model."""
    compare = functools.partial(scheme_comparison, model=OracleModel)
    return _figure_rows(suite, "figure6", compare, trace_dir, faults)


def figure7(
    suite: Suite,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    model_seed: int = 0,
) -> List[Dict[str, object]]:
    """Figure 7: speed-up of the IAR schedule from concurrent JIT.

    The IAR task order is fixed; tasks are served by ``k`` compiler
    threads.  Speed-up is relative to the 1-thread make-span, with the
    default cost-benefit model, as in the paper.  The schedule and its
    1-thread make-span are Figure 5's (:func:`model_plan`).
    """
    engine = resolve_engine()
    rows: List[Dict[str, object]] = []
    for name, instance in suite.items():
        plan, projected = model_plan(instance, EstimatedModel, model_seed)
        sched = plan.iar.schedule
        base = plan.iar.makespan
        row: Dict[str, object] = {"benchmark": name}
        for k in core_counts:
            span = base if k == 1 else simulate(
                projected, sched, compile_threads=k, validate=False,
                engine=engine,
            ).makespan
            row[f"cores_{k}"] = metrics.speedup(base, span)
        rows.append(row)
    return rows


def figure8(
    suite: Suite,
    levels=(0, 1),
    trace_dir: Optional[str] = None,
    faults: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Figure 8: the V8 scheme, on two-level projections of the suite.

    The paper uses the lowest two Jikes levels as V8's low/high pair;
    the lower bound is recomputed for the projected (2-level) instance,
    which is why all gaps shrink relative to Figure 5.  ``trace_dir``
    and a non-null ``faults`` spec string work as in :func:`figure5`.
    """
    compare = functools.partial(v8_comparison, levels=levels)
    return _figure_rows(suite, "figure8", compare, trace_dir, faults)


def faults_sweep(
    suite: Suite,
    spec: str = "",
    rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4),
    dimension: str = "compile_fail",
    model_seed: int = 0,
) -> List[Dict[str, object]]:
    """Degradation curves: the Figure 5 comparison at several rates of
    one fault dimension (``repro faults sweep``).

    Thin wrapper over :func:`repro.faults.sweep.fault_sweep_rows`, so
    the process-pool runner finds it by driver name.
    """
    return fault_sweep_rows(
        suite,
        spec=spec,
        rates=tuple(rates),
        dimension=dimension,
        model_seed=model_seed,
    )


def table2(suite: Suite, model_seed: int = 0) -> List[Dict[str, object]]:
    """Table 2: wall-clock overhead of running IAR itself.

    ``percent_of_program`` compares the host seconds spent inside
    :func:`repro.core.iar.iar` against the benchmark's simulated
    make-span (virtual microseconds → seconds), matching the paper's
    "percentage over whole program time" column.  The timed call is
    the plan's (:func:`model_plan`): in a study, the run's one IAR call
    per benchmark, which Figures 5 and 7 share.  It is still the first
    call on its fresh projection, so it includes building IAR's engine
    and the projection's cost tables.
    """
    rows: List[Dict[str, object]] = []
    for name, instance in suite.items():
        plan, _ = model_plan(instance, EstimatedModel, model_seed)
        span_seconds = plan.iar.makespan / 1e6
        rows.append(
            {
                "benchmark": name,
                "iar_time_s": plan.iar_time_s,
                "program_time_s": span_seconds,
                "percent_of_program": 100.0 * plan.iar_time_s / span_seconds
                if span_seconds > 0
                else float("inf"),
            }
        )
    return rows


def _astar_instance(functions: int, calls: int = 50, seed: int = 7) -> OCSPInstance:
    """One instance of the A* table: two levels, ``functions`` unique
    functions, ``calls`` calls (the table's defaults)."""
    spec = WorkloadSpec(
        name=f"astar-m{functions}",
        num_functions=functions,
        num_calls=calls,
        num_levels=2,
        base_compile_us=200.0,
        mean_exec_us=50.0,
    )
    return generate(spec, seed=seed)


def astar_scaling(
    function_counts: Sequence[int] = (2, 3, 4, 5, 6, 7),
    calls_per_instance: int = 50,
    max_frontier: int = 200_000,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Section 6.2.5: A*-search feasibility versus instance size.

    Two-level instances with ``m`` unique functions and a fixed call
    count; reports nodes expanded and total path count on success, or
    the out-of-memory point (the paper's Java implementation dies past
    six functions with a 2 GB heap; our bound is the frontier size).
    """
    rows: List[Dict[str, object]] = []
    for m in function_counts:
        instance = _astar_instance(m, calls_per_instance, seed)
        row: Dict[str, object] = {"functions": m, "calls": instance.num_calls}
        try:
            result = astar_schedule(instance, max_frontier=max_frontier)
            row.update(
                {
                    "status": "optimal",
                    "nodes_expanded": result.nodes_expanded,
                    "paths_total": result.paths_total,
                    "makespan": result.makespan,
                }
            )
        except AStarMemoryExceeded as exc:
            row.update(
                {
                    "status": "out-of-memory",
                    "nodes_expanded": exc.nodes_expanded,
                    "paths_total": None,
                    "makespan": None,
                }
            )
        rows.append(row)
    return rows


def grand_comparison(
    instance: OCSPInstance,
    model: Type[CostBenefitModel] = EstimatedModel,
    model_seed: int = 0,
) -> Dict[str, float]:
    """Every scheduler in the library on one benchmark (extension).

    Beyond the paper's five bars, this adds the HotSpot-style tiered
    scheme and the static baseline policies, all on the projection of
    ``model(instance, seed=model_seed)`` (:func:`model_plan`) and
    normalized to its lower bound.
    """
    from ..core.baselines import (
        greedy_budget_schedule,
        hotness_first_schedule,
        ondemand_promotion_schedule,
    )
    from ..vm.hotspot import run_tiered

    plan, projected = model_plan(instance, model, model_seed)
    lb = plan.lower_bound

    def span_of(schedule) -> float:
        return simulate(projected, schedule, validate=False).makespan / lb

    row = {
        "lower_bound": 1.0,
        "iar": plan.iar.makespan / lb,
        "jikes": run_jikes(
            projected, model=model(projected, seed=model_seed)
        ).makespan / lb,
        "v8": run_v8(projected).makespan / lb,
        "tiered": run_tiered(projected, thresholds=(1, 100)).makespan / lb,
        "ondemand": span_of(ondemand_promotion_schedule(projected)),
        "hotness_first": span_of(hotness_first_schedule(projected)),
        "greedy_budget": span_of(greedy_budget_schedule(projected)),
        "base_level": span_of(base_level_schedule(projected)),
        "optimizing_level": span_of(
            optimizing_level_schedule(
                projected,
                levels={
                    f: projected.profiles[f].num_levels - 1
                    for f in projected.called_functions
                },
            )
        ),
    }
    return row


# ----------------------------------------------------------------------
# Fault-tolerant parallel experiment runner
# ----------------------------------------------------------------------
#
# Every figure/table driver above computes each benchmark's row
# independently, so a (driver, benchmark) pair is a natural unit of
# work: the suite fans out across processes and the rows reassemble in
# suite order, yielding results numerically identical to the serial
# path.  Units are treated as idempotent jobs, in the sense of the
# scheduling-at-scale literature: results live in a content-addressed
# :class:`repro.store.ResultStore`, progress is journaled per unit so a
# killed run resumes where it stopped, and worker failures — a raising
# driver, a hung worker, a worker killed by the OS — retry with
# exponential backoff instead of aborting the suite.

PARALLEL_DRIVERS: Dict[str, Callable[..., List[Dict[str, object]]]] = {}


def _parallel_driver(func):
    PARALLEL_DRIVERS[func.__name__] = func
    return func


for _driver in (figure5, figure6, figure7, figure8, table2, faults_sweep):
    _parallel_driver(_driver)


# Poll interval of the scheduling loop (retry release, timeout checks).
_POOL_TICK_S = 0.05
# A worker crash breaks the whole ProcessPoolExecutor; the runner
# rebuilds it and resumes.  Past this many rebuilds the pool is judged
# unusable and the remaining units fail (never falling back to in-
# process execution: the unit that keeps killing workers would then
# kill the caller).
_MAX_POOL_REBUILDS = 8


@dataclass(frozen=True)
class SuiteRun:
    """Outcome of :func:`run_parallel`.

    Attributes:
        rows: driver name → rows, in driver order then suite order —
            exactly what the serial driver would have returned, minus
            the rows of failed units.
        errors: one entry per failed (driver, benchmark) unit:
            ``{"driver", "benchmark", "error"}``.
        jobs: worker processes actually used (1 = serial).
        statuses: unit key (``"driver/benchmark"``) → final status:
            ``cached`` (served from the result store or the resume
            journal), ``computed`` (ran, first attempt), ``retried``
            (ran, after at least one failed attempt or pool rebuild),
            ``failed`` (attempts exhausted), or ``timed_out`` (attempts
            exhausted, last attempt exceeded the wall-clock budget).
        cache_hits: units served without recomputation (= the number of
            ``cached`` statuses); 0 when no store/journal was in play.
        cache_misses: units that had to be (re)computed despite a store
            or journal being available.
    """

    rows: Dict[str, List[Dict[str, object]]]
    errors: Tuple[Dict[str, str], ...]
    jobs: int
    statuses: Dict[str, str] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def status_counts(self) -> Dict[str, int]:
        """Histogram of per-unit statuses (for summaries and tests)."""
        counts: Dict[str, int] = {}
        for status in self.statuses.values():
            counts[status] = counts.get(status, 0) + 1
        return counts


class _UnitState:
    """Mutable bookkeeping for one (driver, benchmark) unit."""

    __slots__ = (
        "driver", "bench", "kwargs", "fingerprint",
        "attempts", "status", "rows", "error", "failure", "suspect",
    )

    def __init__(self, driver: str, bench: str, kwargs: Dict[str, object]):
        self.driver = driver
        self.bench = bench
        self.kwargs = kwargs
        self.fingerprint = ""
        self.attempts = 0
        self.status = "pending"
        self.rows: Optional[List[Dict[str, object]]] = None
        self.error: Optional[str] = None
        # Structured failure record (exception type, unit key, message,
        # traceback tail) journaled alongside the one-line ``error``.
        self.failure: Optional[Dict[str, object]] = None
        # Set when this unit was in flight during a pool breakage: the
        # crasher is indistinguishable from its victims, so all of them
        # are re-probed one at a time until exonerated (see
        # :func:`_execute_pool`).
        self.suspect = False

    @property
    def key(self) -> str:
        return f"{self.driver}/{self.bench}"


# Set (in the parent) right before a fork-context pool spawns its
# workers: forked children inherit the suite through copy-on-write
# memory, so work units travel as names only and the multi-hundred-MB
# instances are never pickled.  ``None`` outside a fork-pool window.
_FORK_SUITE: Optional[Suite] = None


def _failure_record(exc: BaseException, unit: str) -> Dict[str, object]:
    """A structured, journal-able description of one unit failure."""
    frames = traceback.extract_tb(exc.__traceback__)[-3:]
    return {
        "unit": unit,
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": [
            f"{frame.filename}:{frame.lineno} in {frame.name}"
            for frame in frames
        ],
    }


def _summarize(failure: Dict[str, object]) -> str:
    """The one-line ``error`` string for a failure record."""
    return f"{failure['type']}: {failure['message']}"


def _run_unit(unit):
    """One (driver, benchmark) work unit; exceptions become data.

    The caught exception travels back as a structured failure record
    (type, unit key, message, traceback tail), not a bare string —
    except store corruption, which is never the unit's fault and must
    abort the run rather than be charged as a per-unit failure.
    """
    driver_name, bench_name, instance, kwargs = unit
    if instance is None:  # fork path: read the inherited suite
        instance = _FORK_SUITE[bench_name]
    try:
        rows = PARALLEL_DRIVERS[driver_name]({bench_name: instance}, **kwargs)
        return driver_name, bench_name, rows, None
    except StoreCorruptionError:
        raise
    except Exception as exc:  # isolate the failing trace
        failure = _failure_record(exc, f"{driver_name}/{bench_name}")
        return driver_name, bench_name, [], failure


def _execute_serial(
    pending: List[_UnitState],
    suite: Suite,
    max_retries: int,
    retry_backoff: float,
    finalize: Callable[[_UnitState], None],
    metrics=None,
) -> None:
    """In-process execution with the same retry contract as the pool
    path (timeouts are not enforceable without a second process)."""
    for state in pending:
        while True:
            state.attempts += 1
            if metrics is not None:
                metrics.counter("runner.dispatched").inc()
            _, _, rows, failure = _run_unit(
                (state.driver, state.bench, suite[state.bench], state.kwargs)
            )
            if failure is None:
                state.rows = rows
                state.status = "computed" if state.attempts == 1 else "retried"
                break
            state.error = _summarize(failure)
            state.failure = failure
            if state.attempts > max_retries:
                state.status = "failed"
                break
            if metrics is not None:
                metrics.counter("runner.retries").inc()
            time.sleep(retry_backoff * (2 ** (state.attempts - 1)))
        finalize(state)


def _shutdown_pool(pool) -> None:
    """Tear a pool down even when a worker is stuck mid-task: cancel
    queued work, then terminate the worker processes (a hung task would
    otherwise pin its worker — and the caller — forever)."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except (OSError, RuntimeError):
        # A pool whose manager thread already died can raise while
        # draining its queues; the per-process terminate below is the
        # cleanup that actually matters.
        pass
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            # ProcessLookupError (an OSError): already gone.  ValueError:
            # already closed.  Anything else is a real bug — surface it.
            pass


def _execute_pool(
    pending: List[_UnitState],
    suite: Suite,
    jobs: int,
    timeout: Optional[float],
    max_retries: int,
    retry_backoff: float,
    finalize: Callable[[_UnitState], None],
    metrics=None,
) -> bool:
    """Run ``pending`` units on a process pool; ``False`` means no pool
    could be created at all (caller degrades to the serial path).

    Fault model:

    * a unit whose driver *raises* returns an error outcome and is
      retried with exponential backoff, then marked ``failed``;
    * a unit that runs past ``timeout`` wall-clock seconds is charged a
      timed-out attempt; its worker is reclaimed by rebuilding the pool
      (there is no portable way to kill one pool worker), and the unit
      is retried, then marked ``timed_out``;
    * a worker *process death* (OOM kill, segfault, ``os._exit``)
      breaks the whole executor with ``BrokenProcessPool``, for the
      crasher and every innocent in-flight unit alike.  Nobody is
      charged unless exactly one unit was in flight; instead all
      victims become *suspects* and are re-probed one at a time on the
      rebuilt pool, so the next breakage identifies its culprit
      unambiguously and innocents complete unharmed.  Completed units
      are never recomputed — ``finalize`` journals them the moment
      they finish.
    """
    global _FORK_SUITE
    try:
        import concurrent.futures as cf
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:
        return False

    use_fork = "fork" in multiprocessing.get_all_start_methods()
    # Fork workers inherit ``suite`` (and every imported module) via
    # copy-on-write, so units ship as names only.  Shipping the
    # instances themselves through the pickle pipe costs more than the
    # driver work saves.
    mp_context = multiprocessing.get_context("fork") if use_fork else None
    max_workers = min(jobs, len(pending))

    def payload(state: _UnitState):
        instance = None if use_fork else suite[state.bench]
        return (state.driver, state.bench, instance, state.kwargs)

    def make_pool():
        return cf.ProcessPoolExecutor(
            max_workers=max_workers, mp_context=mp_context
        )

    try:
        if use_fork:
            _FORK_SUITE = suite
        try:
            pool = make_pool()
        except (ImportError, OSError, PermissionError, BrokenProcessPool):
            # No usable multiprocessing (restricted sandbox, missing
            # /dev/shm, ...): degrade to the serial path.
            return False

        queue = deque(pending)
        retry_at: List[Tuple[float, _UnitState]] = []
        inflight: Dict[object, List] = {}  # future -> [state, started_at]
        rebuilds = 0

        def give_up(state: _UnitState, status: str, error: str) -> None:
            state.status = status
            state.error = error
            finalize(state)

        def charge_failure(
            state: _UnitState,
            error: str,
            exhausted_status: str,
            failure: Optional[Dict[str, object]] = None,
        ) -> None:
            """One attempt just failed: retry with backoff or give up."""
            state.error = error
            state.failure = failure if failure is not None else {
                "unit": state.key,
                "type": exhausted_status,
                "message": error,
                "traceback": [],
            }
            if state.attempts > max_retries:
                give_up(state, exhausted_status, error)
                return
            if metrics is not None:
                metrics.counter("runner.retries").inc()
            delay = retry_backoff * (2 ** (state.attempts - 1))
            retry_at.append((time.monotonic() + delay, state))

        while queue or retry_at or inflight:
            now = time.monotonic()
            if retry_at:
                due = [item for item in retry_at if item[0] <= now]
                if due:
                    retry_at = [item for item in retry_at if item[0] > now]
                    queue.extend(state for _, state in due)

            broken = False
            repool = False
            crash_victims: List[_UnitState] = []
            while queue:
                if any(state.suspect for state in queue):
                    # Quarantine: probe one suspect at a time, alone on
                    # the pool, so a repeat crash names its culprit.
                    if inflight:
                        break
                    probe = next(i for i, s in enumerate(queue) if s.suspect)
                    state = queue[probe]
                    del queue[probe]
                else:
                    state = queue.popleft()
                try:
                    future = pool.submit(_run_unit, payload(state))
                except (BrokenProcessPool, RuntimeError):
                    queue.appendleft(state)
                    broken = True
                    break
                if metrics is not None:
                    metrics.counter("runner.dispatched").inc()
                inflight[future] = [state, None]
                if state.suspect:
                    break  # nothing else rides along with a suspect

            if not broken and inflight:
                done, _ = cf.wait(
                    set(inflight),
                    timeout=_POOL_TICK_S,
                    return_when=cf.FIRST_COMPLETED,
                )
                for future in done:
                    state, _started = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        crash_victims.append(state)
                        continue
                    except cf.CancelledError:
                        queue.append(state)
                        continue
                    except StoreCorruptionError:
                        # Never a per-unit failure: a damaged store
                        # would silently poison every retry, so stop
                        # the run and name the entry.
                        _shutdown_pool(pool)
                        raise
                    except Exception as exc:
                        # Pool-layer infrastructure errors (pickling,
                        # transport) — the driver's own exceptions come
                        # back as data from _run_unit.
                        state.attempts += 1
                        charge_failure(
                            state,
                            f"{type(exc).__name__}: {exc}",
                            "failed",
                            _failure_record(exc, state.key),
                        )
                        continue
                    state.attempts += 1
                    state.suspect = False  # completed: exonerated
                    _, _, rows, failure = outcome
                    if failure is None:
                        state.rows = rows
                        state.status = (
                            "computed" if state.attempts == 1 else "retried"
                        )
                        finalize(state)
                    else:
                        charge_failure(
                            state, _summarize(failure), "failed", failure
                        )

                # Timeout accounting: the clock starts when a unit is
                # first *observed* executing (not when it was queued
                # behind other units).
                now = time.monotonic()
                for future, pair in list(inflight.items()):
                    state, started_at = pair
                    if started_at is None:
                        if future.running():
                            pair[1] = now
                    elif timeout is not None and now - started_at > timeout:
                        del inflight[future]
                        state.attempts += 1
                        charge_failure(
                            state,
                            f"unit exceeded the {timeout:.4g}s wall-clock "
                            "timeout",
                            "timed_out",
                        )
                        # The stuck worker can only be reclaimed by
                        # rebuilding the pool; the culprit is known, so
                        # other in-flight units requeue uncharged and
                        # unsuspected.
                        repool = True
            elif not broken and retry_at:
                # Nothing running or submittable: sleep until the next
                # retry comes due.
                next_due = min(due_time for due_time, _ in retry_at)
                time.sleep(
                    max(0.0, min(next_due - time.monotonic(), _POOL_TICK_S))
                )

            if broken or repool:
                rebuilds += 1
                if metrics is not None:
                    metrics.counter("runner.pool_rebuilds").inc()
                if broken:
                    victims = crash_victims + [
                        state for state, _ in inflight.values()
                    ]
                    inflight.clear()
                    if len(victims) == 1:
                        # Alone on the pool when it broke: guilty.
                        state = victims[0]
                        state.suspect = True
                        state.attempts += 1
                        charge_failure(
                            state,
                            "worker process died before returning a result "
                            "(BrokenProcessPool)",
                            "failed",
                        )
                    else:
                        # Crasher unknown: every victim requeues as a
                        # suspect, uncharged, to be probed one by one.
                        for state in victims:
                            state.suspect = True
                            queue.append(state)
                else:
                    # Timeout repool: in-flight survivors requeue
                    # uncharged.
                    for state, _ in inflight.values():
                        queue.append(state)
                    inflight.clear()
                _shutdown_pool(pool)
                survivors = list(queue) + [state for _, state in retry_at]
                if rebuilds > _MAX_POOL_REBUILDS:
                    for state in survivors:
                        give_up(
                            state,
                            "failed",
                            "process pool kept breaking "
                            f"({rebuilds} rebuilds); giving up",
                        )
                    queue.clear()
                    retry_at = []
                    return True
                try:
                    pool = make_pool()
                except (ImportError, OSError, PermissionError, BrokenProcessPool):
                    for state in survivors:
                        give_up(
                            state, "failed", "process pool could not be rebuilt"
                        )
                    queue.clear()
                    retry_at = []
                    return True

        _shutdown_pool(pool)
        return True
    finally:
        _FORK_SUITE = None


def run_parallel(
    suite: Suite,
    drivers: Sequence[str] = ("figure5", "figure6", "figure7", "figure8", "table2"),
    jobs: Optional[int] = None,
    driver_kwargs: Optional[Dict[str, Dict[str, object]]] = None,
    cache: Optional[Union[str, Path, ResultStore]] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.1,
    metrics=None,
) -> SuiteRun:
    """Run experiment drivers over a suite, fanning benchmarks out
    across processes, with caching, checkpointing, and fault tolerance.

    Args:
        suite: ``{benchmark: instance}`` (e.g. from
            :func:`repro.workloads.dacapo.load_suite`).
        drivers: names from :data:`PARALLEL_DRIVERS` to run.
        jobs: worker processes; ``None`` picks ``min(cpu_count, units)``
            and ``1`` runs serially (same code path, same isolation).
        driver_kwargs: optional per-driver keyword arguments (e.g.
            ``{"figure5": {"model_seed": 1}}``).
        cache: a :class:`repro.store.ResultStore` or a directory for
            one.  Units whose fingerprint is already in the store are
            served from it; newly computed rows are written back.
        checkpoint: path of the per-run journal.  Defaults to
            ``<cache>/runstate.jsonl`` when ``cache`` is given; with
            neither, no journal is written.
        resume: reuse completed units from an existing ``checkpoint``
            journal (fingerprints must still match — a changed input
            forces recomputation).
        timeout: per-unit wall-clock budget in seconds (enforced on the
            process-pool path only; the serial path cannot preempt).
        max_retries: failed/timed-out attempts retried per unit before
            the unit is marked ``failed``/``timed_out``.
        retry_backoff: base of the exponential retry delay
            (``retry_backoff * 2**(attempt-1)`` seconds).
        metrics: optional :class:`repro.observability.MetricsRegistry`;
            receives ``runner.units.*`` status counters,
            ``runner.retries``, ``runner.pool_rebuilds``, and
            ``store.{hits,misses,puts}``.

    Returns:
        A :class:`SuiteRun`; row ordering is deterministic (driver
        order, then suite insertion order) regardless of ``jobs``,
        retries, or cache state.

    Raises:
        KeyError: for an unknown driver name.
        StoreCorruptionError: a cache entry for a planned unit exists
            but is damaged (strict read — corruption aborts the run
            rather than being silently recomputed and re-journaled).
    """
    global _PLANS
    driver_kwargs = driver_kwargs or {}
    for name in drivers:
        if name not in PARALLEL_DRIVERS:
            raise KeyError(
                f"unknown driver {name!r}; available: "
                f"{sorted(PARALLEL_DRIVERS)}"
            )
    states = [
        _UnitState(driver, bench, driver_kwargs.get(driver, {}))
        for driver in drivers
        for bench in suite
    ]

    store: Optional[ResultStore] = None
    if cache is not None:
        store = cache if isinstance(cache, ResultStore) else ResultStore(cache)
    if checkpoint is None and store is not None:
        checkpoint = store.root / "runstate.jsonl"
    keyed = store is not None or checkpoint is not None
    if keyed:
        for state in states:
            state.fingerprint = fingerprint_unit(
                suite[state.bench],
                state.driver,
                state.kwargs,
                benchmark=state.bench,
            )

    store_hits_before = store.hits if store is not None else 0
    store_misses_before = store.misses if store is not None else 0
    store_puts_before = store.puts if store is not None else 0

    # Resolve units that need no computation: the resume journal first
    # (no store round-trip), then the content-addressed store.
    if resume and checkpoint is not None:
        previous = load_runstate(checkpoint)
        for state in states:
            record = previous.get(state.key)
            if (
                record is not None
                and record.resumable
                and record.fingerprint == state.fingerprint
            ):
                state.rows = record.rows
                state.status = "cached"
                state.attempts = record.attempts
    if store is not None:
        for state in states:
            if state.status != "pending":
                continue
            # Strict: a damaged entry raises StoreCorruptionError
            # (ValueError) instead of being silently recomputed — the
            # journal this run writes must not paper over a rotting
            # store.
            rows = store.get(state.fingerprint, strict=True)
            if rows is not None:
                state.rows = rows
                state.status = "cached"

    journal: Optional[RunState] = None
    if checkpoint is not None:
        journal = RunState(checkpoint)
        journal.begin({state.key: state.fingerprint for state in states})

    def finalize(state: _UnitState) -> None:
        """Journal + persist a unit the moment its status is final."""
        if metrics is not None:
            metrics.counter(f"runner.units.{state.status}").inc()
        if journal is not None:
            journal.record(
                UnitRecord(
                    state.key,
                    state.fingerprint,
                    state.status,
                    rows=state.rows,
                    error=state.error,
                    attempts=max(state.attempts, 1),
                    failure=state.failure,
                )
            )
        if store is not None and state.status in ("computed", "retried"):
            store.put(
                state.fingerprint,
                state.rows,
                driver=state.driver,
                benchmark=state.bench,
                code_version=CODE_VERSION,
            )

    used_jobs = 1
    _PLANS = {}
    try:
        for state in states:
            if state.status == "cached":
                finalize(state)
        pending = [state for state in states if state.status == "pending"]
        if pending:
            if jobs is None:
                try:
                    available = len(os.sched_getaffinity(0))
                except AttributeError:  # macOS / Windows
                    available = os.cpu_count() or 1
                jobs = min(available, len(pending))
            jobs = max(1, int(jobs))
            pooled = False
            if jobs > 1 and len(pending) > 1:
                pooled = _execute_pool(
                    pending, suite, jobs, timeout, max_retries,
                    retry_backoff, finalize, metrics,
                )
                if pooled:
                    used_jobs = min(jobs, len(pending))
            if not pooled:
                _execute_serial(
                    pending, suite, max_retries, retry_backoff, finalize,
                    metrics,
                )
    finally:
        _PLANS = None
        if journal is not None:
            journal.close()

    if metrics is not None and store is not None:
        metrics.counter("store.hits").inc(store.hits - store_hits_before)
        metrics.counter("store.misses").inc(store.misses - store_misses_before)
        metrics.counter("store.puts").inc(store.puts - store_puts_before)

    rows: Dict[str, List[Dict[str, object]]] = {name: [] for name in drivers}
    errors: List[Dict[str, str]] = []
    statuses: Dict[str, str] = {}
    for state in states:
        statuses[state.key] = state.status
        if state.status in ("failed", "timed_out"):
            failure = state.failure or {}
            errors.append(
                {
                    "driver": state.driver,
                    "benchmark": state.bench,
                    "error": state.error or state.status,
                    "type": str(failure.get("type", state.status)),
                    "attempts": str(max(state.attempts, 1)),
                }
            )
            continue
        rows[state.driver].extend(state.rows or [])
    cached_count = sum(1 for s in states if s.status == "cached")
    return SuiteRun(
        rows=rows,
        errors=tuple(errors),
        jobs=used_jobs,
        statuses=statuses,
        cache_hits=cached_count if keyed else 0,
        cache_misses=(len(states) - cached_count) if keyed else 0,
    )


def average_row(
    rows: List[Dict[str, object]], keys: Iterable[str], mean: str = "arith"
) -> Dict[str, object]:
    """Append-style 'average' row over the numeric ``keys``.

    The paper's figures lead with an *average* group; drivers return
    per-benchmark rows and this helper computes that group.

    Args:
        rows: per-benchmark rows.
        keys: numeric columns to aggregate.
        mean: ``"arith"`` (plain average — raw times, speed-up factors)
            or ``"geo"`` (geometric mean — the correct aggregate for
            *normalized* make-spans: ratios multiply, so averaging them
            arithmetically overweights the slow benchmarks).

    Raises:
        ValueError: for an unknown ``mean``.
    """
    if mean not in ("arith", "geo"):
        raise ValueError(f"mean must be 'arith' or 'geo', got {mean!r}")
    aggregate = (
        metrics.geometric_mean if mean == "geo" else metrics.arithmetic_mean
    )
    out: Dict[str, object] = {"benchmark": "average"}
    for key in keys:
        values = [float(row[key]) for row in rows if row.get(key) is not None]
        out[key] = aggregate(values) if values else None
    return out
