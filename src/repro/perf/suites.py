"""Registered perf benchmarks and named suites.

Each benchmark is a setup factory (see :mod:`repro.perf.harness`):
``make(scale)`` builds the workload and engines once, and the returned
callable does only the work worth measuring.  Workload sizes derive
from ``scale`` with the same convention as the pytest benchmark suite
(``REPRO_SCALE``, default 0.01), and the scale is recorded in every
baseline — results at different scales never compare.

The ``quick`` suite covers every instrumented hot path: the reference
simulator, the vector engine (full evaluation, its chunked replay on
IAR's recompiling schedules, and incremental through local search),
the A* search, the reactive runtime replays, the
priority-queue co-simulation, the result store, tracing, and the
parallel experiment runner.  It is sized
to finish in seconds at the default scale so CI can gate on it.

Two narrower suites serve the engine-equivalence story:

* ``vecsim`` — only the engine-pinned benchmarks (each names its engine
  explicitly, so running them under ``--engine vector`` or
  ``$REPRO_ENGINE`` cannot change their counters vs the committed
  baselines);
* ``speedup`` — the reference/vector evaluation benchmarks whose
  committed baselines back the documented speedup table (the same
  workload and schedule measured through each engine).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..observability.metrics import MetricsRegistry
from .harness import BenchResult, run_benchmark

__all__ = [
    "BenchSpec",
    "REGISTRY",
    "register",
    "suite_names",
    "get_suite",
    "run_suite",
    "DEFAULT_SCALE",
]

DEFAULT_SCALE = 0.01

Factory = Callable[[float], Callable[[MetricsRegistry], None]]


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: a named, suite-tagged setup factory."""

    name: str
    make: Factory
    suites: Tuple[str, ...]
    description: str
    warmups: int = 1
    repeats: int = 5


REGISTRY: Dict[str, BenchSpec] = {}


def register(
    name: str,
    suites: Tuple[str, ...] = ("quick",),
    description: str = "",
    warmups: int = 1,
    repeats: int = 5,
):
    """Decorator: register a benchmark factory under ``name``."""

    def deco(make: Factory) -> Factory:
        if name in REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        REGISTRY[name] = BenchSpec(
            name=name,
            make=make,
            suites=tuple(suites),
            description=description,
            warmups=warmups,
            repeats=repeats,
        )
        return make

    return deco


def suite_names() -> List[str]:
    names = {suite for spec in REGISTRY.values() for suite in spec.suites}
    return sorted(names)


def get_suite(suite: str) -> List[BenchSpec]:
    """The specs tagged with ``suite``, in registration order.

    Raises:
        KeyError: for a suite no benchmark is tagged with.
    """
    specs = [spec for spec in REGISTRY.values() if suite in spec.suites]
    if not specs:
        raise KeyError(
            f"unknown suite {suite!r}; available: {suite_names()}"
        )
    return specs


def run_suite(
    suite: str = "quick",
    scale: float = DEFAULT_SCALE,
    warmups: Optional[int] = None,
    repeats: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run every benchmark of ``suite`` and return the results."""
    results: List[BenchResult] = []
    for spec in get_suite(suite):
        if progress is not None:
            progress(spec.name)
        results.append(
            run_benchmark(
                spec.name,
                spec.make,
                scale=scale,
                warmups=spec.warmups if warmups is None else warmups,
                repeats=spec.repeats if repeats is None else repeats,
            )
        )
    return results


# ----------------------------------------------------------------------
# Workload helpers (setup only — never timed)
# ----------------------------------------------------------------------
def _workload(scale: float, calls_at_full: int = 200_000, seed: int = 42):
    from ..workloads import WorkloadSpec, generate

    spec = WorkloadSpec(
        name=f"perf-{calls_at_full}",
        num_functions=max(20, int(5_000 * scale)),
        num_calls=max(500, int(calls_at_full * scale)),
        num_levels=4,
        base_compile_us=50.0,
        mean_exec_us=2.0,
    )
    return generate(spec, seed=seed)


# ----------------------------------------------------------------------
# The quick suite
# ----------------------------------------------------------------------
@register(
    "core_simulate",
    suites=("quick", "speedup"),
    description="reference simulate() on a base-level schedule",
)
def _bench_core_simulate(scale: float):
    from ..core.makespan import simulate
    from ..core.single_level import base_level_schedule

    instance = _workload(scale)
    schedule = base_level_schedule(instance)

    def fn(metrics: MetricsRegistry) -> None:
        # Engine pinned: this benchmark *is* the reference measurement,
        # whatever engine the session defaults to.
        for _ in range(5):
            simulate(
                instance, schedule, validate=False, metrics=metrics,
                engine="reference",
            )

    return fn


@register(
    "core_simulate_vector",
    suites=("quick", "vecsim", "speedup"),
    description="simulate(engine='vector') on the core_simulate workload",
)
def _bench_core_simulate_vector(scale: float):
    from ..core.makespan import simulate
    from ..core.single_level import base_level_schedule

    instance = _workload(scale)
    schedule = base_level_schedule(instance)

    def fn(metrics: MetricsRegistry) -> None:
        # Same workload, schedule, and counters as core_simulate — the
        # committed baseline pair documents the vector engine's speedup
        # and proves counter identity across engines.
        for _ in range(5):
            simulate(
                instance, schedule, validate=False, metrics=metrics,
                engine="vector",
            )

    return fn


@register(
    "localsearch_moves",
    description="hill-climbing local search on the vector engine",
)
def _bench_localsearch(scale: float):
    from ..core.localsearch import improve_schedule
    from ..core.single_level import base_level_schedule

    instance = _workload(scale, calls_at_full=100_000)
    schedule = base_level_schedule(instance)

    def fn(metrics: MetricsRegistry) -> None:
        improve_schedule(
            instance, schedule, iterations=200, seed=3, metrics=metrics
        )

    return fn


@register(
    "vecsim_chunked",
    suites=("quick", "vecsim"),
    description=(
        "IAR's trace passes and one evaluation on a DaCapo two-level "
        "projection: the vector engine's chunked replay on recompiling "
        "schedules"
    ),
)
def _bench_vecsim_chunked(scale: float):
    from ..analysis.experiments import project_to_model_levels
    from ..core.engine import make_simulator
    from ..core.iar import iar
    from ..vm.costbenefit import EstimatedModel
    from ..workloads import dacapo

    instance = dacapo.load("pmd", scale=scale)
    projected = project_to_model_levels(instance, EstimatedModel(instance, seed=0))

    def fn(metrics: MetricsRegistry) -> None:
        # Engine pinned; with a registry IAR runs on an engine of its
        # own, so ``vecsim.chunks`` counts every chunk of its passes.
        schedule = iar(projected, metrics=metrics, engine="vector").schedule
        make_simulator(projected, "vector", metrics=metrics).evaluate(schedule)

    return fn


@register(
    "astar_search",
    description="A* search on the Section 6.2.5 table's 2-6 function instances",
)
def _bench_astar_search(scale: float):
    from ..analysis.experiments import _astar_instance
    from ..core.astar import astar_schedule

    # The table's instances are fixed whatever the scale.  Its
    # 7-function row, the out-of-memory point, is left out so the quick
    # suite stays quick.
    instances = [_astar_instance(m) for m in range(2, 7)]

    def fn(metrics: MetricsRegistry) -> None:
        results = [
            astar_schedule(instance, max_frontier=200_000)
            for instance in instances
        ]
        metrics.counter("astar.nodes_expanded").inc(
            sum(r.nodes_expanded for r in results)
        )
        metrics.counter("astar.max_frontier").inc(
            sum(r.max_frontier for r in results)
        )

    return fn


@register(
    "priorityqueue_hotness",
    description="priority-queue reactive co-simulation (hotness policy)",
)
def _bench_priorityqueue(scale: float):
    from ..vm.costbenefit import EstimatedModel
    from ..vm.jikes import JikesScheme
    from ..vm.priorityqueue import run_with_policy

    instance = _workload(scale, calls_at_full=50_000)

    def fn(metrics: MetricsRegistry) -> None:
        run_with_policy(
            instance,
            JikesScheme(EstimatedModel(instance, seed=0)),
            policy="hotness",
            metrics=metrics,
        )

    return fn


@register(
    "runtime_replay",
    description=(
        "reactive runtime replays: Jikes (estimated model), V8, and Jikes "
        "under compile and sampler-tick faults"
    ),
)
def _bench_runtime_replay(scale: float):
    from ..faults import FaultInjector
    from ..vm.costbenefit import EstimatedModel
    from ..vm.jikes import run_jikes
    from ..vm.v8 import run_v8

    instance = _workload(scale, calls_at_full=200_000)

    def fn(metrics: MetricsRegistry) -> None:
        # The runtime takes no registry; its exact counts come from the
        # results (emergent ticks and compile tasks) and the injector.
        faults = FaultInjector("compile_fail=0.2,tick_drop=0.1,tick_dup=0.1")
        runs = [
            run_jikes(instance, model=EstimatedModel(instance, seed=0)),
            run_v8(instance),
            run_jikes(instance, faults=faults),
        ]
        metrics.counter("runtime.samples_taken").inc(
            sum(run.samples_taken for run in runs)
        )
        metrics.counter("runtime.tasks").inc(
            sum(len(run.schedule.tasks) for run in runs)
        )
        metrics.counter("runtime.compile_failures").inc(
            faults.tally["compile_failures"]
        )

    return fn


@register(
    "store_roundtrip",
    description="content-addressed store fingerprint + put + get",
)
def _bench_store(scale: float):
    from ..store import ResultStore, fingerprint_unit

    instance = _workload(scale, calls_at_full=20_000)
    entries = 32
    rows = [{"benchmark": "perf", "value": 1.25}]

    def fn(metrics: MetricsRegistry) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            fingerprints = [
                fingerprint_unit(
                    instance, "perf", {"entry": i}, benchmark="perf"
                )
                for i in range(entries)
            ]
            for fp in fingerprints:
                store.put(fp, rows, driver="perf", benchmark="perf")
            for fp in fingerprints:
                assert store.get(fp) == rows
            metrics.counter("store.puts").inc(store.puts)
            metrics.counter("store.hits").inc(store.hits)
            metrics.counter("store.misses").inc(store.misses)

    return fn


@register(
    "trace_record",
    description="simulate() with a Tracer attached (trace-enabled cost)",
)
def _bench_trace_record(scale: float):
    from ..core.makespan import simulate
    from ..core.single_level import base_level_schedule
    from ..observability import Tracer

    instance = _workload(scale, calls_at_full=100_000)
    schedule = base_level_schedule(instance)

    def fn(metrics: MetricsRegistry) -> None:
        tracer = Tracer()
        simulate(
            instance, schedule, validate=False, tracer=tracer,
            metrics=metrics,
        )
        metrics.counter("trace.events").inc(len(tracer.events))

    return fn


@register(
    "runner_serial",
    description="parallel experiment runner, serial path, figure5 units",
)
def _bench_runner(scale: float):
    from ..analysis.experiments import run_parallel

    suite = {
        "perf-a": _workload(scale, calls_at_full=20_000, seed=11),
        "perf-b": _workload(scale, calls_at_full=20_000, seed=12),
    }

    def fn(metrics: MetricsRegistry) -> None:
        run = run_parallel(
            suite, drivers=("figure5",), jobs=1, metrics=metrics
        )
        assert run.ok

    return fn


@register(
    "faults_sweep_small",
    description="fault-injected five-scheme sweep (2 rates, 1 benchmark)",
)
def _bench_faults_sweep(scale: float):
    from ..faults.sweep import fault_sweep_rows

    suite = {"perf": _workload(scale, calls_at_full=20_000, seed=13)}

    def fn(metrics: MetricsRegistry) -> None:
        rows = fault_sweep_rows(
            suite,
            spec="seed=0",
            rates=(0.0, 0.2),
            dimension="compile_fail",
            metrics=metrics,
        )
        assert len(rows) == 2

    return fn


@register(
    "service_decisions",
    description=(
        "multi-tenant decision service: interleaved DaCapo call events "
        "through a fault-injected, cache-backed engine"
    ),
)
def _bench_service_decisions(scale: float):
    from ..service import DecisionCache, DecisionEngine, run_replay
    from ..service.driver import generate_events

    # The event stream is built once; each measured run replays it
    # through a fresh engine (decisions + tallies are deterministic, so
    # the counters are identical across repeats by construction).
    events = generate_events(
        tenants=8,
        events=max(200, int(100_000 * scale)),
        scale=max(0.002, scale),
        seed=0,
    )

    def fn(metrics: MetricsRegistry) -> None:
        engine = DecisionEngine(
            faults="compile_fail=0.1,seed=3",
            cache=DecisionCache(),
            metrics=metrics,
        )
        report = run_replay(events, engine, mode="inproc")
        assert report.decisions > 0

    return fn


@register(
    "service_telemetry",
    suites=("quick", "telemetry"),
    description=(
        "decision service with the wall-clock telemetry plane attached: "
        "same replay as service_decisions plus tagged metrics, SLO "
        "windows, and the flight recorder"
    ),
)
def _bench_service_telemetry(scale: float):
    from ..service import DecisionCache, DecisionEngine, run_replay
    from ..telemetry import ServiceTelemetry
    from ..service.driver import generate_events

    events = generate_events(
        tenants=8,
        events=max(200, int(100_000 * scale)),
        scale=max(0.002, scale),
        seed=0,
    )

    def fn(metrics: MetricsRegistry) -> None:
        # The counters gated by the committed baseline come from the
        # engine's deterministic registry; the plane keeps its own
        # registries, so they must stay identical to service_decisions'.
        engine = DecisionEngine(
            faults="compile_fail=0.1,seed=3",
            cache=DecisionCache(),
            metrics=metrics,
            telemetry=ServiceTelemetry(shards=8),
        )
        report = run_replay(events, engine, mode="inproc")
        assert report.decisions > 0
        assert engine.telemetry.flight.recorded == engine.decisions

    return fn
