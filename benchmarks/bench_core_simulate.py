"""Throughput of the core machinery: make-span simulation and IAR.

These are real pytest-benchmark timings (multiple rounds) rather than
one-shot pedantic runs, tracking the cost of the two hot paths every
experiment goes through.
"""

import random

from repro.core import VectorSimulator, iar_schedule, simulate
from repro.core.localsearch import _propose
from repro.core.single_level import base_level_schedule
from repro.workloads import WorkloadSpec, generate

SPEC = WorkloadSpec(
    name="throughput",
    num_functions=500,
    num_calls=200_000,
    num_levels=4,
    base_compile_us=50.0,
    mean_exec_us=2.0,
)


def _instance():
    return generate(SPEC, seed=42)


INSTANCE = _instance()
SCHEDULE = base_level_schedule(INSTANCE)


def test_simulate_throughput(benchmark):
    result = benchmark(simulate, INSTANCE, SCHEDULE, validate=False)
    assert result.makespan > 0


def test_simulate_16_threads_throughput(benchmark):
    result = benchmark(
        simulate, INSTANCE, SCHEDULE, compile_threads=16, validate=False
    )
    assert result.makespan > 0


def test_vector_evaluate_throughput(benchmark):
    """Full (non-incremental) evaluation on the precomputed engine."""
    engine = VectorSimulator(INSTANCE)
    result = benchmark(engine.evaluate, SCHEDULE)
    assert result.makespan == simulate(INSTANCE, SCHEDULE, validate=False).makespan


def test_vector_incremental_throughput(benchmark):
    """Per-move cost of the propose/commit path local search runs on.

    Each round scores (and occasionally commits) one random schedule
    mutation; the engine replays only the affected call suffix.
    """
    engine = VectorSimulator(INSTANCE)
    engine.bind(SCHEDULE)
    rng = random.Random(7)
    state = {"tasks": list(SCHEDULE)}

    def one_move():
        proposal = None
        while proposal is None:
            proposal = _propose(INSTANCE, state["tasks"], rng)
        span = engine.propose(proposal, cutoff=engine.baseline_makespan)
        if span <= engine.baseline_makespan:
            engine.commit()
            state["tasks"] = proposal
        return span

    span = benchmark(one_move)
    assert span > 0


def test_iar_throughput(benchmark):
    sched = benchmark(iar_schedule, INSTANCE)
    assert len(sched) >= INSTANCE.num_functions


def test_trace_generation_throughput(benchmark):
    inst = benchmark(_instance)
    assert inst.num_calls == SPEC.num_calls
