"""The vector engine against the reference's public entry points.

:class:`~repro.core.vecsim.VectorSimulator` promises *bitwise* equality
with :func:`repro.core.makespan.simulate`, with the reference trace
pass (``ReferenceSimulator.trace_stats``) and with local search on the
reference engine.  These checks hold it to those entry points directly
(``tests/test_vecsim_differential.py`` drives the same contract through
the engine seam), on their own instances and seeds.  The helpers are
shared with that battery.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FunctionProfile, OCSPInstance, Schedule, VectorSimulator, simulate
from repro.core.engine import ReferenceSimulator
from repro.core.localsearch import improve_schedule

from test_vecsim_differential import (
    assert_results_equal,
    instances,
    random_instance,
    random_preinstalled,
    random_schedule,
)


@settings(max_examples=120, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=4), st.randoms())
def test_evaluate_matches_reference(instance, threads, hyp_rng):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    vec = VectorSimulator(instance, compile_threads=threads)
    for record in (False, True):
        assert_results_equal(
            vec.evaluate(schedule, record_timeline=record),
            simulate(
                instance,
                schedule,
                compile_threads=threads,
                record_timeline=record,
            ),
        )


def test_evaluate_empty_trace_single_function():
    prof = {"f0": FunctionProfile("f0", (1.0, 2.0), (4.0, 1.0))}
    inst = OCSPInstance(prof, ("f0",), name="tiny")
    sched = Schedule.of(("f0", 0))
    vec = VectorSimulator(inst)
    assert_results_equal(
        vec.evaluate(sched, record_timeline=True),
        simulate(inst, sched, record_timeline=True),
    )


def test_evaluate_preinstalled_matches_reference():
    rng = random.Random(7)
    for _ in range(20):
        instance = random_instance(rng)
        pre = random_preinstalled(instance, rng)
        tasks = [
            t
            for t in random_schedule(instance, rng)
            if t.function not in pre
        ]
        schedule = Schedule(tuple(tasks))
        vec = VectorSimulator(instance, preinstalled=pre)
        assert_results_equal(
            vec.evaluate(schedule, record_timeline=True),
            simulate(instance, schedule, preinstalled=pre, record_timeline=True),
        )


def test_trace_stats_matches_iar_helper():
    """At random thresholds, not only at call starts."""
    rng = random.Random(5)
    for _ in range(30):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        result = simulate(instance, schedule, record_timeline=True)
        t = result.makespan * rng.random()
        vec = VectorSimulator(instance)
        ref = ReferenceSimulator(instance)
        assert vec.trace_stats(
            schedule, before_time=t, after_time=t
        ) == ref.trace_stats(schedule, before_time=t, after_time=t)


@pytest.mark.parametrize("temperature", [0.0, 0.05])
@pytest.mark.parametrize("threads", [1, 2])
def test_localsearch_engines_walk_identical_trajectories(temperature, threads):
    rng = random.Random(42 + threads)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    vec_sched, vec_stats = improve_schedule(
        instance,
        schedule,
        iterations=120,
        seed=9,
        temperature=temperature,
        compile_threads=threads,
        engine="vector",
    )
    ref_sched, ref_stats = improve_schedule(
        instance,
        schedule,
        iterations=120,
        seed=9,
        temperature=temperature,
        compile_threads=threads,
        engine="reference",
    )
    assert tuple(vec_sched) == tuple(ref_sched)
    assert vec_stats == ref_stats
