"""Differential tests: the vector engine's incremental path vs the
reference simulator.

:class:`~repro.core.vecsim.VectorSimulator` promises *bitwise* equality
with :func:`repro.core.makespan.simulate` — same float operations in the
same order — for full evaluation, timeline recording, and the
incremental propose/commit/preview path local search runs on.  These
tests enforce that contract on hundreds of random instances (hypothesis
strategies plus a seeded generator loop), across 1–4 compile threads
and all four local-search move kinds.  The helpers below (instance
strategies, random schedules, field-by-field result equality) are
shared with ``tests/test_vecsim_differential.py``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CompileTask,
    FunctionProfile,
    OCSPInstance,
    Schedule,
    VectorSimulator,
    simulate,
)
from repro.core.localsearch import _propose, improve_schedule
from repro.workloads import WorkloadSpec, generate

times = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)


@st.composite
def profiles_strategy(draw, max_functions=8, max_levels=4):
    n_funcs = draw(st.integers(min_value=1, max_value=max_functions))
    profiles: Dict[str, FunctionProfile] = {}
    for i in range(n_funcs):
        n_levels = draw(st.integers(min_value=1, max_value=max_levels))
        compile_times = sorted(
            draw(st.lists(times, min_size=n_levels, max_size=n_levels))
        )
        exec_times = sorted(
            draw(st.lists(times, min_size=n_levels, max_size=n_levels)),
            reverse=True,
        )
        name = f"f{i}"
        profiles[name] = FunctionProfile(name, tuple(compile_times), tuple(exec_times))
    return profiles


@st.composite
def instances(draw, max_functions=8, max_levels=4, max_calls=24):
    profiles = draw(profiles_strategy(max_functions, max_levels))
    names = sorted(profiles)
    calls = draw(st.lists(st.sampled_from(names), min_size=1, max_size=max_calls))
    return OCSPInstance(profiles, tuple(calls), name="diff")


def random_schedule(instance: OCSPInstance, rng: random.Random) -> Schedule:
    """A uniform-ish random *valid* schedule: every called function gets
    a random strictly increasing level chain, chains interleave randomly."""
    chains: List[List[CompileTask]] = []
    for fname in instance.called_functions:
        levels = sorted(
            rng.sample(
                range(instance.profiles[fname].num_levels),
                rng.randint(1, instance.profiles[fname].num_levels),
            )
        )
        chains.append([CompileTask(fname, lvl) for lvl in levels])
    tasks: List[CompileTask] = []
    while chains:
        chain = rng.choice(chains)
        tasks.append(chain.pop(0))
        if not chain:
            chains.remove(chain)
    return Schedule(tuple(tasks))


def random_instance(rng: random.Random) -> OCSPInstance:
    nf = rng.randint(1, 8)
    spec = WorkloadSpec(
        name=f"diff-{rng.randrange(1 << 30)}",
        num_functions=nf,
        num_calls=rng.randint(nf, 40 + nf),
        num_levels=rng.randint(1, 4),
    )
    return generate(spec, seed=rng.randrange(1 << 30))


def assert_results_equal(got, ref) -> None:
    """Exact (bitwise) MakespanResult equality, field by field for a
    readable diff on failure."""
    assert got.makespan == ref.makespan
    assert got.compile_end == ref.compile_end
    assert got.total_bubble_time == ref.total_bubble_time
    assert got.total_exec_time == ref.total_exec_time
    assert got.calls_at_level == ref.calls_at_level
    assert got.task_timings == ref.task_timings
    assert got.call_timings == ref.call_timings


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------


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
        pre = {
            fname: rng.randrange(instance.profiles[fname].num_levels)
            for fname in instance.called_functions
            if rng.random() < 0.5
        }
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


# ---------------------------------------------------------------------------
# incremental propose / commit / preview
# ---------------------------------------------------------------------------


def _mutate(
    instance: OCSPInstance, tasks: List[CompileTask], rng: random.Random
) -> Optional[List[CompileTask]]:
    """One random valid local-search move (None when the move fizzles)."""
    return _propose(instance, tasks, rng)


def test_incremental_differential_seeded():
    """The headline gate: >= 200 random cases, zero mismatches.

    Each case binds a random schedule, walks a chain of random
    local-search moves, and checks propose() spans, commit() results,
    and the committed baseline against the reference simulator after
    every move.
    """
    rng = random.Random(20260806)
    cases = 0
    mismatches = 0
    while cases < 200:
        instance = random_instance(rng)
        threads = rng.randint(1, 4)
        vec = VectorSimulator(instance, compile_threads=threads)
        schedule = random_schedule(instance, rng)
        vec.bind(schedule)
        tasks = list(schedule)
        for _ in range(6):
            proposal = _mutate(instance, tasks, rng)
            if proposal is None:
                continue
            span = vec.propose(proposal)
            ref = simulate(instance, Schedule(tuple(proposal)), compile_threads=threads)
            if span != ref.makespan:
                mismatches += 1
            if rng.random() < 0.7:  # accept: commit and re-check baseline
                committed = vec.commit()
                if committed != ref.makespan:
                    mismatches += 1
                full = vec.result(record_timeline=True)
                ref_full = simulate(
                    instance,
                    Schedule(tuple(proposal)),
                    compile_threads=threads,
                    record_timeline=True,
                )
                if (full.makespan, full.total_bubble_time, full.call_timings) != (
                    ref_full.makespan,
                    ref_full.total_bubble_time,
                    ref_full.call_timings,
                ):
                    mismatches += 1
                tasks = proposal
        cases += 1
    assert cases >= 200
    assert mismatches == 0


@pytest.mark.parametrize("move_kind", [0, 1, 2, 3])
def test_each_move_kind_incrementally_exact(move_kind):
    """Force every move kind (swap / shift / toggle-high / relevel) and
    check the incremental path after each."""

    class ForcedRng(random.Random):
        def randrange(self, *args, **kwargs):  # first call picks the move
            if not self.__dict__.get("_moved"):
                self.__dict__["_moved"] = True
                return move_kind
            return super().randrange(*args, **kwargs)

    outer = random.Random(1000 + move_kind)
    applied = 0
    attempts = 0
    while applied < 25 and attempts < 400:
        attempts += 1
        instance = random_instance(outer)
        schedule = random_schedule(instance, outer)
        rng = ForcedRng(outer.randrange(1 << 30))
        proposal = _propose(instance, list(schedule), rng)
        if proposal is None:
            continue
        vec = VectorSimulator(instance)
        vec.bind(schedule)
        span = vec.propose(proposal)
        ref = simulate(instance, Schedule(tuple(proposal)))
        assert span == ref.makespan
        assert vec.commit() == ref.makespan
        applied += 1
    assert applied == 25


def test_preview_does_not_commit():
    rng = random.Random(3)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    vec = VectorSimulator(instance)
    base = vec.bind(schedule)
    proposal = None
    while proposal is None:
        proposal = _propose(instance, list(schedule), rng)
    ref = simulate(instance, Schedule(tuple(proposal)), record_timeline=True)
    assert_results_equal(vec.preview(proposal, record_timeline=True), ref)
    # preview disarms commit and leaves the baseline untouched
    assert vec.baseline_makespan == base
    assert vec.baseline_tasks == tuple(schedule)
    with pytest.raises(RuntimeError):
        vec.commit()


def test_propose_cutoff_returns_inf_when_worse():
    import math

    rng = random.Random(11)
    seen_inf = 0
    for _ in range(200):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        vec = VectorSimulator(instance)
        base = vec.bind(schedule)
        proposal = _propose(instance, list(schedule), rng)
        if proposal is None:
            continue
        span = vec.propose(proposal, cutoff=base)
        true_span = simulate(instance, Schedule(tuple(proposal))).makespan
        if true_span <= base:
            assert span == true_span
        else:
            assert span == true_span or math.isinf(span)
            if math.isinf(span):
                seen_inf += 1
    assert seen_inf > 0  # the early exit actually fires


@pytest.mark.parametrize("recompile", [False, True])
def test_propose_cutoff_replay_adds_left_to_right(recompile):
    """The span replay sums each stretch of calls in call order, like
    the reference: fifty 1.0 calls after a 1e16 call add nothing.  A
    compensated sum (builtin ``sum`` since Python 3.12) would keep them.
    ``recompile`` leaves a compile pending across the stretch, which
    sends the replay down its chunked path."""
    profiles = {
        "big": FunctionProfile("big", (1.0,), (1e16,)),
        "small": FunctionProfile("small", (1.0, 2e16), (1.0, 0.5)),
    }
    inst = OCSPInstance(profiles, ("big",) + ("small",) * 50, name="fp")
    base = [CompileTask("big", 0), CompileTask("small", 0)]
    if recompile:
        base.append(CompileTask("small", 1))
    swapped = [base[1], base[0]] + base[2:]
    engine = VectorSimulator(inst)
    engine.bind(Schedule(tuple(base)))
    span = engine.propose(swapped, cutoff=1e17)
    assert span == simulate(inst, Schedule(tuple(swapped))).makespan


def test_trace_stats_matches_iar_helper():
    from repro.core.iar import _trace_stats

    rng = random.Random(5)
    for _ in range(30):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        result = simulate(instance, schedule, record_timeline=True)
        t = result.makespan * rng.random()
        vec = VectorSimulator(instance)
        assert vec.trace_stats(schedule, before_time=t, after_time=t) == _trace_stats(
            instance, schedule, before_time=t, after_time=t
        )


# ---------------------------------------------------------------------------
# the vector engine inside local search
# ---------------------------------------------------------------------------


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


def test_localsearch_rejects_unknown_engine():
    prof = {"f0": FunctionProfile("f0", (1.0,), (1.0,))}
    inst = OCSPInstance(prof, ("f0",), name="tiny")
    with pytest.raises(ValueError):
        improve_schedule(inst, Schedule.of(("f0", 0)), iterations=1, engine="nope")
