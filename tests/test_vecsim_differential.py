"""Differential battery: VectorSimulator vs the reference.

The vector engine promises *bitwise* equality with the reference oracle
— same float operations in the same order — for full evaluation (both
its batched kernel and its chunked replay), timelines, trace passes,
fault-degraded runs (``task_compile_times`` / ``task_installs``) and
the incremental bind/propose/commit/preview path local search runs on.
Its ``vecsim.*`` work counters count the same work whichever kernel
runs.  The battery drives random instances, costs, call sequences,
compiler-thread counts, fault specs and replay window sizes through
both engines, stresses the chunked replay's cut rule (recompiled hot
functions, tied and call-aligned install times, failed installs,
preinstalled code, resumed suffixes), and pins the zero-length and
single-call edges.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
import weakref
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CompileTask,
    FunctionProfile,
    OCSPInstance,
    Schedule,
    ScheduleError,
    VectorSimulator,
    make_simulator,
    simulate,
)
from repro.core.engine import (
    ENGINES,
    ReferenceSimulator,
    resolve_engine,
    set_default_engine,
)
from repro.core.iar import iar
from repro.core.localsearch import _propose, improve_schedule
from repro.faults import simulate_with_faults
from repro.observability import MetricsRegistry
from repro.perf.harness import counters_of
from repro.vm.jikes import run_jikes
from repro.vm.v8 import run_v8
from repro.workloads import WorkloadSpec, dacapo, generate

FAULT_SPECS = [
    "compile_fail=0.4,seed=3",
    "compile_fail=0.7,retries=0,seed=9",
    "stall=0.5,stall_factor=4.0,seed=2",
    "compile_fail=0.3,stall=0.3,retries=2,seed=17",
]

# ---------------------------------------------------------------------------
# instances, schedules, and result equality
# ---------------------------------------------------------------------------

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


def uniform_schedule(instance: OCSPInstance, rng: random.Random, skip=()) -> Schedule:
    """Every called function outside ``skip`` compiled once, at a random
    level, in random order: what the batched kernel takes."""
    fnames = [f for f in instance.called_functions if f not in skip]
    rng.shuffle(fnames)
    return Schedule(
        tuple(
            CompileTask(f, rng.randrange(instance.profiles[f].num_levels))
            for f in fnames
        )
    )


def random_instance(rng: random.Random) -> OCSPInstance:
    nf = rng.randint(1, 8)
    spec = WorkloadSpec(
        name=f"diff-{rng.randrange(1 << 30)}",
        num_functions=nf,
        num_calls=rng.randint(nf, 40 + nf),
        num_levels=rng.randint(1, 4),
    )
    return generate(spec, seed=rng.randrange(1 << 30))


def random_preinstalled(instance: OCSPInstance, rng: random.Random) -> Dict[str, int]:
    return {
        fname: rng.randrange(instance.profiles[fname].num_levels)
        for fname in instance.called_functions
        if rng.random() < 0.5
    }


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


def engines_for(instance, threads=1):
    return (
        ReferenceSimulator(instance, compile_threads=threads),
        VectorSimulator(instance, compile_threads=threads),
    )


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=4), st.randoms())
def test_evaluate_bitwise_equal(instance, threads, hyp_rng):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    ref, vec = engines_for(instance, threads)
    for record in (False, True):
        r = ref.evaluate(schedule, record_timeline=record)
        assert_results_equal(vec.evaluate(schedule, record_timeline=record), r)


def test_evaluate_seeded_generator_sweep():
    rng = random.Random(20260808)
    for _ in range(60):
        instance = random_instance(rng)
        threads = rng.randint(1, 4)
        schedule = random_schedule(instance, rng)
        ref, vec = engines_for(instance, threads)
        assert_results_equal(vec.evaluate(schedule), ref.evaluate(schedule))


def test_single_call_trace():
    prof = {"f0": FunctionProfile("f0", (1.0, 2.0), (4.0, 1.0))}
    inst = OCSPInstance(prof, ("f0",), name="tiny")
    sched = Schedule.of(("f0", 0))
    ref, vec = engines_for(inst)
    r = ref.evaluate(sched, record_timeline=True)
    assert_results_equal(vec.evaluate(sched, record_timeline=True), r)
    assert r.makespan == 1.0 + 4.0  # compile then blocked first call


def test_zero_length_trace():
    prof = {"f0": FunctionProfile("f0", (1.0,), (4.0,))}
    inst = OCSPInstance(prof, (), name="empty")
    sched = Schedule(())
    for engine in engines_for(inst):
        r = engine.evaluate(sched, record_timeline=True)
        assert r.makespan == 0.0
        assert r.total_exec_time == 0.0
        assert r.calls_at_level == {}


def test_preinstalled_bitwise_equal():
    rng = random.Random(13)
    for _ in range(20):
        instance = random_instance(rng)
        pre = random_preinstalled(instance, rng)
        tasks = [
            t for t in random_schedule(instance, rng) if t.function not in pre
        ]
        schedule = Schedule(tuple(tasks))
        vec = VectorSimulator(instance, preinstalled=pre)
        r = simulate(instance, schedule, preinstalled=pre, record_timeline=True)
        assert_results_equal(vec.evaluate(schedule, record_timeline=True), r)


# ---------------------------------------------------------------------------
# fault-degraded runs (task_compile_times / task_installs overrides)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", FAULT_SPECS)
def test_faulted_runs_bitwise_equal(spec):
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(8):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        threads = rng.randint(1, 3)
        results = []
        plans = []
        for engine in ENGINES:
            r, p = simulate_with_faults(
                instance, schedule, spec,
                compile_threads=threads, engine=engine,
            )
            results.append(r)
            plans.append(p)
        assert_results_equal(results[1], results[0])
        # The degradation decisions precede the engine: identical plans.
        ref_plan, vec_plan = plans
        assert vec_plan.tasks == ref_plan.tasks
        assert vec_plan.compile_times == ref_plan.compile_times
        assert vec_plan.installs == ref_plan.installs
        assert vec_plan.summary() == ref_plan.summary()


def test_direct_override_arrays_bitwise_equal():
    rng = random.Random(99)
    for _ in range(25):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        n = len(schedule.tasks)
        if n == 0:
            continue
        compile_times = [rng.uniform(0.1, 20.0) for _ in range(n)]
        installs = [True] + [rng.random() < 0.8 for _ in range(n - 1)]
        # Every called function keeps one installing task.
        seen = set()
        for i, task in enumerate(schedule.tasks):
            if task.function not in seen:
                installs[i] = True
                seen.add(task.function)
        release = sorted(rng.uniform(0.0, 5.0) for _ in range(n))
        kw = dict(
            release_times=release,
            task_compile_times=compile_times,
            task_installs=installs,
        )
        r = simulate(instance, schedule, validate=False, **kw)
        assert_results_equal(VectorSimulator(instance).evaluate(schedule, **kw), r)


# ---------------------------------------------------------------------------
# the chunked replay's cut rule
# ---------------------------------------------------------------------------

# Dyadic costs add exactly, so installs often finish at the same time,
# or exactly when a call starts, and the `<` / `<=` edges of the cut
# rule get exercised.
dyadic = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
# (first window, window cap) of the replay: tiny windows put chunk
# boundaries everywhere; the last pair is the engine's own.
WINDOWS = [(1, 1), (1, 4), (2, 3), (3, 8), (1024, 1 << 16)]


@st.composite
def recompile_cases(draw):
    """An instance with a hot function, a schedule recompiling its
    functions several times, a second schedule to resume into, and the
    engine settings: threads, preinstalled code, failed installs and
    replay windows."""
    nf = draw(st.integers(min_value=1, max_value=4))
    profiles: Dict[str, FunctionProfile] = {}
    for i in range(nf):
        nl = draw(st.integers(min_value=1, max_value=4))
        compile_times = sorted(draw(st.lists(dyadic, min_size=nl, max_size=nl)))
        exec_times = sorted(
            draw(st.lists(dyadic, min_size=nl, max_size=nl)), reverse=True
        )
        profiles[f"f{i}"] = FunctionProfile(f"f{i}", compile_times, exec_times)
    names = sorted(profiles)
    # f0 is hot: at least half the draws.
    calls = draw(
        st.lists(
            st.sampled_from(names + ["f0"] * nf), min_size=1, max_size=40
        )
    )
    instance = OCSPInstance(profiles, tuple(calls), name="cuts")
    pre = draw(
        st.dictionaries(
            st.sampled_from(names),
            st.integers(min_value=0, max_value=3),
            max_size=nf,
        )
    )
    pre = {f: level % profiles[f].num_levels for f, level in pre.items()}

    def schedule():
        tasks = []
        for fname in names:
            levels = draw(
                st.sets(
                    st.integers(0, profiles[fname].num_levels - 1),
                    min_size=0 if fname in pre or fname not in calls else 1,
                )
            )
            tasks.extend((fname, level) for level in sorted(levels))
        order = draw(st.permutations(tasks))
        # Keep each function's levels increasing in schedule order.
        levels_of = {f: sorted(l for g, l in tasks if g == f) for f in names}
        return Schedule(
            tuple(CompileTask(f, levels_of[f].pop(0)) for f, _l in order)
        )

    first, second = schedule(), schedule()
    installs = draw(
        st.lists(st.booleans(), min_size=len(first), max_size=len(first))
    )
    for fname in sorted(set(calls) - set(pre)):
        own = [i for i, task in enumerate(first) if task.function == fname]
        if not any(installs[i] for i in own):
            installs[draw(st.sampled_from(own))] = True
    return dict(
        instance=instance,
        first=first,
        second=second,
        installs=installs,
        pre=pre,
        threads=draw(st.integers(min_value=1, max_value=4)),
        windows=draw(st.sampled_from(WINDOWS)),
    )


def cut_engine(case, metrics=None):
    """A vector engine for ``case``, with its replay windows."""
    vec = VectorSimulator(
        case["instance"],
        compile_threads=case["threads"],
        preinstalled=case["pre"],
        metrics=metrics,
    )
    vec._CHUNK, vec._MAX_CHUNK = case["windows"]
    return vec


def case_reference(case, schedule, **kwargs):
    return simulate(
        case["instance"],
        schedule,
        compile_threads=case["threads"],
        preinstalled=case["pre"],
        validate=False,
        **kwargs,
    )


@settings(max_examples=200, deadline=None)
@given(recompile_cases())
def test_cut_rule_evaluate_bitwise_equal(case):
    """Totals and timelines, with and without failed installs."""
    vec = cut_engine(case)
    for overrides in ({}, {"task_installs": case["installs"]}):
        for record in (False, True):
            kwargs = dict(record_timeline=record, **overrides)
            assert_results_equal(
                vec.evaluate(case["first"], **kwargs),
                case_reference(case, case["first"], **kwargs),
            )


@settings(max_examples=150, deadline=None)
@given(recompile_cases())
def test_cut_rule_trace_stats_bitwise_equal(case):
    vec = cut_engine(case)
    timings = case_reference(case, case["first"], record_timeline=True).call_timings
    for thr in edge_thresholds(timings):
        for before, after in threshold_pairs(thr):
            assert vec.trace_stats(case["first"], before, after) == (
                timeline_trace_stats(timings, before, after)
            )


@settings(max_examples=200, deadline=None)
@given(recompile_cases(), st.sampled_from([None, 0.5, 0.9, 1.0, 1.1]))
def test_cut_rule_resumed_suffixes_bitwise_equal(case, cutoff_frac):
    """Resumed replays: propose (with and without a cutoff), preview,
    commit and the committed baseline.  The span replay counts the calls
    through the first one finishing past the cutoff, whatever the
    replay windows."""
    metrics = MetricsRegistry()
    vec = cut_engine(case, metrics)
    base = vec.bind(case["first"])
    assert base == case_reference(case, case["first"]).makespan
    second = case["second"]
    expected = case_reference(case, second, record_timeline=True)
    assert_results_equal(vec.preview(second, record_timeline=True), expected)
    cutoff = None if cutoff_frac is None else base * cutoff_frac
    span = vec.propose(second, cutoff=cutoff)
    _prep, i0, _t0 = vec._cand  # the first call the replay resumed at
    timings = expected.call_timings
    n = len(timings)
    if i0 < n and cutoff is not None and expected.makespan > cutoff:
        assert math.isinf(span)
        over = next(i for i, c in enumerate(timings) if c.finish > cutoff)
        reached = max(over, i0) + 1
    else:
        assert span == expected.makespan
        reached = n
    if i0 < n:
        replayed = counters_of(metrics)["vecsim.span_calls_replayed"]
        assert replayed == reached - i0
    assert vec.commit() == expected.makespan
    assert_results_equal(vec.result(record_timeline=True), expected)


# ---------------------------------------------------------------------------
# incremental propose/commit/preview and the vecsim.* work counters
# ---------------------------------------------------------------------------


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
            proposal = _propose(instance, tasks, rng)
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
    makes the replay cut at its function's next call."""
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


def test_incremental_chain_and_counters_identical():
    """The vector engine walks the reference's propose/commit chain, and
    its counters count exactly the calls made: one full replay per bind
    and commit, one span replay per proposal that can observe its
    mutation."""
    rng = random.Random(424242)
    for _ in range(40):
        instance = random_instance(rng)
        threads = rng.randint(1, 4)
        metrics = MetricsRegistry()
        ref = ReferenceSimulator(instance, compile_threads=threads)
        vec = VectorSimulator(instance, compile_threads=threads, metrics=metrics)
        schedule = random_schedule(instance, rng)
        assert vec.bind(schedule) == ref.bind(schedule)
        tasks = list(schedule)
        proposals = commits = 0
        for _ in range(8):
            proposal = _propose(instance, tasks, rng)
            if proposal is None:
                continue
            cutoff = vec.baseline_makespan if rng.random() < 0.5 else None
            span = vec.propose(proposal, cutoff=cutoff)
            true_span = ref.propose(proposal)
            proposals += 1
            assert span == true_span or (
                math.isinf(span) and cutoff is not None and true_span > cutoff
            )
            if not math.isinf(span) and rng.random() < 0.6:
                assert vec.commit() == ref.commit()
                commits += 1
                tasks = proposal
        assert_results_equal(
            vec.result(record_timeline=True), ref.result(record_timeline=True)
        )
        counters = counters_of(metrics)
        assert counters["vecsim.binds"] == 1
        assert counters.get("vecsim.proposals", 0) == proposals
        assert counters.get("vecsim.commits", 0) == commits
        assert counters["vecsim.prepares"] == 1 + proposals
        assert counters["vecsim.replays"] == 1 + commits
        assert counters.get("vecsim.span_replays", 0) <= proposals


def evaluate_counters(instance, schedule):
    """The counters one plain evaluation records on either kernel
    (``vecsim.chunks`` aside: only the chunked replay has chunks)."""
    n = len(instance.calls)
    return {
        "vecsim.evaluations": 1,
        "vecsim.prepares": 1,
        "vecsim.tasks_prepared": len(schedule),
        "vecsim.replays": 1,
        "vecsim.calls_replayed": n,
    }


def kernel_counters(metrics):
    counters = counters_of(metrics)
    chunks = counters.pop("vecsim.chunks", 0)
    return counters, chunks


def test_evaluate_counters_identical():
    rng = random.Random(77)
    for _ in range(20):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        metrics = MetricsRegistry()
        VectorSimulator(instance, metrics=metrics).evaluate(schedule)
        counters, _chunks = kernel_counters(metrics)
        assert counters == evaluate_counters(instance, schedule)


# ---------------------------------------------------------------------------
# trace passes
# ---------------------------------------------------------------------------


def reference_timeline(instance, schedule, threads=1, preinstalled=None):
    """The reference's per-call timings of ``schedule``."""
    return simulate(
        instance,
        schedule,
        compile_threads=threads,
        preinstalled=preinstalled,
        record_timeline=True,
    ).call_timings


def edge_thresholds(timings):
    """Every exact call start (where ``<`` and ``>=`` part ways), 0.0,
    the make-span and a point past it."""
    span = timings[-1].finish if timings else 0.0
    return sorted({t.start for t in timings}) + [0.0, span, span + 1.0]


def threshold_pairs(thr):
    """Both thresholds, then only ``before_time``, then only
    ``after_time``."""
    return ((thr, thr), (thr, None), (None, thr))


def timeline_trace_stats(timings, before, after):
    """``trace_stats``' ``(firsts, before, after, end)`` derived from a
    recorded timeline (which, unlike ``ReferenceSimulator.trace_stats``,
    knows preinstalled functions)."""
    firsts, counts_before, counts_after = {}, {}, {}
    for t in timings:
        firsts.setdefault(t.function, t.start)
        if before is not None and t.start < before:
            counts_before[t.function] = counts_before.get(t.function, 0) + 1
        if after is not None and t.start >= after:
            counts_after[t.function] = counts_after.get(t.function, 0) + 1
    end = timings[-1].finish if timings else 0.0
    return firsts, counts_before, counts_after, end


def chunked_engine(instance, **kwargs):
    """A vector engine that sends every pass to the chunked replay."""
    vec = VectorSimulator(instance, **kwargs)
    vec._batched_or_none = lambda schedule: None
    return vec


def test_trace_stats_matches_reference():
    """One compile thread, both kernels: the vector trace pass equals
    ``ReferenceSimulator.trace_stats`` at every edge threshold (a
    threshold between two call starts counts like the later start), on
    single-install schedules (which the batched kernel takes) and
    recompiling ones (always the chunked replay's)."""
    rng = random.Random(31)
    for _ in range(20):
        instance = random_instance(rng)
        ref = ReferenceSimulator(instance)
        for schedule in (
            uniform_schedule(instance, rng),
            random_schedule(instance, rng),
        ):
            timings = reference_timeline(instance, schedule)
            for vec in (VectorSimulator(instance), chunked_engine(instance)):
                for thr in edge_thresholds(timings):
                    for before, after in threshold_pairs(thr):
                        assert vec.trace_stats(
                            schedule, before, after
                        ) == ref.trace_stats(schedule, before, after)


@pytest.mark.parametrize("threads", [2, 4])
def test_trace_stats_multithread_matches_reference(threads):
    """Both engines' trace passes run at the engine's thread count: each
    equals the reference's own multi-thread timeline."""
    rng = random.Random(310 + threads)
    for _ in range(15):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        ref = ReferenceSimulator(instance, compile_threads=threads)
        vec = VectorSimulator(instance, compile_threads=threads)
        timings = reference_timeline(instance, schedule, threads)
        for thr in edge_thresholds(timings):
            for before, after in threshold_pairs(thr):
                expected = timeline_trace_stats(timings, before, after)
                assert ref.trace_stats(schedule, before, after) == expected
                assert vec.trace_stats(schedule, before, after) == expected


@pytest.mark.parametrize("path", ["batched", "chunked"])
def test_trace_stats_preinstalled_matches_reference(path):
    rng = random.Random(313)
    for _ in range(15):
        instance = random_instance(rng)
        pre = random_preinstalled(instance, rng)
        schedule = uniform_schedule(instance, rng, skip=pre)
        make = VectorSimulator if path == "batched" else chunked_engine
        vec = make(instance, preinstalled=pre)
        timings = reference_timeline(instance, schedule, preinstalled=pre)
        for thr in edge_thresholds(timings):
            for before, after in threshold_pairs(thr):
                expected = timeline_trace_stats(timings, before, after)
                assert vec.trace_stats(schedule, before, after) == expected


# ---------------------------------------------------------------------------
# the evaluate path choice (batched kernel vs chunked replay)
# ---------------------------------------------------------------------------


def spy_kernels(monkeypatch):
    """Record which totals kernel each evaluation enters."""
    entered = []
    for name in ("_batched_timeline", "_replay_totals"):
        original = getattr(VectorSimulator, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            entered.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(VectorSimulator, name, spy)
    return entered


def single_level_input():
    """The perf suite's engine workload with its single-level schedule
    (what ``core_simulate_vector`` evaluates)."""
    from repro.core.single_level import base_level_schedule
    from repro.perf.suites import _workload

    instance = _workload(0.01)
    return instance, base_level_schedule(instance)


def level_varying_input():
    """A scale-0.002 DaCapo benchmark's IAR schedule, whose appended
    compiles change functions' levels mid-trace."""
    from repro.analysis.experiments import project_to_model_levels
    from repro.vm.costbenefit import EstimatedModel

    instance = dacapo.load("pmd", scale=0.002)
    projected = project_to_model_levels(instance, EstimatedModel(instance, seed=0))
    schedule = iar(projected).schedule
    compiled = [task.function for task in schedule]
    assert len(compiled) > len(set(compiled))
    return projected, schedule


@pytest.mark.parametrize(
    "make_input,expected",
    [
        (single_level_input, "_batched_timeline"),
        (level_varying_input, "_replay_totals"),
    ],
    ids=["single-level", "level-varying"],
)
def test_evaluate_path_choice(monkeypatch, make_input, expected):
    """Single-install schedules take the batched kernel, any level change
    the chunked replay.  Both paths give the reference's bitwise totals
    and the same ``vecsim.*`` counters, bar the chunked replay's own
    ``vecsim.chunks``, so the committed engine baselines hold whichever
    path the choice takes."""
    instance, schedule = make_input()
    entered = spy_kernels(monkeypatch)
    metrics = MetricsRegistry()
    result = VectorSimulator(instance, metrics=metrics).evaluate(schedule)
    assert entered == [expected]
    reference = simulate(instance, schedule)
    assert_results_equal(result, reference)
    counters, chunks = kernel_counters(metrics)
    assert counters == evaluate_counters(instance, schedule)
    assert (chunks > 0) == (expected == "_replay_totals")
    metrics = MetricsRegistry()
    assert_results_equal(
        chunked_engine(instance, metrics=metrics).evaluate(schedule), reference
    )
    assert kernel_counters(metrics)[0] == evaluate_counters(instance, schedule)


# ---------------------------------------------------------------------------
# the vector engine inside local search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("temperature", [0.0, 0.05])
@pytest.mark.parametrize("threads", [1, 2])
def test_localsearch_walks_reference_trajectory(temperature, threads):
    """The incremental engine walks the reference's search trajectory,
    move outcome for move outcome (only early cutoff exits are its own)."""
    rng = random.Random(4242 + threads)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    mr, mv = MetricsRegistry(), MetricsRegistry()
    ref_sched, ref_stats = improve_schedule(
        instance, schedule, iterations=120, seed=9,
        temperature=temperature, compile_threads=threads,
        engine="reference", metrics=mr,
    )
    vec_sched, vec_stats = improve_schedule(
        instance, schedule, iterations=120, seed=9,
        temperature=temperature, compile_threads=threads,
        engine="vector", metrics=mv,
    )
    assert tuple(vec_sched) == tuple(ref_sched)
    assert vec_stats == ref_stats

    def moves(metrics):
        return {
            name: value
            for name, value in counters_of(metrics).items()
            if name.startswith("localsearch.")
            and name != "localsearch.cutoff_exits"
        }

    assert moves(mv) == moves(mr)


def test_localsearch_rejects_unknown_engine():
    prof = {"f0": FunctionProfile("f0", (1.0,), (1.0,))}
    inst = OCSPInstance(prof, ("f0",), name="tiny")
    with pytest.raises(ValueError):
        improve_schedule(inst, Schedule.of(("f0", 0)), iterations=1, engine="nope")


# ---------------------------------------------------------------------------
# the engine seam
# ---------------------------------------------------------------------------


def test_simulate_engine_dispatch_bitwise_equal():
    rng = random.Random(5150)
    for _ in range(15):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        threads = rng.randint(1, 3)
        r = simulate(instance, schedule, compile_threads=threads)
        assert_results_equal(
            simulate(instance, schedule, compile_threads=threads, engine="vector"),
            r,
        )


def test_simulate_engine_counters_identical():
    rng = random.Random(6)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    snapshots = []
    for engine in ENGINES:
        m = MetricsRegistry()
        simulate(instance, schedule, metrics=m, engine=engine)
        snapshots.append(counters_of(m))
    assert snapshots[0] == snapshots[1]


def test_unknown_engine_rejected_everywhere():
    prof = {"f0": FunctionProfile("f0", (1.0,), (1.0,))}
    inst = OCSPInstance(prof, ("f0",), name="tiny")
    sched = Schedule.of(("f0", 0))
    with pytest.raises(ValueError, match="engine"):
        simulate(inst, sched, engine="warp")
    with pytest.raises(ValueError, match="engine"):
        make_simulator(inst, "warp")
    with pytest.raises(ValueError, match="engine"):
        resolve_engine("warp")


def test_repro_engine_env_sets_default(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    rng = random.Random(8)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    sim = make_simulator(instance)
    assert isinstance(sim, VectorSimulator)
    r = simulate(instance, schedule)  # dispatches through the default
    monkeypatch.delenv("REPRO_ENGINE")
    assert_results_equal(r, simulate(instance, schedule))


def test_reference_engine_object_is_the_oracle_under_any_default(monkeypatch):
    """With the vector engine as the session default, a ``reference``
    engine object still runs the reference loop in every method."""

    def vector_ran(self, *args, **kwargs):
        raise AssertionError("VectorSimulator.evaluate ran")

    rng = random.Random(16)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    expected = simulate(instance, schedule, record_timeline=True)
    monkeypatch.setattr(VectorSimulator, "evaluate", vector_ran)
    set_default_engine("vector")
    try:
        ref = make_simulator(instance, "reference")
        assert_results_equal(ref.evaluate(schedule, record_timeline=True), expected)
        assert ref.bind(schedule) == expected.makespan
        assert ref.propose(schedule) == expected.makespan
        assert_results_equal(ref.preview(schedule, record_timeline=True), expected)
        assert_results_equal(ref.result(record_timeline=True), expected)
    finally:
        set_default_engine(None)


@pytest.mark.parametrize(
    "tasks, match",
    [
        ((("ghost", 0), ("f", 0), ("g", 0)), "unknown function 'ghost'"),
        ((("f", 2), ("g", 0)), "'f' at level 2, but it has 2 levels"),
        ((("f", 1), ("f", 0), ("g", 0)), "recompiles 'f' at level 0 after level 1"),
        ((("f", 0),), "called functions never compiled: g"),
    ],
    ids=["unknown-function", "level-out-of-range", "not-increasing", "uncovered"],
)
def test_engines_reject_the_same_schedules(tasks, match):
    """Every engine runs the one legality check, before any timing."""
    schedule = Schedule.of(*tasks)
    for engine in ENGINES:
        sim = make_simulator(two_function_instance(), engine)
        with pytest.raises(ScheduleError, match=match):
            sim.evaluate(schedule, validate=True)
        with pytest.raises(ScheduleError, match=match):
            sim.bind(schedule, validate=True)


def test_engines_take_preinstalled_code_for_a_task():
    inst = two_function_instance()
    schedule = Schedule.of(("f", 0))
    expected = simulate(inst, schedule, preinstalled={"g": 0})
    for engine in ENGINES:
        sim = make_simulator(inst, engine, preinstalled={"g": 0})
        assert_results_equal(sim.evaluate(schedule, validate=True), expected)
        assert sim.bind(schedule, validate=True) == expected.makespan


def two_function_instance():
    prof = {
        "f": FunctionProfile("f", (1.0, 2.0), (3.0, 1.0)),
        "g": FunctionProfile("g", (1.0,), (2.0,)),
    }
    return OCSPInstance(prof, ("f", "g", "f"), name="two")


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("preinstalled", [False, True], ids=["clean", "preinstalled"])
def test_engines_share_the_projections_first_call_lists(threads, preinstalled):
    """Building an engine copies no per-function list: every engine on a
    projection holds the trace's first-call lists themselves."""
    instance = dacapo.load("antlr", scale=0.002)
    projected = instance.restricted_to_levels(
        {fname: [0, 1] for fname in instance.profiles}
    )
    pre = {projected.called_functions[-1]: 1} if preinstalled else None
    trace = projected.calls
    engines = [
        VectorSimulator(projected, compile_threads=threads, preinstalled=pre)
        for _ in range(2)
    ]
    for sim in engines:
        assert sim._first_pos is trace.first_pos_list
        assert sim._called_fids is trace.first_fids_list


def test_fresh_engines_build_a_schedules_task_arrays_once():
    """The task-array memo lives on the projection, so a fresh engine
    evaluating the same :class:`Schedule` object reuses its arrays."""
    rng = random.Random(12)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    first = VectorSimulator(instance)
    second = VectorSimulator(instance)
    expected = first.evaluate(schedule)
    tfids, tlvls = first._task_arrays(schedule)
    assert_results_equal(second.evaluate(schedule), expected)
    again = second._task_arrays(schedule)
    assert again[0] is tfids and again[1] is tlvls


@pytest.fixture()
def no_cyclic_gc():
    """Freeing must happen by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_cached_engines_do_not_keep_their_instance_alive(no_cyclic_gc):
    """A projection driven through the vector engine (IAR and
    ``simulate``) and both runtimes is freed with its last reference:
    the tables it keeps hold no engine, so no cycle runs through it."""
    instance = dacapo.load("antlr", scale=0.002)
    projected = instance.restricted_to_levels(
        {fname: [0, 1] for fname in instance.profiles}
    )
    schedule = iar(projected, engine="vector").schedule
    simulate(projected, schedule, engine="vector")
    run_jikes(projected)
    run_v8(projected)
    assert projected._arrays is not None
    ref = weakref.ref(projected)
    del projected
    assert ref() is None


def test_instance_pickles_without_its_engine_cache():
    """The per-projection tables (with their schedule memo) stay in
    their process and rebuild on first use."""
    rng = random.Random(14)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    expected = simulate(instance, schedule, engine="vector")
    clone = pickle.loads(pickle.dumps(instance))
    assert clone == instance
    assert instance._arrays is not None
    assert not hasattr(clone, "_arrays")
    assert_results_equal(simulate(clone, schedule, engine="vector"), expected)


def test_uncached_engine_keeps_its_instance(no_cyclic_gc):
    rng = random.Random(13)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    expected = simulate(instance, schedule)
    ref = weakref.ref(instance)
    engines = [make_simulator(instance, engine=name) for name in ENGINES]
    del instance
    assert ref() is not None
    for engine in engines:
        assert_results_equal(engine.evaluate(schedule), expected)


# ---------------------------------------------------------------------------
# the batched kernel and the chunked replay
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(instances(max_functions=5, max_levels=3, max_calls=16), st.randoms())
def test_fallback_differential_hypothesis(instance, hyp_rng):
    """A single-install schedule takes the batched kernel (which verifies
    its guesses and falls back to the chunked replay on any mismatch);
    forced onto the chunked replay, the engine gives the same bitwise
    result, and so it does for a recompiling schedule."""
    rng = random.Random(hyp_rng.randrange(1 << 30))
    vec = VectorSimulator(instance)
    chunked = chunked_engine(instance)
    for schedule in (uniform_schedule(instance, rng), random_schedule(instance, rng)):
        expected = simulate(instance, schedule)
        assert_results_equal(vec.evaluate(schedule), expected)
        assert_results_equal(chunked.evaluate(schedule), expected)
