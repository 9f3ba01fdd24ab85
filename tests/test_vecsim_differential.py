"""Differential battery: VectorSimulator vs the reference.

The vector engine promises *bitwise* equality with the reference oracle
— same float operations in the same order — for full evaluation (both
its batched and its chunked totals kernel), timelines, trace passes,
fault-degraded runs (``task_compile_times`` / ``task_installs``) and
the incremental propose/commit path.  Its ``vecsim.*`` work counters
count the same work whichever kernel runs.  The battery drives random
instances, costs, call sequences, compiler-thread counts, and fault
specs through both engines, and pins the zero-length and single-call
edges.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FunctionProfile,
    OCSPInstance,
    Schedule,
    VectorSimulator,
    make_simulator,
    simulate,
)
from repro.core.engine import ENGINES, ReferenceSimulator, resolve_engine
from repro.core.iar import _trace_stats, iar
from repro.core.localsearch import _propose, improve_schedule
from repro.faults import simulate_with_faults
from repro.observability import MetricsRegistry
from repro.perf.harness import counters_of
from repro.vm.jikes import run_jikes
from repro.vm.v8 import run_v8
from repro.workloads import dacapo

from test_fast_simulator import (
    assert_results_equal,
    instances,
    random_instance,
    random_schedule,
)

FAULT_SPECS = [
    "compile_fail=0.4,seed=3",
    "compile_fail=0.7,retries=0,seed=9",
    "stall=0.5,stall_factor=4.0,seed=2",
    "compile_fail=0.3,stall=0.3,retries=2,seed=17",
]


def engines_for(instance, threads=1):
    return (
        ReferenceSimulator(instance, compile_threads=threads),
        VectorSimulator(instance, compile_threads=threads),
    )


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=4), st.randoms())
def test_evaluate_three_engines_bitwise_equal(instance, threads, hyp_rng):
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


def test_preinstalled_three_engines():
    rng = random.Random(13)
    for _ in range(20):
        instance = random_instance(rng)
        pre = {
            fname: rng.randrange(instance.profiles[fname].num_levels)
            for fname in instance.called_functions
            if rng.random() < 0.5
        }
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
def test_faulted_runs_three_engines(spec):
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


def test_direct_override_arrays_three_engines():
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
# incremental propose/commit and the vecsim.* work counters
# ---------------------------------------------------------------------------


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
    """The counters one plain evaluation records, on either kernel."""
    n = len(instance.calls)
    return {
        "vecsim.evaluations": 1,
        "vecsim.prepares": 1,
        "vecsim.tasks_prepared": len(schedule),
        "vecsim.replays": 1,
        "vecsim.calls_replayed": n,
    }


def test_evaluate_counters_identical():
    rng = random.Random(77)
    for _ in range(20):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        metrics = MetricsRegistry()
        VectorSimulator(instance, metrics=metrics).evaluate(schedule)
        assert counters_of(metrics) == evaluate_counters(instance, schedule)


def force_path(monkeypatch, path):
    """Pin the vector engine's batched/chunked choice for one test."""
    limit = {"batched": 1 << 30, "chunked": -1}[path]
    monkeypatch.setattr(VectorSimulator, "BATCHED_MAX_VARYING", limit)


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
    recorded timeline (which, unlike ``iar._trace_stats``, knows
    preinstalled functions)."""
    firsts, counts_before, counts_after = {}, {}, {}
    for t in timings:
        firsts.setdefault(t.function, t.start)
        if before is not None and t.start < before:
            counts_before[t.function] = counts_before.get(t.function, 0) + 1
        if after is not None and t.start >= after:
            counts_after[t.function] = counts_after.get(t.function, 0) + 1
    end = timings[-1].finish if timings else 0.0
    return firsts, counts_before, counts_after, end


def test_trace_stats_matches_fast(monkeypatch):
    """One compile thread, both kernel paths: the vector trace pass
    equals the reference ``iar._trace_stats`` at every edge threshold."""
    rng = random.Random(31)
    for _ in range(20):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        for path in ("batched", "chunked"):
            force_path(monkeypatch, path)
            vec = VectorSimulator(instance)
            for thr in edge_thresholds(reference_timeline(instance, schedule)):
                for before, after in threshold_pairs(thr):
                    assert vec.trace_stats(schedule, before, after) == _trace_stats(
                        instance, schedule, before, after
                    )


@pytest.mark.parametrize("threads", [2, 4])
def test_trace_stats_multithread_matches_fast(threads):
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
def test_trace_stats_preinstalled_matches_fast(monkeypatch, path):
    force_path(monkeypatch, path)
    rng = random.Random(313)
    for _ in range(15):
        instance = random_instance(rng)
        pre = {
            fname: rng.randrange(instance.profiles[fname].num_levels)
            for fname in instance.called_functions
            if rng.random() < 0.5
        }
        schedule = Schedule(
            tuple(t for t in random_schedule(instance, rng) if t.function not in pre)
        )
        vec = VectorSimulator(instance, preinstalled=pre)
        timings = reference_timeline(instance, schedule, preinstalled=pre)
        for thr in edge_thresholds(timings):
            for before, after in threshold_pairs(thr):
                expected = timeline_trace_stats(timings, before, after)
                assert vec.trace_stats(schedule, before, after) == expected


# ---------------------------------------------------------------------------
# the evaluate path choice (batched kernel vs chunked exact replay)
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
    """A scale-0.002 DaCapo benchmark's IAR schedule, many of whose
    functions change level."""
    from repro.analysis.experiments import project_to_model_levels
    from repro.vm.costbenefit import EstimatedModel
    from repro.workloads import dacapo

    instance = dacapo.load("pmd", scale=0.002)
    projected = project_to_model_levels(instance, EstimatedModel(instance, seed=0))
    schedule = iar(projected).schedule
    compiled = [task.function for task in schedule]
    varying = {f for f in compiled if compiled.count(f) > 1}
    assert len(varying) > VectorSimulator.BATCHED_MAX_VARYING
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
    instance, schedule = make_input()
    entered = spy_kernels(monkeypatch)
    VectorSimulator(instance).evaluate(schedule)
    assert entered == [expected]
    # Both paths give the reference's bitwise totals and the same
    # vecsim.* counters, so the committed engine baselines hold on
    # whichever path the choice takes.
    reference = simulate(instance, schedule)
    for path in ("batched", "chunked"):
        force_path(monkeypatch, path)
        del entered[:]
        metrics = MetricsRegistry()
        result = VectorSimulator(instance, metrics=metrics).evaluate(schedule)
        assert entered[0] == {
            "batched": "_batched_timeline",
            "chunked": "_replay_totals",
        }[path]
        assert_results_equal(result, reference)
        assert counters_of(metrics) == evaluate_counters(instance, schedule)


# ---------------------------------------------------------------------------
# the vector engine inside local search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("temperature", [0.0, 0.05])
@pytest.mark.parametrize("threads", [1, 2])
def test_localsearch_vector_walks_fast_trajectory(temperature, threads):
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


def test_engine_cache_reused_and_bypassed_with_metrics():
    rng = random.Random(12)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    simulate(instance, schedule, engine="vector")
    cache = instance._engine_cache
    assert len(cache) == 1
    simulate(instance, schedule, engine="vector")
    assert len(cache) == 1  # same engine object reused
    m = MetricsRegistry()
    simulate(instance, schedule, engine="vector", metrics=m)
    assert len(cache) == 1  # metrics runs never enter the cache


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
    """A projection driven through the cached vector engine (IAR and
    ``simulate``) and both runtimes is freed with its last reference:
    the engine cache it owns holds it only weakly."""
    instance = dacapo.load("antlr", scale=0.002)
    projected = instance.restricted_to_levels(
        {fname: [0, 1] for fname in instance.profiles}
    )
    schedule = iar(projected, engine="vector").schedule
    simulate(projected, schedule, engine="vector")
    run_jikes(projected)
    run_v8(projected)
    assert projected._engine_cache and projected._interned.arrays is not None
    ref = weakref.ref(projected)
    del projected
    assert ref() is None


def test_instance_pickles_without_its_engine_cache():
    """Cached engines hold their instance weakly, which pickle cannot
    ship; the per-process caches stay behind and rebuild on first use."""
    rng = random.Random(14)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    expected = simulate(instance, schedule, engine="vector")
    clone = pickle.loads(pickle.dumps(instance))
    assert clone == instance
    assert not hasattr(clone, "_engine_cache")
    assert_results_equal(simulate(clone, schedule, engine="vector"), expected)


def test_uncached_engine_keeps_its_instance(no_cyclic_gc):
    rng = random.Random(13)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    expected = simulate(instance, schedule)
    ref = weakref.ref(instance)
    engines = [
        make_simulator(instance, engine=name, cached=False) for name in ENGINES
    ]
    del instance
    assert ref() is not None
    for engine in engines:
        assert_results_equal(engine.evaluate(schedule), expected)


# ---------------------------------------------------------------------------
# the batched kernel and its chunked fallback
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(instances(max_functions=5, max_levels=3, max_calls=16), st.randoms())
def test_fallback_differential_hypothesis(instance, hyp_rng):
    """Forced onto either totals kernel, the engine gives the same
    bitwise result (the batched kernel verifies its guesses and falls
    back to the chunked replay on any mismatch)."""
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    batched = VectorSimulator(instance)
    batched.BATCHED_MAX_VARYING = 1 << 30
    chunked = VectorSimulator(instance)
    chunked.BATCHED_MAX_VARYING = -1
    expected = simulate(instance, schedule)
    assert_results_equal(batched.evaluate(schedule), expected)
    assert_results_equal(chunked.evaluate(schedule), expected)
