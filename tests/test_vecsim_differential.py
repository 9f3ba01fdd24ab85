"""Differential battery: VectorSimulator vs FastSimulator vs reference.

The vector engine promises *bitwise* equality with both other engines —
same float operations in the same order — for full evaluation, totals,
timelines, fault-degraded runs (``task_compile_times`` /
``task_installs``), the incremental propose/commit path, and the work
counters (``fastsim.*`` down to ``span_calls_replayed``, whose value
depends on the replay chunk schedule the vector kernel mirrors
exactly).  The battery drives random instances, costs, call sequences,
compiler-thread counts, and fault specs through all three engines, and
pins the zero-length and single-call edges.

The same tests double as the no-numpy gate: ``REPRO_NO_NUMPY=1`` makes
``VectorSimulator`` fall back to the fast engine's pure-Python path,
and the whole battery must still pass (CI runs it both ways).
"""

from __future__ import annotations

import gc
import math
import pickle
import random
import weakref
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CompileTask,
    FastSimulator,
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
from repro.core.vecsim import numpy_available
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


def engines_for(instance, threads=1, preinstalled=None):
    return (
        ReferenceSimulator(instance, compile_threads=threads, preinstalled=preinstalled),
        FastSimulator(instance, compile_threads=threads, preinstalled=preinstalled),
        VectorSimulator(instance, compile_threads=threads, preinstalled=preinstalled),
    )


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=4), st.randoms())
def test_evaluate_three_engines_bitwise_equal(instance, threads, hyp_rng):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    ref, fast, vec = engines_for(instance, threads)
    for record in (False, True):
        r = ref.evaluate(schedule, record_timeline=record)
        assert_results_equal(fast.evaluate(schedule, record_timeline=record), r)
        assert_results_equal(vec.evaluate(schedule, record_timeline=record), r)


def test_evaluate_seeded_generator_sweep():
    rng = random.Random(20260808)
    for _ in range(60):
        instance = random_instance(rng)
        threads = rng.randint(1, 4)
        schedule = random_schedule(instance, rng)
        ref, fast, vec = engines_for(instance, threads)
        r = ref.evaluate(schedule)
        assert_results_equal(fast.evaluate(schedule), r)
        assert_results_equal(vec.evaluate(schedule), r)


def test_single_call_trace():
    prof = {"f0": FunctionProfile("f0", (1.0, 2.0), (4.0, 1.0))}
    inst = OCSPInstance(prof, ("f0",), name="tiny")
    sched = Schedule.of(("f0", 0))
    ref, fast, vec = engines_for(inst)
    r = ref.evaluate(sched, record_timeline=True)
    assert_results_equal(vec.evaluate(sched, record_timeline=True), r)
    assert r.makespan == 1.0 + 4.0  # compile then blocked first call


def test_zero_length_trace():
    prof = {"f0": FunctionProfile("f0", (1.0,), (4.0,))}
    inst = OCSPInstance(prof, (), name="empty")
    sched = Schedule(())
    ref, fast, vec = engines_for(inst)
    for engine in (ref, fast, vec):
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
        fast = FastSimulator(instance, preinstalled=pre)
        vec = VectorSimulator(instance, preinstalled=pre)
        r = simulate(instance, schedule, preinstalled=pre, record_timeline=True)
        assert_results_equal(fast.evaluate(schedule, record_timeline=True), r)
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
        ref = results[0]
        for other in results[1:]:
            assert_results_equal(other, ref)
        # The degradation decisions precede the engine: identical plans.
        for p in plans[1:]:
            assert p.tasks == plans[0].tasks
            assert p.compile_times == plans[0].compile_times
            assert p.installs == plans[0].installs
            assert p.summary() == plans[0].summary()


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
        fast = FastSimulator(instance)
        vec = VectorSimulator(instance)
        assert_results_equal(fast.evaluate(schedule, **kw), r)
        assert_results_equal(vec.evaluate(schedule, **kw), r)


# ---------------------------------------------------------------------------
# incremental propose/commit + counter identity (fastsim.* families)
# ---------------------------------------------------------------------------


def test_incremental_chain_and_counters_identical():
    """fast and vector walk identical propose/commit chains AND report
    identical work counters — including ``fastsim.span_calls_replayed``,
    which is only equal because the vector kernel mirrors the fast
    engine's cutoff-replay chunk schedule exactly."""
    rng = random.Random(424242)
    for _ in range(40):
        instance = random_instance(rng)
        threads = rng.randint(1, 4)
        mf, mv = MetricsRegistry(), MetricsRegistry()
        fast = FastSimulator(instance, compile_threads=threads, metrics=mf)
        vec = VectorSimulator(instance, compile_threads=threads, metrics=mv)
        schedule = random_schedule(instance, rng)
        assert fast.bind(schedule) == vec.bind(schedule)
        tasks = list(schedule)
        for _ in range(8):
            proposal = _propose(instance, tasks, rng)
            if proposal is None:
                continue
            cutoff = fast.baseline_makespan if rng.random() < 0.5 else None
            sf = fast.propose(proposal, cutoff=cutoff)
            sv = vec.propose(proposal, cutoff=cutoff)
            assert sf == sv or (math.isinf(sf) and math.isinf(sv))
            if not math.isinf(sf) and rng.random() < 0.6:
                assert fast.commit() == vec.commit()
                tasks = proposal
        assert_results_equal(
            vec.result(record_timeline=True), fast.result(record_timeline=True)
        )
        assert counters_of(mv) == counters_of(mf)


def test_evaluate_counters_identical():
    rng = random.Random(77)
    for _ in range(20):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        mf, mv = MetricsRegistry(), MetricsRegistry()
        FastSimulator(instance, metrics=mf).evaluate(schedule)
        VectorSimulator(instance, metrics=mv).evaluate(schedule)
        assert counters_of(mv) == counters_of(mf)


def force_path(monkeypatch, path):
    """Pin the vector engine's batched/chunked choice for one test."""
    limit = {"batched": 1 << 30, "chunked": -1}[path]
    monkeypatch.setattr(VectorSimulator, "BATCHED_MAX_VARYING", limit)


def edge_thresholds(instance, schedule, threads=1, preinstalled=None):
    """Every exact call start (where ``<`` and ``>=`` part ways), 0.0,
    the make-span and a point past it."""
    timings = simulate(
        instance,
        schedule,
        compile_threads=threads,
        preinstalled=preinstalled,
        record_timeline=True,
    ).call_timings
    span = timings[-1].finish if timings else 0.0
    return sorted({t.start for t in timings}) + [0.0, span, span + 1.0]


def threshold_pairs(thr):
    """Both thresholds, then only ``before_time``, then only
    ``after_time``."""
    return ((thr, thr), (thr, None), (None, thr))


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
            for thr in edge_thresholds(instance, schedule):
                for before, after in threshold_pairs(thr):
                    assert vec.trace_stats(schedule, before, after) == _trace_stats(
                        instance, schedule, before, after
                    )


@pytest.mark.parametrize("threads", [2, 4])
def test_trace_stats_multithread_matches_fast(threads):
    rng = random.Random(310 + threads)
    for _ in range(15):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        fast = FastSimulator(instance, compile_threads=threads)
        vec = VectorSimulator(instance, compile_threads=threads)
        for thr in edge_thresholds(instance, schedule, threads):
            for before, after in threshold_pairs(thr):
                assert vec.trace_stats(schedule, before, after) == fast.trace_stats(
                    schedule, before, after
                )


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
        fast = FastSimulator(instance, preinstalled=pre)
        vec = VectorSimulator(instance, preinstalled=pre)
        for thr in edge_thresholds(instance, schedule, preinstalled=pre):
            for before, after in threshold_pairs(thr):
                assert vec.trace_stats(schedule, before, after) == fast.trace_stats(
                    schedule, before, after
                )


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
    (what ``core_simulate_vector`` / ``vecsim_evaluate`` evaluate)."""
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


@pytest.mark.skipif(not numpy_available(), reason="numpy kernels disabled")
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
    # Both paths give bitwise-equal totals and the fast engine's exact
    # fastsim.* counters, so the committed engine baselines hold on
    # whichever path the choice takes.
    fast_metrics = MetricsRegistry()
    reference = FastSimulator(instance, metrics=fast_metrics).evaluate(schedule)
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
        assert counters_of(metrics) == counters_of(fast_metrics)


# ---------------------------------------------------------------------------
# the vector engine inside local search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("temperature", [0.0, 0.05])
@pytest.mark.parametrize("threads", [1, 2])
def test_localsearch_vector_walks_fast_trajectory(temperature, threads):
    rng = random.Random(4242 + threads)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    mf, mv = MetricsRegistry(), MetricsRegistry()
    fast_sched, fast_stats = improve_schedule(
        instance, schedule, iterations=120, seed=9,
        temperature=temperature, compile_threads=threads,
        engine="fast", metrics=mf,
    )
    vec_sched, vec_stats = improve_schedule(
        instance, schedule, iterations=120, seed=9,
        temperature=temperature, compile_threads=threads,
        engine="vector", metrics=mv,
    )
    assert tuple(vec_sched) == tuple(fast_sched)
    assert vec_stats == fast_stats
    assert counters_of(mv) == counters_of(mf)


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
        for engine in ("fast", "vector"):
            assert_results_equal(
                simulate(
                    instance, schedule, compile_threads=threads, engine=engine
                ),
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
    assert snapshots[0] == snapshots[1] == snapshots[2]


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
# no-numpy fallback
# ---------------------------------------------------------------------------


def test_no_numpy_fallback_still_exact(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    from repro.core.vecsim import numpy_available

    assert not numpy_available()
    rng = random.Random(2026)
    for _ in range(10):
        instance = random_instance(rng)
        schedule = random_schedule(instance, rng)
        vec = VectorSimulator(instance)
        assert vec._np is None
        assert_results_equal(
            vec.evaluate(schedule, record_timeline=True),
            simulate(instance, schedule, record_timeline=True),
        )


def test_fallback_counters_match_numpy_path():
    rng = random.Random(2027)
    instance = random_instance(rng)
    schedule = random_schedule(instance, rng)
    mv, mp = MetricsRegistry(), MetricsRegistry()
    VectorSimulator(instance, metrics=mv).evaluate(schedule)
    plain = VectorSimulator(instance, metrics=mp)
    plain._np = None  # force the pure-Python path post-construction
    plain.evaluate(schedule)
    assert counters_of(mp) == counters_of(mv)


def random_calls_strategy():
    return st.lists(
        st.sampled_from(["f0", "f1", "f2"]), min_size=0, max_size=30
    )


@settings(max_examples=60, deadline=None)
@given(instances(max_functions=5, max_levels=3, max_calls=16), st.randoms())
def test_fallback_differential_hypothesis(instance, hyp_rng):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    vec = VectorSimulator(instance)
    plain = VectorSimulator(instance)
    plain._np = None
    assert_results_equal(
        plain.evaluate(schedule, record_timeline=True),
        vec.evaluate(schedule, record_timeline=True),
    )
