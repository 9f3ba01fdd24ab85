"""Differential tests: the reactive runtime vs its references.

Two references pin :class:`~repro.vm.runtime.RuntimeSimulator`:

* **the per-call loop.**  The runtime replays event by event
  (chunks of calls between installs, first calls and promotions one at
  a time).  :class:`PerCallRuntime` below keeps the call-at-a-time loop
  it replaced, verbatim, tracer calls included; every
  :class:`~repro.vm.runtime.RuntimeRunResult` field must match it bit
  for bit (``calls_at_level`` down to its key order), and traced runs
  must record the same events.  ``tests/test_golden_traces.py`` pins a
  digest of those fields, so the copy cannot drift either.
* **the schedule simulators.**  A run *is* a make-span simulation of
  its emergent schedule, provided each compile task is held back until
  the moment the runtime enqueued it: replaying ``run.schedule`` through
  :func:`repro.core.makespan.simulate` (and the vector engine) with
  ``release_times=run.enqueue_times`` must reproduce the runtime's
  numbers bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OCSPInstance
from repro.core.makespan import simulate
from repro.core.schedule import Schedule
from repro.core.vecsim import VectorSimulator
from repro.faults import FaultInjector
from repro.observability import Tracer
from repro.vm.costbenefit import EstimatedModel, OracleModel
from repro.vm.hotspot import TieredScheme
from repro.vm.jikes import JikesScheme, run_jikes
from repro.vm.runtime import RuntimeRunResult, RuntimeScheme, RuntimeSimulator
from repro.vm.v8 import V8Scheme, run_v8
from repro.workloads import dacapo

from test_properties import instances, profiles_strategy, zero_times

SCALE = 0.002
BENCHMARKS = sorted(dacapo.BENCHMARKS)


class PerCallRuntime(RuntimeSimulator):
    """The runtime with its former call-at-a-time replay loop.

    ``run`` is that loop, copied unchanged: it calls
    ``scheme.on_call_start`` at every call (the base class's adapter over
    ``promotions``) and reads ``_finish_events`` directly.
    """

    def run(self) -> RuntimeRunResult:
        """Replay the call sequence; returns timings and the emergent
        compilation schedule."""
        self._thread_free = [(0.0, tid) for tid in range(self.compile_threads)]
        heapq.heapify(self._thread_free)
        self._tasks = []
        self._enqueue_times = []
        self._finish_events = {}
        self._requested_level = {}

        instance = self.instance
        scheme = self.scheme
        period = self.sample_period
        tracer = self.tracer

        invocations: Dict[str, int] = {}
        samples: Dict[str, int] = {}
        samples_taken = 0
        calls_at_level: Dict[int, int] = {}
        total_bubble = 0.0
        total_exec = 0.0
        t = 0.0
        # Sampler tick ``i`` fires at ``i * period`` (i >= 1).  Indexing
        # ticks (rather than accumulating ``next_tick += period``) lets
        # non-observing ticks — bubbles, stretches between calls — be
        # skipped arithmetically in O(1) instead of looped over.
        tick = 1

        for fname in instance.calls:
            invocation = invocations.get(fname, 0) + 1
            invocations[fname] = invocation
            if invocation == 1:
                # First encounter: request the baseline compilation now.
                self.enqueue(fname, scheme.initial_level(fname), t)
            scheme.on_call_start(self, fname, invocation, t)

            events = self._finish_events[fname]
            first_ready = events[0][0]
            start = t if t >= first_ready else first_ready
            total_bubble += start - t
            best = -1
            for finish_time, level in events:
                if finish_time <= start and level > best:
                    best = level
            exec_time = instance.profiles[fname].exec_times[best]
            finish = start + exec_time
            total_exec += exec_time
            calls_at_level[best] = calls_at_level.get(best, 0) + 1
            if tracer is not None:
                if start > t:
                    tracer.span(
                        "bubble", "execute", t, start,
                        category="bubble",
                        args={"function": fname, "bubble": start - t},
                    )
                    tracer.counter("bubble_total", "bubbles", start, total_bubble)
                tracer.span(
                    fname, "execute", start, finish,
                    category="call",
                    args={"level": best, "invocation": invocation},
                )

            # Sampler ticks: those inside (start, finish] observe fname;
            # ticks inside the bubble observe a stalled thread and are
            # jumped over without iterating (the former per-period walk
            # made long bubbles O(duration / period)).
            if tick * period <= finish:
                if tick * period <= start:
                    # First tick strictly after `start`, computed
                    # arithmetically; the two nudge loops absorb float
                    # rounding of the division and run O(1) times.
                    k = int(start / period) + 1
                    while (k - 1) * period > start:
                        k -= 1
                    while k * period <= start:
                        k += 1
                    if k > tick:
                        tick = k
                t_tick = tick * period
                faults = self.faults
                while t_tick <= finish:
                    if faults is not None and faults.drop_tick(tick):
                        if tracer is not None:
                            tracer.instant(
                                f"tick-drop {fname}", "sampler", t_tick,
                                category="fault",
                                args={"function": fname, "tick": tick},
                            )
                        tick += 1
                        t_tick = tick * period
                        continue
                    deliveries = (
                        2
                        if faults is not None and faults.duplicate_tick(tick)
                        else 1
                    )
                    for _ in range(deliveries):
                        ks = samples.get(fname, 0) + 1
                        samples[fname] = ks
                        samples_taken += 1
                        scheme.on_sample(self, fname, ks, t_tick)
                        if tracer is not None:
                            tracer.instant(
                                f"sample {fname}", "sampler", t_tick,
                                category="sample",
                                args={"function": fname, "k": ks},
                            )
                    tick += 1
                    t_tick = tick * period
            t = finish

        return RuntimeRunResult(
            schedule=Schedule(tuple(self._tasks)),
            enqueue_times=tuple(self._enqueue_times),
            makespan=t,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
            samples_taken=samples_taken,
            fault_summary=(
                self.faults.summary() if self.faults is not None else None
            ),
        )


def _fields(run: RuntimeRunResult):
    """Every result field, ``calls_at_level`` with its key order."""
    return (
        run.schedule,
        run.enqueue_times,
        run.makespan,
        run.total_bubble_time,
        run.total_exec_time,
        list(run.calls_at_level.items()),
        run.samples_taken,
        run.fault_summary,
    )


def _events(tracer: Tracer):
    """Recorded events as a sorted multiset (emission order may differ:
    the replay emits each chunk's call spans when the chunk commits)."""
    return sorted(map(repr, tracer.events))


def _assert_same_as_per_call(instance, make_scheme, traced=False, spec=None, **kw):
    tracers = (Tracer(), Tracer()) if traced else (None, None)
    runs = [
        cls(
            instance,
            make_scheme(instance),
            tracer=tracer,
            faults=FaultInjector(spec) if spec is not None else None,
            **kw,
        ).run()
        for cls, tracer in zip((RuntimeSimulator, PerCallRuntime), tracers)
    ]
    assert repr(_fields(runs[0])) == repr(_fields(runs[1]))
    if traced:
        assert _events(tracers[0]) == _events(tracers[1])
    return runs[0]


def _honest_oracle(instance):
    return OracleModel(
        instance, hotness_optimism=1.0, hotness_sigma=0.0, hotness_floor=0.0
    )


SCHEMES = {
    "jikes-oracle": lambda inst: JikesScheme(_honest_oracle(inst)),
    "jikes-estimated": lambda inst: JikesScheme(EstimatedModel(inst, seed=0)),
    "v8": lambda inst: V8Scheme(),
    "tiered": lambda inst: TieredScheme((1, 2, 5)),
}

FAULT_SPECS = [
    "compile_fail=0.3,tick_drop=0.2,tick_dup=0.2,seed=3",
    "compile_fail=0.5,stall=0.4,backoff=1.5,retries=2,seed=7",
    "compile_fail=0.9,retries=0,tick_dup=0.5,seed=1",
    "stall=0.5,stall_factor=3.0,tick_drop=0.5,seed=11",
]


@settings(max_examples=300, deadline=None)
@given(
    instances(max_functions=4, max_levels=3, max_calls=24, values=zero_times),
    st.sampled_from(sorted(SCHEMES)),
    st.floats(min_value=0.01, max_value=10.0),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.none(), st.sampled_from(FAULT_SPECS)),
    st.booleans(),
)
def test_replay_matches_the_per_call_loop(
    instance, scheme, period, threads, spec, traced
):
    _assert_same_as_per_call(
        instance,
        SCHEMES[scheme],
        traced=traced,
        spec=spec,
        sample_period=period,
        compile_threads=threads,
    )


@st.composite
def tie_instances(draw):
    """Small whole-number times and longer call sequences: installs
    finish exactly where calls start and ticks land exactly on call
    boundaries, the edges of the chunk cut (``side="left"``) and of the
    tick owner search."""
    profiles = draw(
        profiles_strategy(
            max_functions=4,
            max_levels=3,
            values=st.sampled_from((0.0, 1.0, 2.0, 3.0, 4.0)),
        )
    )
    calls = draw(
        st.lists(st.sampled_from(sorted(profiles)), min_size=20, max_size=60)
    )
    return OCSPInstance(profiles, tuple(calls), name="ties")


@settings(max_examples=300, deadline=None)
@given(
    tie_instances(),
    st.sampled_from(sorted(SCHEMES)),
    st.sampled_from((0.5, 1.0, 2.0, 3.0)),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.none(), st.sampled_from(FAULT_SPECS)),
)
def test_replay_matches_the_per_call_loop_on_exact_ties(
    instance, scheme, period, threads, spec
):
    _assert_same_as_per_call(
        instance,
        SCHEMES[scheme],
        spec=spec,
        sample_period=period,
        compile_threads=threads,
    )


@pytest.mark.parametrize("name", BENCHMARKS)
def test_presets_match_the_per_call_loop(name):
    instance = dacapo.load(name, scale=SCALE)
    for scheme in ("jikes-estimated", "v8"):
        for threads in (1, 2, 4):
            _assert_same_as_per_call(
                instance, SCHEMES[scheme], compile_threads=threads
            )
        _assert_same_as_per_call(instance, SCHEMES[scheme], spec=FAULT_SPECS[0])


def test_traced_presets_record_the_per_call_loops_events():
    instance = dacapo.load("fop", scale=SCALE)
    for scheme in ("jikes-estimated", "v8", "tiered"):
        _assert_same_as_per_call(instance, SCHEMES[scheme], traced=True)
    _assert_same_as_per_call(
        instance, SCHEMES["jikes-estimated"], traced=True, spec=FAULT_SPECS[1]
    )


def test_full_length_trace_matches_the_per_call_loop():
    instance = dacapo.load("antlr", scale=0.1)
    for scheme in ("jikes-estimated", "v8"):
        _assert_same_as_per_call(instance, SCHEMES[scheme])


def test_scheme_overriding_on_call_start_is_rejected():
    class PerCallHook(RuntimeScheme):
        def initial_level(self, fname):
            return 0

        def on_call_start(self, runtime, fname, invocation, time):
            pass

    instance = dacapo.load("antlr", scale=SCALE)
    with pytest.raises(TypeError, match="on_call_start"):
        RuntimeSimulator(instance, PerCallHook())


def _assert_replay_matches(instance, run, compile_threads=1):
    replay = simulate(
        instance,
        run.schedule,
        compile_threads=compile_threads,
        release_times=run.enqueue_times,
        validate=False,
    )
    assert replay.makespan == run.makespan
    assert replay.total_bubble_time == run.total_bubble_time
    assert replay.total_exec_time == run.total_exec_time
    assert replay.calls_at_level == run.calls_at_level

    vec = VectorSimulator(instance, compile_threads=compile_threads)
    vec_result = vec.evaluate(run.schedule, release_times=run.enqueue_times)
    assert vec_result.makespan == run.makespan
    assert vec_result.total_bubble_time == run.total_bubble_time


@pytest.mark.parametrize("name", BENCHMARKS)
def test_jikes_replay_is_bitwise_identical(name):
    instance = dacapo.load(name, scale=SCALE)
    _assert_replay_matches(instance, run_jikes(instance))


@pytest.mark.parametrize("name", BENCHMARKS)
def test_v8_replay_is_bitwise_identical(name):
    instance = dacapo.load(name, scale=SCALE)
    _assert_replay_matches(instance, run_v8(instance))


def test_multithreaded_replay_matches():
    instance = dacapo.load("antlr", scale=SCALE)
    for threads in (2, 4):
        _assert_replay_matches(
            instance, run_jikes(instance, compile_threads=threads), threads
        )


def test_release_times_length_is_checked():
    instance = dacapo.load("antlr", scale=SCALE)
    run = run_jikes(instance)
    with pytest.raises(ValueError, match="release_times"):
        simulate(
            instance,
            run.schedule,
            release_times=run.enqueue_times[:-1],
            validate=False,
        )
    with pytest.raises(ValueError, match="release_times"):
        VectorSimulator(instance).evaluate(
            run.schedule, release_times=run.enqueue_times[:-1]
        )


def test_without_release_times_the_replay_is_no_slower():
    """Dropping the release constraint can only start compiles earlier."""
    instance = dacapo.load("fop", scale=SCALE)
    run = run_v8(instance)
    free = simulate(instance, run.schedule, validate=False)
    assert free.makespan <= run.makespan
