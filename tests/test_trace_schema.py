"""Tracing is observation only: enabling it must not move a single bit.

Every golden benchmark is replayed twice per scheme — tracer off and
tracer on — and the make-spans are compared with ``==`` (no tolerance).
The recorded trace must also survive the Chrome-format validator and
carry the expected tracks.
"""

from __future__ import annotations

import pytest

from repro.core import iar_schedule, simulate
from repro.observability import (
    Tracer,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.vm.jikes import run_jikes
from repro.vm.v8 import run_v8
from repro.workloads import dacapo

SCALE = 0.002


@pytest.mark.parametrize("name", sorted(dacapo.BENCHMARKS))
def test_tracing_is_bitwise_invisible(name):
    instance = dacapo.load(name, scale=SCALE)

    tracer = Tracer()
    plain = run_jikes(instance)
    traced = run_jikes(instance, tracer=tracer.scope("jikes"))
    assert traced.makespan == plain.makespan
    assert traced.samples_taken == plain.samples_taken
    assert traced.schedule == plain.schedule

    plain_v8 = run_v8(instance)
    traced_v8 = run_v8(instance, tracer=tracer.scope("v8"))
    assert traced_v8.makespan == plain_v8.makespan
    assert traced_v8.samples_taken == plain_v8.samples_taken

    sched = iar_schedule(instance)
    plain_iar = simulate(instance, sched)
    traced_iar = simulate(instance, sched, tracer=tracer.scope("iar"))
    assert traced_iar.makespan == plain_iar.makespan
    assert traced_iar.total_bubble_time == plain_iar.total_bubble_time

    # All three runs share one tracer; the export must validate whole.
    data = to_chrome_trace(tracer)
    assert validate_chrome_trace(data) == len(tracer)


def test_trace_carries_expected_tracks():
    instance = dacapo.load("antlr", scale=SCALE)
    tracer = Tracer()
    run_jikes(instance, tracer=tracer)
    tracks = {e.track for e in tracer.events}
    assert "execute" in tracks
    assert "compiler-0" in tracks
    assert "queue" in tracks
    assert "sampler" in tracks
    categories = {e.category for e in tracer.events}
    assert {"compile", "call", "enqueue", "sample"} <= categories


def test_traced_simulate_returns_same_shape():
    """``tracer=`` must not change what callers get back."""
    instance = dacapo.load("fop", scale=SCALE)
    sched = iar_schedule(instance)
    bare = simulate(instance, sched)
    traced = simulate(instance, sched, tracer=Tracer())
    assert bare.task_timings is None and traced.task_timings is None
    with_timeline = simulate(
        instance, sched, record_timeline=True, tracer=Tracer()
    )
    assert with_timeline.task_timings is not None


def test_multithreaded_compile_spans_do_not_overlap_per_thread():
    instance = dacapo.load("hsqldb", scale=SCALE)
    tracer = Tracer()
    run_v8(instance, compile_threads=4, tracer=tracer)
    validate_chrome_trace(to_chrome_trace(tracer))
    compiler_tracks = {
        e.track for e in tracer.events if e.track.startswith("compiler-")
    }
    assert len(compiler_tracks) > 1


def test_exported_span_never_ends_past_the_next_start():
    # A bubble from a faulty V8 run on pmd: ``start + (end - start)``
    # rounds one ulp past ``end``, where the call span begins.
    tracer = Tracer()
    tracer.span("bubble", "execute", 380.3600970817305, 1755.2443994606085)
    tracer.span("f", "execute", 1755.2443994606085, 1755.3)
    doc = to_chrome_trace(tracer)
    assert validate_chrome_trace(doc) == 2
    bubble = doc["traceEvents"][-2]
    assert bubble["ts"] + bubble["dur"] <= 1755.2443994606085

