"""Turn recorded simulation timelines into trace events.

``core/makespan.simulate`` and ``core/vecsim.VectorSimulator`` already
reconstruct complete per-task and per-call timelines when asked
(``record_timeline=True``); rather than sprinkling emission sites
through their hot loops, their tracing support records the timeline
once and converts it here, after the fact.  The reactive simulators in
:mod:`repro.vm` emit events inline instead, because their timelines are
emergent and never materialized.
"""

from __future__ import annotations

from .tracer import TraceError

__all__ = ["trace_makespan_result"]


def trace_makespan_result(tracer, result, execute_track: str = "execute") -> None:
    """Emit trace events for a ``MakespanResult`` with timelines.

    Produces one ``compiler-{tid}`` track per compiler thread (compile
    spans carrying the function and level), plus the execution track:
    invocation spans carrying the level used, bubble spans for stalls,
    and a cumulative ``bubble_total`` counter.

    Args:
        tracer: a :class:`Tracer` or :class:`TraceScope`.
        result: ``MakespanResult`` from ``simulate(...,
            record_timeline=True)`` (or ``VectorSimulator`` equivalent).
        execute_track: name of the execution-thread track.

    Raises:
        TraceError: if the result was produced without
            ``record_timeline=True`` (timelines are ``None``).
    """
    if result.task_timings is None or result.call_timings is None:
        raise TraceError(
            "result has no timelines; run simulate(..., record_timeline=True)"
        )

    for timing in result.task_timings:
        tracer.span(
            f"compile {timing.function} L{timing.level}",
            f"compiler-{timing.thread}",
            timing.start,
            timing.finish,
            category="compile",
            args={"function": timing.function, "level": timing.level},
        )

    prev = 0.0
    bubble_total = 0.0
    for call in result.call_timings:
        if call.bubble > 0.0:
            # The bubble span's left edge is the previous finish, not
            # ``start - bubble``: float subtraction could open a hairline
            # gap or overlap that the exporter's non-overlap check (which
            # is exact) would reject.
            tracer.span(
                "bubble",
                execute_track,
                prev,
                call.start,
                category="bubble",
                args={"function": call.function, "bubble": call.bubble},
            )
            bubble_total += call.bubble
            tracer.counter("bubble_total", "bubbles", call.start, bubble_total)
        tracer.span(
            call.function,
            execute_track,
            call.start,
            call.finish,
            category="call",
            args={"level": call.level},
        )
        prev = call.finish
