"""Tracing- and metrics-disabled overhead of the instrumented engines.

The observability layer's contract is "disabled means absent": with
``tracer=None`` / ``metrics=None`` (the defaults everywhere) the only
added cost on a hot path is one ``is None`` branch per emission site.
This harness times the public ``simulate()`` (which now routes through
the tracer and metrics checks) against the private ``_simulate`` body
it wraps, and asserts the ratio stays under
``REPRO_TRACE_OVERHEAD_MAX`` (default 1.05, i.e. < 5%).  The same
discipline covers the perf counter hooks: a ``VectorSimulator`` with no
registry attached must evaluate at parity with one that never heard of
metrics — counting happens at call boundaries, never inside the replay
loops.  Each ratio is the median of per-pair ratios over interleaved
samples (:func:`repro.perf.paired_ratio`), so host drift on a shared
machine moves both arms of a pair alike.

Also usable as a plain script for the CI smoke job::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.makespan import _simulate, simulate
from repro.core.single_level import base_level_schedule
from repro.observability import Tracer
from repro.perf import paired_ratio
from repro.workloads import WorkloadSpec, generate

OVERHEAD_MAX = float(os.environ.get("REPRO_TRACE_OVERHEAD_MAX", "1.05"))

SPEC = WorkloadSpec(
    name="trace-overhead",
    num_functions=300,
    num_calls=100_000,
    num_levels=4,
    base_compile_us=50.0,
    mean_exec_us=2.0,
)

INSTANCE = generate(SPEC, seed=42)
SCHEDULE = base_level_schedule(INSTANCE)


def measure_overhead_ratio() -> float:
    """public simulate(tracer=None) time / private _simulate time."""
    # Warm both paths first so allocator/caching effects cancel out.
    simulate(INSTANCE, SCHEDULE, validate=False)
    _simulate(INSTANCE, SCHEDULE)
    return paired_ratio(
        lambda: simulate(INSTANCE, SCHEDULE, validate=False),
        lambda: _simulate(INSTANCE, SCHEDULE),
    )


def test_tracing_disabled_overhead_is_negligible():
    ratio = measure_overhead_ratio()
    assert ratio < OVERHEAD_MAX, (
        f"simulate() with tracing disabled is {ratio:.3f}x the direct "
        f"engine (limit {OVERHEAD_MAX})"
    )


def test_traced_run_equals_untraced_run():
    plain = simulate(INSTANCE, SCHEDULE, validate=False)
    traced = simulate(INSTANCE, SCHEDULE, validate=False, tracer=Tracer())
    assert traced.makespan == plain.makespan
    assert traced.total_bubble_time == plain.total_bubble_time


def measure_metrics_overhead_ratio() -> float:
    """VectorSimulator evaluate with metrics=None vs enabled registry.

    The disabled path must be at parity (the counter hooks sit at call
    boundaries, so even the *enabled* path adds only O(1) per call) —
    the ratio here is disabled/enabled, expected ~1.0.  One evaluation
    takes under 2 ms here, so each timed sample runs twenty of them to
    keep scheduler noise out of the ratio.
    """
    from repro.core.vecsim import VectorSimulator
    from repro.observability import MetricsRegistry

    disabled = VectorSimulator(INSTANCE)
    enabled = VectorSimulator(INSTANCE, metrics=MetricsRegistry())

    def run(engine):
        for _ in range(20):
            engine.evaluate(SCHEDULE)

    run(disabled)
    run(enabled)
    return paired_ratio(lambda: run(disabled), lambda: run(enabled))


def test_metrics_disabled_runs_at_parity():
    # Guard against hooks creeping into the replay loops: disabled must
    # not be slower than enabled beyond the noise limit (enabled does
    # strictly more work, so disabled/enabled > limit means the
    # disabled path itself regressed).
    ratio = measure_metrics_overhead_ratio()
    assert ratio < OVERHEAD_MAX, (
        f"VectorSimulator with metrics disabled is {ratio:.3f}x the "
        f"enabled engine (limit {OVERHEAD_MAX})"
    )


def test_metrics_never_change_the_numbers():
    from repro.core.vecsim import VectorSimulator
    from repro.observability import MetricsRegistry

    plain = VectorSimulator(INSTANCE).evaluate(SCHEDULE)
    reg = MetricsRegistry()
    counted = VectorSimulator(INSTANCE, metrics=reg).evaluate(SCHEDULE)
    assert counted.makespan == plain.makespan
    assert counted.total_bubble_time == plain.total_bubble_time
    assert reg.counter("vecsim.calls_replayed").value == len(INSTANCE.calls)


def main() -> int:
    ratio = measure_overhead_ratio()
    print(f"tracing-disabled overhead: {ratio:.4f}x (limit {OVERHEAD_MAX}x)")
    if ratio >= OVERHEAD_MAX:
        print("FAIL: overhead above limit")
        return 1
    test_traced_run_equals_untraced_run()
    print("traced run bitwise-identical to untraced run: ok")
    mratio = measure_metrics_overhead_ratio()
    print(
        f"metrics-disabled / metrics-enabled vecsim: {mratio:.4f}x "
        f"(limit {OVERHEAD_MAX}x)"
    )
    if mratio >= OVERHEAD_MAX:
        print("FAIL: metrics-disabled path above limit")
        return 1
    test_metrics_never_change_the_numbers()
    print("counted run bitwise-identical to uncounted run: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
