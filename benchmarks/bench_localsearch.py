"""Near-optimality probe: can local search improve IAR's schedules?

The paper brackets the optimum between the lower bound and IAR; on
traces too large for exact search this bench adds feasible-side
evidence: thousands of randomized schedule edits on top of IAR recover
almost nothing, while the same effort improves the naive base-level
schedule dramatically — IAR is already sitting near a strong local
(and, by the bound, near the global) optimum.
"""

import time

from repro.analysis import average_row, format_figure, format_table
from repro.analysis.experiments import project_to_model_levels
from repro.core import lower_bound
from repro.core.iar import iar_schedule
from repro.core.localsearch import improve_schedule
from repro.core.single_level import base_level_schedule
from repro.vm.costbenefit import EstimatedModel

ITERATIONS = 800


def _sweep(suite):
    rows = []
    for name, instance in suite.items():
        model = EstimatedModel(instance)
        projected = project_to_model_levels(instance, model)
        lb = lower_bound(projected)
        iar_sched = iar_schedule(projected)
        _, iar_stats = improve_schedule(
            projected, iar_sched, iterations=ITERATIONS, seed=13
        )
        base_sched = base_level_schedule(projected)
        _, base_stats = improve_schedule(
            projected, base_sched, iterations=ITERATIONS, seed=13
        )
        rows.append(
            {
                "benchmark": name,
                "iar": iar_stats.initial_makespan / lb,
                "iar+search": iar_stats.final_makespan / lb,
                "iar_gain%": 100 * iar_stats.improvement,
                "base": base_stats.initial_makespan / lb,
                "base+search": base_stats.final_makespan / lb,
                "base_gain%": 100 * base_stats.improvement,
            }
        )
    return rows


def test_localsearch_probe(benchmark, suite, report, scale):
    # Local search is O(iterations * N); probe the five smallest traces.
    small = dict(
        sorted(suite.items(), key=lambda kv: kv[1].num_calls)[:5]
    )
    rows = benchmark.pedantic(_sweep, args=(small,), rounds=1, iterations=1)
    series = ["iar", "iar+search", "iar_gain%", "base", "base+search", "base_gain%"]
    avg = average_row(rows, series)
    text = format_figure(
        [avg] + rows, series,
        title=(
            f"Near-optimality probe — {ITERATIONS} local-search edits "
            f"(scale={scale})"
        ),
    )
    report("localsearch_probe", text)

    # Search recovers little on IAR, much more on the naive schedule.
    assert float(avg["iar_gain%"]) < 6.0
    assert float(avg["base_gain%"]) > float(avg["iar_gain%"])


def _engine_timing(instance, schedule, engine, iterations):
    t0 = time.perf_counter()
    final, stats = improve_schedule(
        instance, schedule, iterations=iterations, seed=13, engine=engine
    )
    return time.perf_counter() - t0, final, stats


def test_vector_engine_speedup(suite, report, scale):
    """The incremental vector engine must make local-search moves >= 3x
    cheaper than re-simulating from scratch on the reference, while
    walking the *identical* trajectory (same final schedule, same
    make-span).
    """
    rows = []
    worst = float("inf")
    # The three largest traces — where per-move cost dominates and the
    # suffix-replay advantage is the paper-relevant regime.
    big = dict(sorted(suite.items(), key=lambda kv: -kv[1].num_calls)[:3])
    for name, instance in big.items():
        schedule = iar_schedule(instance)
        ref_s, ref_final, ref_stats = _engine_timing(
            instance, schedule, "reference", ITERATIONS
        )
        vec_s, vec_final, vec_stats = _engine_timing(
            instance, schedule, "vector", ITERATIONS
        )
        assert tuple(vec_final) == tuple(ref_final)
        assert vec_stats == ref_stats
        speedup = ref_s / vec_s
        worst = min(worst, speedup)
        rows.append(
            {
                "benchmark": name,
                "calls": instance.num_calls,
                "reference_ms/move": 1000 * ref_s / ITERATIONS,
                "vector_ms/move": 1000 * vec_s / ITERATIONS,
                "speedup": speedup,
            }
        )
    report(
        "vector_engine_speedup",
        format_table(
            rows,
            title=(
                f"Local-search move cost, reference vs vector engine "
                f"({ITERATIONS} moves, scale={scale})"
            ),
        ),
    )
    assert worst >= 3.0, f"vector engine speedup {worst:.2f}x < 3x"