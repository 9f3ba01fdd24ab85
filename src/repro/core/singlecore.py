"""Single-core optimal scheduling (Theorem 1, Section 4.1).

When compilation and execution share one core, the machine never idles:
it is always doing either compilation or execution work.  The make-span
is therefore the sum of all compile and execution times, and is
minimized by compiling each function exactly once, at its *most
cost-effective level* — the level ``l`` minimizing
``n_i * e[i][l] + c[i][l]`` where ``n_i`` is the number of invocations.
Any order of those compilations (e.g. on-demand, at first invocation)
achieves the optimum.
"""

from __future__ import annotations

from .model import OCSPInstance
from .schedule import Schedule
from .single_level import most_cost_effective_levels, optimizing_level_schedule

__all__ = [
    "most_cost_effective_levels",
    "single_core_optimal_schedule",
    "single_core_optimal_makespan",
]


def single_core_optimal_schedule(instance: OCSPInstance) -> Schedule:
    """An optimal single-core schedule (Theorem 1).

    Compiles every called function once, at its most cost-effective
    level, in order of first appearance (the on-demand order used by
    most runtime systems — any order is equally optimal on one core):
    the optimizing-level-only schedule at its default levels.
    """
    return optimizing_level_schedule(instance)


def single_core_optimal_makespan(instance: OCSPInstance) -> float:
    """Minimum single-core make-span:
    ``sum_i (c[i][l_i] + n_i * e[i][l_i])`` over called functions."""
    total = 0.0
    for fname, level in most_cost_effective_levels(instance).items():
        total += instance.profiles[fname].total_cost(
            level, instance.call_count(fname)
        )
    return total
