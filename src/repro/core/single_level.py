"""Single-level approximations (Section 5.1).

The simplest schedules limit every function to one compilation level and
never recompile.  With recompilation ruled out, the best order is simply
the order of first-time appearance in the call sequence — compiling a
function any earlier cannot help the calls before it, and any later can
only add bubbles.  The paper evaluates two variants:

* ``base-level only`` — every function at level 0 (cheapest compiles,
  slowest code);
* ``optimizing-level only`` — every function at its *suitable highest*
  level: the most cost-effective level chosen by the cost-benefit model
  (deepest worthwhile optimization; long compiles, fast code).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .model import OCSPInstance
from .schedule import CompileTask, Schedule

__all__ = [
    "single_level_schedule",
    "base_level_schedule",
    "optimizing_level_schedule",
]


def single_level_schedule(
    instance: OCSPInstance, pick_level: Callable[[str], int]
) -> Schedule:
    """One compile per called function, in first-appearance order, at the
    level chosen by ``pick_level(fname)``."""
    return Schedule(
        tuple(
            CompileTask(fname, pick_level(fname))
            for fname in instance.called_functions
        )
    )


def base_level_schedule(instance: OCSPInstance) -> Schedule:
    """Every called function compiled once at level 0."""
    return single_level_schedule(instance, lambda fname: 0)


def most_cost_effective_levels(instance: OCSPInstance) -> Dict[str, int]:
    """The level ``l_i`` per called function minimizing
    ``n_i * e[i][l] + c[i][l]`` (ties to the lower level), in
    first-appearance order."""
    return {
        fname: instance.profiles[fname].most_cost_effective_level(
            instance.call_count(fname)
        )
        for fname in instance.called_functions
    }


def optimizing_level_schedule(
    instance: OCSPInstance, levels: Optional[Dict[str, int]] = None
) -> Schedule:
    """Every called function compiled once at its optimizing level.

    Args:
        instance: the OCSP instance.
        levels: per-function level choices (e.g. from a cost-benefit
            model).  Defaults to each function's most cost-effective
            level given its call count — the paper's "suitable highest
            compilation level".
    """
    if levels is None:
        levels = most_cost_effective_levels(instance)
    return single_level_schedule(instance, lambda fname: levels[fname])
