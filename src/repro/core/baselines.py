"""Additional baseline scheduling policies.

The paper evaluates two single-level approximations plus the Jikes RVM
and V8 schemes.  This module contributes further static baselines that
bracket the design space — useful both as comparison points and as
sanity rails in tests:

* :func:`ondemand_promotion_schedule` — a static generalization of the
  V8 scheme: low compiles in first-appearance order, each function's
  high compile ordered by the position of its ``k``-th invocation;
* :func:`hotness_first_schedule` — low compiles first, then high
  compiles of every profitable function, hottest first;
* :func:`greedy_budget_schedule` — spend a compile-time budget on the
  recompilations with the best benefit/cost ratio (a knapsack-flavored
  policy);
* :func:`random_schedule` — a uniformly random *valid* schedule (the
  chance baseline).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .model import OCSPInstance, _left_sum
from .schedule import CompileTask, Schedule

__all__ = [
    "ondemand_promotion_schedule",
    "hotness_first_schedule",
    "greedy_budget_schedule",
    "random_schedule",
]


def _two_levels(instance: OCSPInstance, fname: str) -> Tuple[int, Optional[int]]:
    """(low, high) candidate levels: most responsive + best above it."""
    prof = instance.profiles[fname]
    if prof.num_levels == 1:
        return 0, None
    n = instance.call_count(fname)
    high = min(range(1, prof.num_levels), key=lambda j: (prof.total_cost(j, n), -j))
    return 0, high


def _is_profitable(instance: OCSPInstance, fname: str, high: Optional[int]) -> bool:
    """Formula 1: is compiling ``high`` better than staying low?"""
    if high is None:
        return False
    prof = instance.profiles[fname]
    n = instance.call_count(fname)
    return prof.total_cost(high, n) <= prof.total_cost(0, n)


def ondemand_promotion_schedule(
    instance: OCSPInstance, promote_after: int = 2
) -> Schedule:
    """Static image of a count-based promotion policy.

    Low-level compiles appear in first-appearance order; the high
    compile of every function invoked at least ``promote_after`` times
    follows, ordered by the position of that function's
    ``promote_after``-th invocation — the order in which a V8-style
    runtime would enqueue the promotions.

    Args:
        instance: the workload.
        promote_after: invocation count that triggers promotion
            (V8 uses 2).
    """
    if promote_after < 1:
        raise ValueError("promote_after must be >= 1")
    tasks: List[CompileTask] = [
        CompileTask(fname, 0) for fname in instance.called_functions
    ]
    seen: Dict[str, int] = {}
    promotions: List[Tuple[int, str]] = []
    for index, fname in enumerate(instance.calls):
        seen[fname] = seen.get(fname, 0) + 1
        if seen[fname] == promote_after:
            _low, high = _two_levels(instance, fname)
            if high is not None:
                promotions.append((index, fname))
    promotions.sort()
    for _index, fname in promotions:
        _low, high = _two_levels(instance, fname)
        tasks.append(CompileTask(fname, high))
    return Schedule(tuple(tasks))


def hotness_first_schedule(instance: OCSPInstance) -> Schedule:
    """Low compiles in first-appearance order, then the profitable high
    compiles sorted by descending invocation count (hottest first)."""
    tasks: List[CompileTask] = [
        CompileTask(fname, 0) for fname in instance.called_functions
    ]
    candidates = []
    for fname in instance.called_functions:
        _low, high = _two_levels(instance, fname)
        if _is_profitable(instance, fname, high):
            candidates.append((-instance.call_count(fname), fname, high))
    candidates.sort()
    tasks.extend(CompileTask(fname, high) for _neg, fname, high in candidates)
    return Schedule(tuple(tasks))


def greedy_budget_schedule(
    instance: OCSPInstance, budget_fraction: float = 0.5
) -> Schedule:
    """Spend a recompilation budget greedily by benefit/cost ratio.

    The budget is ``budget_fraction`` times the total level-0 execution
    time — a proxy for "compile time we can hide behind execution".
    Recompiles with the largest per-microsecond benefit go first until
    the budget is exhausted.

    Args:
        instance: the workload.
        budget_fraction: recompile budget as a fraction of total
            level-0 execution time.
    """
    if budget_fraction < 0:
        raise ValueError("budget_fraction must be non-negative")
    tasks: List[CompileTask] = [
        CompileTask(fname, 0) for fname in instance.called_functions
    ]
    total_exec0 = _left_sum(
        instance.profiles[f].exec_times[0] for f in instance.calls
    )
    budget = budget_fraction * total_exec0

    ranked: List[Tuple[float, str, int, float]] = []
    for fname in instance.called_functions:
        prof = instance.profiles[fname]
        _low, high = _two_levels(instance, fname)
        if high is None:
            continue
        n = instance.call_count(fname)
        benefit = n * (prof.exec_times[0] - prof.exec_times[high])
        cost = prof.compile_times[high]
        if benefit <= 0 or cost <= 0:
            continue
        ranked.append((-(benefit / cost), fname, high, cost))
    ranked.sort()
    spent = 0.0
    for _ratio, fname, high, cost in ranked:
        if spent + cost > budget:
            continue
        spent += cost
        tasks.append(CompileTask(fname, high))
    return Schedule(tuple(tasks))


def random_schedule(instance: OCSPInstance, seed: int = 0) -> Schedule:
    """A uniformly random valid schedule.

    Each called function receives a random non-empty increasing level
    chain; chains are interleaved uniformly at random.  Useful as a
    chance baseline and in randomized tests.
    """
    rng = random.Random(seed)
    chains: Dict[str, List[int]] = {}
    for fname in instance.called_functions:
        levels = list(range(instance.profiles[fname].num_levels))
        size = rng.randint(1, len(levels))
        chains[fname] = sorted(rng.sample(levels, size))
    # Per-function cursors instead of pop(0): same tasks in the same
    # order, without the O(chain) front-removal per task.
    cursor = {f: 0 for f in chains}
    tasks: List[CompileTask] = []
    pool = [f for f, chain in chains.items() for _ in chain]
    rng.shuffle(pool)
    for fname in pool:
        i = cursor[fname]
        cursor[fname] = i + 1
        tasks.append(CompileTask(fname, chains[fname][i]))
    return Schedule(tuple(tasks))
