"""A*-search for optimal compilation schedules (Section 5.3, Figure 4).

The paper models scheduling as a tree search: every path from the root
is a sequence of compile tasks in which a lower-level compilation of a
function never follows a higher-level one, and a full path is a
permutation of *all* tasks (the "12!" denominator for six 2-level
functions).  Our implementation generalizes that tree in two ways that
are required for true optimality under Definition 1:

* **level skips** — a function may be compiled directly at a high level
  without its lower levels (the paper's full-permutation tree forces
  every level to appear, which wastes compile-thread time and is
  measurably suboptimal on some instances — see
  ``tests/test_astar.py``);
* **early termination** — a schedule may stop once every called
  function is compiled; an explicit *terminal* edge carries the exact
  final cost of stopping there.

The heuristic is the paper's ``f(v) = b(v) + e(v)`` where, with ``t(v)``
the time window from the start to the end of the compilations on the
path to ``v``:

* ``b(v)`` — total execution bubbles inside ``t(v)``;
* ``e(v)`` — extra execution time of invocations *starting* inside
  ``t(v)`` because they ran below their function's highest level.

Both components are already incurred by any completion of the path
(future tasks finish after ``t(v)`` and cannot unblock or accelerate
calls that started inside it), so ``f`` never overestimates and the
search is optimal.  The same fact makes ``f`` incremental: an expansion
replays its own window once, and each child resumes that replay where
it stopped (:func:`_replay`).  A frontier node is a parent pointer plus
one task.  The search is still *not* practical: the frontier grows
exponentially and the paper reports out-of-memory beyond six functions —
behaviour reproduced by ``benchmarks/bench_astar_search.py``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .bounds import lower_bound
from .makespan import simulate
from .model import OCSPInstance
from .schedule import CompileTask, Schedule

__all__ = ["AStarResult", "AStarMemoryExceeded", "astar_schedule"]


class AStarMemoryExceeded(RuntimeError):
    """Raised when the frontier outgrows ``max_frontier`` nodes.

    This reproduces the paper's observation that A*-search aborts for
    out-of-memory once the number of unique methods exceeds six.
    """

    def __init__(self, message: str, nodes_expanded: int, frontier_size: int):
        super().__init__(message)
        self.nodes_expanded = nodes_expanded
        self.frontier_size = frontier_size


@dataclass(frozen=True)
class AStarResult:
    """Outcome of the A* search.

    Attributes:
        schedule: an optimal schedule.
        makespan: its make-span.
        nodes_expanded: nodes removed from the priority list and expanded.
        max_frontier: largest size the priority list reached.
        paths_total: the paper's search-space denominator — the number
            of full-task permutations respecting per-function level
            order (``12!/2^6``-style).  Our generalized tree is larger
            still; the figure is reported for comparison with the
            paper's "96 out of 4 billion" observation.
    """

    schedule: Schedule
    makespan: float
    nodes_expanded: int
    max_frontier: int
    paths_total: int


def _count_paths(level_counts: List[int]) -> int:
    """Full-task permutations: multinomial over all tasks, with each
    function's forced level order dividing out its ``L!`` orderings."""
    total = sum(level_counts)
    paths = math.factorial(total)
    for count in level_counts:
        paths //= math.factorial(count)
    return paths


#: A compile event on a path: (finish time, exec time at its level,
#: that exec time minus the function's fastest).
_Event = Tuple[float, float, float]

#: A replay cursor: the next call to replay, the clock, and the bubble
#: and extra-exec sums, all taken before ``f(v)``'s final
#: ``t_end - now`` addition.
_Cursor = Tuple[int, float, float, float]
_START: _Cursor = (0, 0.0, 0.0, 0.0)

#: Task column of a terminal node: stop after the parent's tasks.
_STOP = -1


def _replay(
    calls: Sequence[int],
    events: Sequence[Sequence[_Event]],
    t_end: float,
    cursor: _Cursor,
) -> Tuple[float, _Cursor]:
    """``f(v) = b(v) + e(v)`` for the window ``t(v) = t_end``, from ``cursor``.

    ``calls`` is the call sequence as function indices and
    ``events[fn]`` lists that function's compiles on the path, in path
    order.  From :data:`_START` this is the heuristic of the whole path.
    A child (its parent's path plus one task) may resume from the cursor
    its parent returned and gets the same value and cursor, bitwise:
    every call the parent replayed started before the parent's
    ``t_end``, and the child's new task finishes at or after it, so it
    can neither unblock nor accelerate any of them — the same reason
    ``f`` is admissible.

    Returns ``f`` and the cursor where the replay stopped.
    """
    i, now, bubbles, extra = cursor
    n = len(calls)
    while i < n and now < t_end:
        fevents = events[calls[i]]
        if not fevents:
            break
        ready = fevents[0][0]
        start = now if now >= ready else ready
        if start >= t_end:
            break
        bubbles += start - now
        # Finish times and levels both rise along the path, so the last
        # compile finished by ``start`` is the highest level the call
        # runs at.  A call that starts inside the window has committed
        # to that level: tasks appended after t_end cannot accelerate it.
        k = len(fevents) - 1
        while fevents[k][0] > start:
            k -= 1
        _, exec_time, slowdown = fevents[k]
        extra += slowdown
        now = start + exec_time
        i += 1
    cursor = (i, now, bubbles, extra)
    if i < n and now < t_end:
        # Call ``i`` is blocked until after the window ends: the rest of
        # the window is pure bubble for any completion of this path.
        bubbles += t_end - now
    return bubbles + extra, cursor


class _Tree:
    """Per-instance tables shared by every node of one search.

    A task id numbers one ``(function, level)`` pair, which has one
    shared :class:`CompileTask`, compile time and exec times; the ids of
    function ``fn`` run from ``first[fn]`` up to ``first[fn + 1]``.
    """

    def __init__(self, instance: OCSPInstance):
        functions = instance.called_functions
        index = {fname: fn for fn, fname in enumerate(functions)}
        self.calls = [index[fname] for fname in instance.calls]
        self.first: List[int] = []
        self.fn: List[int] = []
        self.level: List[int] = []
        self.task: List[CompileTask] = []
        self.compile: List[float] = []
        self.exec: List[Tuple[float, float]] = []
        for fn, fname in enumerate(functions):
            prof = instance.profiles[fname]
            self.first.append(len(self.task))
            for level in range(prof.num_levels):
                exec_time = prof.exec_times[level]
                self.fn.append(fn)
                self.level.append(level)
                self.task.append(CompileTask(fname, level))
                self.compile.append(prof.compile_times[level])
                self.exec.append((exec_time, exec_time - prof.exec_times[-1]))
        self.first.append(len(self.task))

    def window(
        self, path: Sequence[int]
    ) -> Tuple[List[List[_Event]], List[int], float]:
        """:func:`_replay`'s events, each function's last level (``-1``
        if absent) and ``t(v)`` for the task-id ``path``.

        Compiles finish back to back on one compile thread, as in the
        paper's search formulation.
        """
        events: List[List[_Event]] = [[] for _ in range(len(self.first) - 1)]
        last = [-1] * len(events)
        t = 0.0
        for tid in path:
            t += self.compile[tid]
            fn = self.fn[tid]
            events[fn].append((t,) + self.exec[tid])
            last[fn] = self.level[tid]
        return events, last, t


def _path(parent: Sequence[int], task_of: Sequence[int], node: int) -> List[int]:
    """Task ids from the root (node 0) to ``node``, in path order."""
    path: List[int] = []
    while node:
        path.append(task_of[node])
        node = parent[node]
    path.reverse()
    return path


def astar_schedule(
    instance: OCSPInstance,
    max_frontier: int = 500_000,
    max_expansions: int = 5_000_000,
) -> AStarResult:
    """Find an optimal schedule by A*-search over the schedule tree.

    Args:
        instance: the OCSP instance (keep it tiny; see module docs).
        max_frontier: memory bound — abort with
            :class:`AStarMemoryExceeded` when the priority list exceeds
            this many nodes (models the paper's 2 GB heap limit).
        max_expansions: safety bound on expanded nodes.

    Raises:
        AStarMemoryExceeded: when the frontier outgrows ``max_frontier``.
        RuntimeError: when ``max_expansions`` is hit.
        ValueError: for an instance with no calls.
    """
    functions = instance.called_functions
    if not functions:
        raise ValueError("instance has no calls; nothing to schedule")
    level_counts = [instance.profiles[f].num_levels for f in functions]
    lb = lower_bound(instance)
    tree = _Tree(instance)
    calls = tree.calls

    # Heap entries are (f, counter).  A node is a parent pointer plus one
    # task id in columns indexed by its counter, which also breaks ties
    # in push order.  Node 0 is the root, where the path walk stops; a
    # terminal node's task is _STOP.
    frontier: List[Tuple[float, int]] = [(0.0, 0)]
    parent = array("q", [0])
    task_of = array("i", [0])
    counter = 0
    nodes_expanded = 0
    max_frontier_seen = 1

    while frontier:
        f_value, node = heapq.heappop(frontier)
        if task_of[node] == _STOP:
            path = _path(parent, task_of, parent[node])
            return AStarResult(
                schedule=Schedule(tuple(tree.task[tid] for tid in path)),
                makespan=f_value + lb,
                nodes_expanded=nodes_expanded,
                max_frontier=max_frontier_seen,
                paths_total=_count_paths(level_counts),
            )
        nodes_expanded += 1
        if nodes_expanded > max_expansions:
            raise RuntimeError(f"A* exceeded {max_expansions} node expansions")

        path = _path(parent, task_of, node)
        events, last, t_end = tree.window(path)
        _, cursor = _replay(calls, events, t_end, _START)

        if min(last) >= 0:
            # Stopping here is a legal schedule: attach its exact cost.
            tasks = tuple(tree.task[tid] for tid in path)
            exact = simulate(instance, Schedule(tasks), validate=False).makespan - lb
            counter += 1
            heapq.heappush(frontier, (exact, counter))
            parent.append(node)
            task_of.append(_STOP)

        for fn, fevents in enumerate(events):
            for tid in range(tree.first[fn] + last[fn] + 1, tree.first[fn + 1]):
                t_child = t_end + tree.compile[tid]
                fevents.append((t_child,) + tree.exec[tid])
                f_child, _ = _replay(calls, events, t_child, cursor)
                fevents.pop()
                counter += 1
                heapq.heappush(frontier, (f_child, counter))
                parent.append(node)
                task_of.append(tid)
        if len(frontier) > max_frontier_seen:
            max_frontier_seen = len(frontier)
        if len(frontier) > max_frontier:
            raise AStarMemoryExceeded(
                f"A* frontier exceeded {max_frontier} nodes "
                f"after {nodes_expanded} expansions",
                nodes_expanded=nodes_expanded,
                frontier_size=len(frontier),
            )
    raise RuntimeError("A* exhausted the frontier without finding a terminal")
