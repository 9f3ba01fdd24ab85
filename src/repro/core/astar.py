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
search is optimal.  The same fact prices a whole expansion in one pass
(:func:`_sweep`): each child adds one task that finishes at the end of
its own window ``t(v) + c``, so no call inside that window can use it,
and the node's own path replayed up to ``t(v) + c`` gives the child's
``f``.  One replay of the call sequence from time 0, visiting the
children's window ends in ascending order, prices them all; for a node
that compiles every called function it runs on to the end of the trace,
where its clock is the exact make-span of stopping there.
:func:`simulate` confirms only the optimum the search returns.  A
frontier node is a parent pointer plus one task.  The search is still
*not* practical: the frontier grows exponentially and the paper reports
out-of-memory beyond six functions — behaviour reproduced by
``benchmarks/bench_astar_search.py``.
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

#: Task column of a terminal node: stop after the parent's tasks.
_STOP = -1


def _sweep(
    calls: Sequence[int],
    events: Sequence[Sequence[_Event]],
    ends: Sequence[float],
    to_end: bool = False,
) -> Tuple[List[float], float]:
    """``f = b + e`` for the window ending at each of ``ends``, in one pass.

    ``calls`` is the call sequence as function indices and
    ``events[fn]`` lists that function's compiles on a path, in path
    order.  The pass replays the calls once from time 0 and visits the
    ends in ascending order: the calls replayed for one end start before
    it, so they replay the same way for every later end, and the pass
    resumes where it stopped.  The value at an end ``t`` is the
    heuristic of the path's window ``t(v) = t``.

    For the node ``v`` of this path, an end ``t(v) + c`` gives the
    child that adds a task of compile time ``c``: that task finishes at
    its window's end, so it can neither unblock nor accelerate a call
    that starts inside the window, and the node's own events replay that
    window exactly as the child's would.

    With ``to_end`` the pass then replays the rest of the trace.  On a
    path that compiles every called function its clock is then the
    schedule's make-span, bitwise as :func:`simulate` computes it: the
    same additions in the same order.

    Returns the values, in the order of ``ends``, and the clock where
    the pass stopped.
    """
    windows = sorted(zip(ends, range(len(ends))))
    if to_end:
        # A last window past the end of the trace: only its clock counts.
        windows.append((math.inf, len(ends)))
    values = [0.0] * len(windows)
    i = 0
    n = len(calls)
    now = bubbles = extra = 0.0
    for t_end, j in windows:
        while i < n and now < t_end:
            fevents = events[calls[i]]
            if not fevents:
                break
            ready = fevents[0][0]
            start = now if now >= ready else ready
            if start >= t_end:
                break
            bubbles += start - now
            # Finish times and levels both rise along the path, so the
            # last compile finished by ``start`` is the highest level the
            # call runs at.
            k = len(fevents) - 1
            while fevents[k][0] > start:
                k -= 1
            _, exec_time, slowdown = fevents[k]
            extra += slowdown
            now = start + exec_time
            i += 1
        if i < n and now < t_end:
            # Call ``i`` is blocked until after the window ends: the rest
            # of the window is pure bubble for any completion of the path.
            values[j] = bubbles + (t_end - now) + extra
        else:
            values[j] = bubbles + extra
    del values[len(ends):]
    return values, now


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

    def children(self, last: Sequence[int]) -> List[int]:
        """Task ids a node whose functions stand at levels ``last``
        (``-1`` if absent) may append, in push order: function by
        function, levels rising, skips included."""
        first = self.first
        return [
            tid
            for fn in range(len(last))
            for tid in range(first[fn] + last[fn] + 1, first[fn + 1])
        ]

    def window(
        self, path: Sequence[int]
    ) -> Tuple[List[List[_Event]], List[int], float]:
        """:func:`_sweep`'s events, each function's last level (``-1``
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
        RuntimeError: when ``max_expansions`` is hit, or when the optimum
            does not simulate to the make-span the search priced it at.
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
            schedule = Schedule(tuple(tree.task[tid] for tid in path))
            # The sweep priced every terminal; the reference simulator
            # confirms the one the search returns.  Its make-span is the
            # one reported: ``f + LB`` can round away from it.
            makespan = simulate(instance, schedule, validate=False).makespan
            if makespan - lb != f_value:
                raise RuntimeError(
                    f"A* priced its optimum at {f_value!r} above the lower "
                    f"bound, but it simulates to {makespan!r}"
                )
            return AStarResult(
                schedule=schedule,
                makespan=makespan,
                nodes_expanded=nodes_expanded,
                max_frontier=max_frontier_seen,
                paths_total=_count_paths(level_counts),
            )
        nodes_expanded += 1
        if nodes_expanded > max_expansions:
            raise RuntimeError(f"A* exceeded {max_expansions} node expansions")

        path = _path(parent, task_of, node)
        events, last, t_end = tree.window(path)
        tids = tree.children(last)
        complete = min(last) >= 0
        values, clock = _sweep(
            calls, events, [t_end + tree.compile[tid] for tid in tids], complete
        )
        if complete:
            # Stopping here is a legal schedule: attach its exact cost.
            counter += 1
            heapq.heappush(frontier, (clock - lb, counter))
            parent.append(node)
            task_of.append(_STOP)
        for tid, f_child in zip(tids, values):
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
