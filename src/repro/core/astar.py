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
search is optimal.  The same fact prices a node from its parent's
replay.  By ``t(v)`` every compile on the path has finished, so past it
each call starts when the one before ends and runs at its function's
top level on the path (or never, if the path does not compile it).  An
expanded node keeps its *resume state*, where its replay of the calls
stops for ``t(v)``: calls replayed, clock, bubbles and extra time.  A
child ``w`` resumes it at the parent's top levels up to
``t(w) = t(v) + c``.  Each child of ``w`` adds a task that finishes at
its window's end, which no call inside the window can use, so ``w``'s
replay on past the children's ends, in ascending order, prices them
all; for a node that compiles every called function it runs on to the
end of the trace, where its clock is the exact make-span of stopping
there.  :func:`simulate` confirms only the optimum the search returns.
A frontier node is its parent's expansion plus one task, both read off
its push counter.  The search is still *not* practical: the frontier
grows exponentially and the paper reports out-of-memory beyond six
functions — behaviour reproduced by ``benchmarks/bench_astar_search.py``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from bisect import bisect_right
from itertools import islice
from typing import List, Tuple

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


#: Task of a terminal child: stop after the parent's tasks.
_STOP = -1


class _Config:
    """What pricing reads of a path: each function's top level on it
    (``-1`` where the path does not compile the function).

    Attributes:
        tasks: the children's tasks in push order: the terminal first if
            the path compiles every called function, then function by
            function, levels rising, skips included.
        ascending: ``(push position, compile time)`` of the other
            children, in ascending compile time.
        stop: the first call of a function the path does not compile
            (``len(calls)`` if none): no replay of the path passes it.
        exec, slowdown: each call before ``stop``: its exec time at its
            function's top level, and that time minus the fastest.
    """

    __slots__ = ("levels", "tasks", "ascending", "stop", "exec", "slowdown")

    def __init__(self, tree: "_Tree", levels: Tuple[int, ...]):
        first, calls = tree.first, tree.calls
        self.levels = levels
        children = [
            tid
            for fn, level in enumerate(levels)
            for tid in range(first[fn] + level + 1, first[fn + 1])
        ]
        complete = min(levels) >= 0
        self.tasks = [_STOP] * complete + children
        self.ascending = sorted(
            ((complete + j, tree.compile[tid]) for j, tid in enumerate(children)),
            key=lambda child: child[1],
        )
        self.stop = next(
            (i for i, fn in enumerate(calls) if levels[fn] < 0), len(calls)
        )
        top = {fn: first[fn] + level for fn, level in enumerate(levels) if level >= 0}
        self.exec = [tree.exec[top[fn]] for fn in calls[: self.stop]]
        self.slowdown = [
            tree.exec[top[fn]] - tree.exec[first[fn + 1] - 1]
            for fn in calls[: self.stop]
        ]


class _Tree:
    """Per-instance tables shared by every node of one search.

    A task id numbers one ``(function, level)`` pair, which has one
    shared :class:`CompileTask`, compile time and exec time; the ids of
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
        self.exec: List[float] = []
        for fn, fname in enumerate(functions):
            prof = instance.profiles[fname]
            self.first.append(len(self.task))
            for level in range(prof.num_levels):
                self.fn.append(fn)
                self.level.append(level)
                self.task.append(CompileTask(fname, level))
                self.compile.append(prof.compile_times[level])
                self.exec.append(prof.exec_times[level])
        self.first.append(len(self.task))
        self.root = _Config(self, (-1,) * len(functions))
        self.configs = {self.root.levels: self.root}

    def child(self, conf: _Config, tid: int) -> _Config:
        """The configuration of a path ``conf`` extended by task ``tid``."""
        levels = list(conf.levels)
        levels[self.fn[tid]] = self.level[tid]
        key = tuple(levels)
        if key not in self.configs:
            self.configs[key] = _Config(self, key)
        return self.configs[key]


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
    compile_time = tree.compile
    n = len(tree.calls)
    push, pop = heapq.heappush, heapq.heappop

    # Heap entries are (f, counter); the counter numbers a frontier node
    # and breaks ties in push order.  A node is its parent's expansion
    # plus one task, and stores neither: an expansion pushes its children
    # under consecutive counters, so bisecting the expansions' first
    # counters finds the parent, and the offset the task.  Node 0 is the
    # root.  Each expansion appends one record: the node, its children's
    # first counter, its configuration and its resume state (calls
    # replayed; then t(v), clock, bubbles and extra time).
    frontier: List[Tuple[float, int]] = [(0.0, 0)]
    expanded = array("q")
    first = array("q")
    configs: List[_Config] = []
    replayed = array("i")
    state = array("d")
    counter = 0
    nodes_expanded = 0
    max_frontier_seen = 1

    while frontier:
        f_value, node = pop(frontier)
        if node:
            exp = bisect_right(first, node) - 1
            conf = configs[exp]
            tid = conf.tasks[node - first[exp]]
            if tid == _STOP:
                break
        nodes_expanded += 1
        if nodes_expanded > max_expansions:
            raise RuntimeError(f"A* exceeded {max_expansions} node expansions")

        if node:
            # Resume the parent's replay at its top levels up to t(v).
            i = replayed[exp]
            t, now, bubbles, extra = state[4 * exp : 4 * exp + 4]
            t += compile_time[tid]
            stop, run, slowdown = conf.stop, conf.exec, conf.slowdown
            while i < stop and now < t:
                now += run[i]
                extra += slowdown[i]
                i += 1
            conf = tree.child(conf, tid)
            if i < conf.stop and now < t:
                # Call i waits for its function's first compile, which
                # finishes at t(v): any completion has that bubble.
                bubbles += t - now
                now = t
        else:
            conf, i, t, now, bubbles, extra = tree.root, 0, 0.0, 0.0, 0.0, 0.0
        expanded.append(node)
        first.append(counter + 1)
        configs.append(conf)
        replayed.append(i)
        state.extend((t, now, bubbles, extra))

        # Each child's f is the replay up to its window's end t(v) + c.
        stop, run, slowdown = conf.stop, conf.exec, conf.slowdown
        k = len(conf.tasks)
        values = [0.0] * k
        for j, c in conf.ascending:
            end = t + c
            while i < stop and now < end:
                now += run[i]
                extra += slowdown[i]
                i += 1
            if i < n and now < end:
                # Call i waits past the end: the rest is pure bubble.
                values[j] = bubbles + (end - now) + extra
            else:
                values[j] = bubbles + extra
        if stop == n:
            # Stopping here is a legal schedule: its exact cost is the
            # replay's clock at the end of the trace.
            for e in islice(run, i, None):
                now += e
            values[0] = now - lb
        for entry in zip(values, range(counter + 1, counter + 1 + k)):
            push(frontier, entry)
        counter += k
        if len(frontier) > max_frontier_seen:
            max_frontier_seen = len(frontier)
        if len(frontier) > max_frontier:
            raise AStarMemoryExceeded(
                f"A* frontier exceeded {max_frontier} nodes "
                f"after {nodes_expanded} expansions",
                nodes_expanded=nodes_expanded,
                frontier_size=len(frontier),
            )
    else:
        raise RuntimeError("A* exhausted the frontier without finding a terminal")

    tids: List[int] = []
    while exp:
        node = expanded[exp]
        exp = bisect_right(first, node) - 1
        tids.append(configs[exp].tasks[node - first[exp]])
    schedule = Schedule(tuple(tree.task[tid] for tid in reversed(tids)))
    # Pricing covered every terminal; the reference simulator confirms
    # the one the search returns.  Its make-span is the one reported:
    # ``f + LB`` can round away from it.
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
