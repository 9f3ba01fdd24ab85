"""The from-zero A* oracle: each expansion replays its path from time 0.

This is the search ``repro.core.astar`` ran before it priced nodes
from their parents' resume states.  Every expansion walks its path from
the root (:func:`_path`), rebuilds each function's compile events
(:meth:`_Tree.window`) and replays the whole call sequence from time 0
(:func:`_sweep`), visiting the children's window ends in ascending
order.  It is slow and simple on purpose: the tests compare the search
against it push for push, bitwise.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import List, Sequence, Tuple
from unittest import mock

from repro.core import astar
from repro.core.bounds import lower_bound
from repro.core.model import OCSPInstance
from repro.core.schedule import CompileTask

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

    With ``to_end`` the pass then replays the rest of the trace.  On a
    path that compiles every called function its clock is then the
    schedule's make-span.

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
    """Per-instance tables: a task id numbers one ``(function, level)``
    pair; the ids of function ``fn`` run from ``first[fn]`` up to
    ``first[fn + 1]``."""

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
        if absent) and ``t(v)`` for the task-id ``path``: compiles
        finish back to back on one compile thread."""
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


def oracle_pushes(
    instance: OCSPInstance, max_frontier: int = 500_000
) -> List[Tuple[float, int]]:
    """Every ``(f, counter)`` the from-zero search pushes, in order,
    until it pops a terminal or its frontier outgrows ``max_frontier``."""
    lb = lower_bound(instance)
    tree = _Tree(instance)
    pushes: List[Tuple[float, int]] = []
    frontier: List[Tuple[float, int]] = [(0.0, 0)]
    parent = array("q", [0])
    task_of = array("i", [0])
    counter = 0
    while frontier:
        _, node = heapq.heappop(frontier)
        if task_of[node] == _STOP:
            return pushes
        path = _path(parent, task_of, node)
        events, last, t_end = tree.window(path)
        tids = tree.children(last)
        complete = min(last) >= 0
        values, clock = _sweep(
            tree.calls, events, [t_end + tree.compile[tid] for tid in tids], complete
        )
        entries = [clock - lb] if complete else []
        entries += values
        for tid, f in zip([_STOP] * complete + tids, entries):
            counter += 1
            heapq.heappush(frontier, (f, counter))
            pushes.append((f, counter))
            parent.append(node)
            task_of.append(tid)
        if len(frontier) > max_frontier:
            return pushes
    raise AssertionError("the oracle exhausted its frontier")


def search_pushes(
    instance: OCSPInstance, max_frontier: int = 500_000
) -> List[Tuple[float, int]]:
    """Every ``(f, counter)`` :func:`repro.core.astar.astar_schedule`
    pushes, in order, read by a spy on ``heapq.heappush``."""
    pushes: List[Tuple[float, int]] = []
    push = heapq.heappush

    def spy(heap: list, entry: Tuple[float, int]) -> None:
        pushes.append(entry)
        push(heap, entry)

    with mock.patch.object(astar.heapq, "heappush", spy):
        try:
            astar.astar_schedule(instance, max_frontier=max_frontier)
        except astar.AStarMemoryExceeded:
            pass
    return pushes


def bitwise(pushes: List[Tuple[float, int]]) -> List[Tuple[str, int]]:
    """Pushes with each ``f`` as ``float.hex``, so ``==`` is bitwise."""
    return [(f.hex(), counter) for f, counter in pushes]
