"""The make-span engine (``engine="vector"``).

:func:`repro.core.makespan.simulate` is the measurement component every
experiment funnels through — the limit studies (Figures 5–8), the
local-search optimality bracket, and the ablations all call it thousands
of times on the *same* instance, and it re-derives everything per call.
:class:`VectorSimulator` splits that work into three tiers:

* **per-instance** (paid once per instance, by the first engine built
  on it, and shared by every engine and runtime replay on it — see
  :func:`interned` and :func:`instance_arrays`): function names are
  interned to dense integer ids, the call sequence becomes a flat id
  array, and the cost tables become id-indexed rows and matrices;
* **per-schedule** (paid per evaluation): compile-task finish times and
  per-function compile-event lists — ``O(S)`` for ``S`` tasks, which is
  tiny next to the ``N``-call trace;
* **per-call** (the replay): numpy prefix sums over the bulk call
  segments between first calls and compile-event crossings, instead of
  per-call Python bytecode.

On top of the full evaluation sits an **incremental mode** for local
search: :meth:`~VectorSimulator.bind` caches the per-call trajectory of
a baseline schedule, and :meth:`~VectorSimulator.propose` evaluates a
mutated task list by replaying only the *suffix* of calls that can
observe the change.  A mutation's earliest observable effect is the
earliest compile-event finish time at which the old and new schedules
diverge (``t_min``); every call starting before ``t_min`` behaves
identically, so the replay resumes from the first call whose start is
``>= t_min`` (found by bisection over the cached, monotone start times).

Exactness contract: every quantity this engine produces — make-span,
bubbles, execution totals, per-level call histograms, per-call and
per-task timelines — is **bitwise identical** to the reference, including
after incremental updates.  The kernels perform the reference's exact
float operations in the exact order:

* ``numpy.cumsum`` over a 1-D float64 array is a sequential
  left-associated accumulation, like the reference's ``t += e`` loop
  (pairwise ``numpy.sum`` would NOT be — it is never used here);
* chaining is done by seeding element 0 of the cumsum buffer with the
  running clock, so chunk boundaries cannot perturb rounding;
* ``numpy.searchsorted(..., side="left")`` locates compile-event
  crossings exactly like ``bisect.bisect_left``.

``tests/test_vecsim_differential.py`` enforces the contract
differentially on hypothesis-generated instances.
"""

from __future__ import annotations

import heapq
import math
import weakref
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .makespan import (
    CallTiming,
    DueDateObjectives,
    DueDateTable,
    MakespanResult,
    TaskTiming,
    objectives_from_timeline,
    validate_for_simulation,
)
from .model import OCSPInstance
from .schedule import CompileTask, Schedule, ScheduleError

__all__ = ["VectorSimulator", "instance_arrays", "interned"]

TaskSeq = Union[Schedule, Sequence[CompileTask]]

_INF = math.inf


class _Prep:
    """Per-schedule precomputation: task timings and compile events."""

    __slots__ = (
        "tasks",
        "starts",
        "finishes",
        "threads",
        "events",
        "gev_fins",
        "gev_fids",
        "gev_levels",
        "first_fin",
        "missing",
    )

    def __init__(self) -> None:
        self.tasks: Tuple[CompileTask, ...] = ()
        self.starts: List[float] = []
        self.finishes: List[float] = []
        self.threads: List[int] = []
        self.events: List[List[Tuple[float, int]]] = []
        # The same events flattened globally, sorted by finish time —
        # the replay applies them eagerly as the clock crosses them.
        self.gev_fins: List[float] = []
        self.gev_fids: List[int] = []
        self.gev_levels: List[int] = []
        self.first_fin: List[float] = []
        self.missing: Optional[str] = None


class _Interned:
    """The per-instance tier: names interned to dense ids, the call
    sequence as an id list, and the cost tables as id-indexed rows.

    It depends on the instance alone, so :func:`interned` builds it once
    per instance and every engine on that instance (one per thread
    count or preinstalled set) shares it read-only.  ``arrays`` holds
    the numpy views of the same data, built by :func:`instance_arrays`.
    """

    __slots__ = (
        "fnames",
        "fid_of",
        "calls_fid",
        "exec_rows",
        "compile_rows",
        "called_fids",
        "first_pos",
        "arrays",
    )

    def __init__(self, instance: OCSPInstance) -> None:
        self.fnames: List[str] = list(instance.profiles)
        fid_of = self.fid_of = {
            name: fid for fid, name in enumerate(self.fnames)
        }
        self.calls_fid: List[int] = list(map(fid_of.__getitem__, instance.calls))
        self.exec_rows: List[Tuple[float, ...]] = [
            instance.profiles[name].exec_times for name in self.fnames
        ]
        self.compile_rows: List[Tuple[float, ...]] = [
            instance.profiles[name].compile_times for name in self.fnames
        ]
        called = instance.called_functions
        # Distinct called fids in first-call order (for coverage checks).
        self.called_fids: List[int] = [fid_of[f] for f in called]
        # Trace positions of each function's first call, ascending.
        # Bubbles can only occur there, and between consecutive first
        # calls (and compile-event crossings) the replay clock is a pure
        # sequential sum — the segmented replay exploits exactly this.
        self.first_pos: List[int] = [instance.first_call_index(f) for f in called]
        self.arrays = None


def interned(instance: OCSPInstance) -> _Interned:
    """The instance's shared :class:`_Interned` tier, built on first use."""
    shared = getattr(instance, "_interned", None)
    if shared is None:
        shared = _Interned(instance)
        object.__setattr__(instance, "_interned", shared)
    return shared


class _Arrays:
    """Static structure-of-arrays state of one instance.

    Built once per instance from its :class:`_Interned`
    tier (see :func:`instance_arrays`) and shared by every vector engine
    and reactive-runtime replay on it: the interned call sequence as one
    flat id array (replay segments are O(1) views into it), cost tables
    as dense ``(fid, level)`` matrices (rows padded with their last entry
    — padding is never indexed because level validity is checked first),
    first-call positions and fids, per-fid call and level counts, and —
    built lazily by :meth:`call_groups` — the per-fid call-position
    groups.
    """

    __slots__ = (
        "calls_np",
        "max_levels",
        "exec_tab",
        "compile_tab",
        "nlvl_np",
        "first_pos_np",
        "first_fids_np",
        "call_counts_np",
        "called_mask_np",
        "_groups",
    )

    def __init__(self, shared) -> None:
        exec_rows = shared.exec_rows
        self.calls_np = np.asarray(shared.calls_fid, dtype=np.intp)
        ml = self.max_levels = max((len(row) for row in exec_rows), default=1)

        def table(rows):
            if not rows:
                return np.zeros((0, ml))
            return np.array([row + (row[-1],) * (ml - len(row)) for row in rows])

        self.exec_tab = table(exec_rows)
        self.compile_tab = table(shared.compile_rows)
        self.nlvl_np = np.asarray([len(row) for row in exec_rows], dtype=np.int64)
        self.first_pos_np = np.asarray(shared.first_pos, dtype=np.intp)
        self.first_fids_np = np.asarray(shared.called_fids, dtype=np.intp)
        self.call_counts_np = np.bincount(self.calls_np, minlength=len(exec_rows))
        self.called_mask_np = self.call_counts_np > 0
        self._groups = None

    def call_groups(self):
        """``(order, bounds)``: positions of fid ``f``'s calls, ascending,
        are ``order[bounds[f]:bounds[f + 1]]``.  Built on first use."""
        if self._groups is None:
            calls = self.calls_np
            if len(self.nlvl_np) <= 1 << 16:
                # Same stable order; numpy radix-sorts 16-bit keys,
                # several times faster than its 64-bit merge sort.
                calls = calls.astype(np.uint16)
            order = np.argsort(calls, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(self.call_counts_np)))
            self._groups = (order, bounds)
        return self._groups


def instance_arrays(instance: OCSPInstance) -> _Arrays:
    """The instance's shared :class:`_Arrays`, built on first use."""
    shared = interned(instance)
    if shared.arrays is None:
        shared.arrays = _Arrays(shared)
    return shared.arrays


class VectorSimulator:
    """Reusable make-span evaluator for one instance.

    Args:
        instance: the OCSP instance every evaluation runs against.
        compile_threads: compiler-thread count (fixed per engine; build
            one engine per thread count, they share nothing mutable).
        preinstalled: functions whose code at the given level exists
            from t = 0 (see :func:`~repro.core.makespan.simulate`).
        metrics: optional
            :class:`repro.observability.MetricsRegistry` (also settable
            later via the public ``metrics`` attribute); records the
            deterministic work counters ``vecsim.prepares`` /
            ``tasks_prepared`` / ``evaluations`` / ``binds`` /
            ``proposals`` / ``commits`` / ``replays`` /
            ``calls_replayed`` / ``span_replays`` /
            ``span_calls_replayed``.  All increments happen at call
            boundaries (never inside the replay loops), so a detached
            registry (``None``, the default) costs one branch per
            method call and counting never changes the numbers.

    Raises:
        ValueError: if ``compile_threads < 1`` or a preinstalled level
            is out of range.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        compile_threads: int = 1,
        preinstalled: Optional[Dict[str, int]] = None,
        metrics=None,
    ) -> None:
        if compile_threads < 1:
            raise ValueError(
                f"compile_threads must be >= 1, got {compile_threads}"
            )
        # The instance is reached through a weak reference and kept
        # alive by ``_owner``, which the instance's own engine cache
        # drops (see repro.core.engine.make_simulator).
        self._instance_ref = weakref.ref(instance)
        self._owner: Optional[OCSPInstance] = instance
        self._compile_threads = compile_threads
        self._preinstalled = dict(preinstalled or {})
        self.metrics = metrics

        # ---- per-instance precomputation (shared across engines) -----
        shared = interned(instance)
        self._fnames = shared.fnames
        self._fid_of = fid_of = shared.fid_of
        self._num_fids = len(self._fnames)
        self._calls_fid = shared.calls_fid
        self._exec_rows = shared.exec_rows
        self._compile_rows = shared.compile_rows
        self._called_fids = shared.called_fids
        self._first_pos = shared.first_pos
        self._arrays = instance_arrays(instance)
        self._calls_np = self._arrays.calls_np
        self._pre_events: List[Tuple[Tuple[float, int], ...]] = [
            () for _ in range(self._num_fids)
        ]
        for fname, level in self._preinstalled.items():
            prof = instance.profiles.get(fname)
            if prof is None or not 0 <= level < prof.num_levels:
                raise ValueError(
                    f"preinstalled level {level} invalid for {fname!r}"
                )
            self._pre_events[fid_of[fname]] = ((0.0, level),)
        self._pre_pairs = [
            (fid, ev[0][1]) for fid, ev in enumerate(self._pre_events) if ev
        ]
        # One-slot cache of the last Schedule's interned task arrays.
        # Schedules are immutable, so identity implies equality; local
        # search and the bench loops re-evaluate the same Schedule
        # object many times.
        self._sched_arrays = None

        # ---- incremental baseline state ------------------------------
        self._b_prep: Optional[_Prep] = None
        self._b_start: List[float] = []
        self._b_finish: List[float] = []
        self._b_level: List[int] = []
        self._b_cum_exec: List[float] = []
        self._b_cum_bubble: List[float] = []
        self._b_makespan = 0.0
        self._cand: Optional[Tuple[_Prep, int, float]] = None

    @property
    def _instance(self) -> OCSPInstance:
        return self._instance_ref()

    # ------------------------------------------------------------------
    # Per-schedule precomputation
    # ------------------------------------------------------------------
    @staticmethod
    def _as_tasks(schedule: TaskSeq) -> Tuple[CompileTask, ...]:
        tasks = getattr(schedule, "tasks", schedule)
        return tuple(tasks)

    def _prepare(
        self,
        schedule: TaskSeq,
        release_times: Optional[Sequence[float]] = None,
        task_compile_times: Optional[Sequence[float]] = None,
        task_installs: Optional[Sequence[bool]] = None,
    ) -> _Prep:
        """Compute task timings and per-function event lists: ``O(S)``.

        Replicates the reference FIFO thread assignment bit-for-bit
        (ties broken by thread id) so finish times are identical.  With
        ``release_times``, task ``i`` cannot start before
        ``release_times[i]``; ``task_compile_times`` / ``task_installs``
        are the fault layer's per-task overrides (see
        :func:`~repro.core.makespan.simulate`).
        """
        tasks = self._as_tasks(schedule)
        if release_times is not None and len(release_times) != len(tasks):
            raise ValueError(
                f"release_times has {len(release_times)} entries for "
                f"{len(tasks)} tasks"
            )
        if task_compile_times is not None and len(task_compile_times) != len(
            tasks
        ):
            raise ValueError(
                f"task_compile_times has {len(task_compile_times)} entries "
                f"for {len(tasks)} tasks"
            )
        if task_installs is not None and len(task_installs) != len(tasks):
            raise ValueError(
                f"task_installs has {len(task_installs)} entries for "
                f"{len(tasks)} tasks"
            )
        prep = _Prep()
        prep.tasks = tasks
        fid_of = self._fid_of
        compile_rows = self._compile_rows
        starts = prep.starts
        finishes = prep.finishes
        threads = prep.threads
        if self._compile_threads == 1:
            t = 0.0
            for i, task in enumerate(tasks):
                c = (
                    task_compile_times[i]
                    if task_compile_times is not None
                    else compile_rows[fid_of[task.function]][task.level]
                )
                if release_times is not None:
                    rel = release_times[i]
                    if t < rel:
                        t = rel
                starts.append(t)
                t += c
                finishes.append(t)
                threads.append(0)
        else:
            free_at = [(0.0, tid) for tid in range(self._compile_threads)]
            heapq.heapify(free_at)
            for i, task in enumerate(tasks):
                c = (
                    task_compile_times[i]
                    if task_compile_times is not None
                    else compile_rows[fid_of[task.function]][task.level]
                )
                start, tid = heapq.heappop(free_at)
                if release_times is not None:
                    rel = release_times[i]
                    if start < rel:
                        start = rel
                starts.append(start)
                finishes.append(start + c)
                threads.append(tid)
                heapq.heappush(free_at, (start + c, tid))

        events: List[List[Tuple[float, int]]] = [
            list(pre) for pre in self._pre_events
        ]
        for i, (task, finish) in enumerate(zip(tasks, finishes)):
            if task_installs is not None and not task_installs[i]:
                continue  # failed attempt: thread time, no code
            events[fid_of[task.function]].append((finish, task.level))
        prep.events = events

        first_fin = [0.0] * self._num_fids
        flat: List[Tuple[float, int, int]] = []
        for fid, ev in enumerate(events):
            if not ev:
                continue
            ev.sort()
            first_fin[fid] = ev[0][0]
            flat.extend((finish, fid, level) for finish, level in ev)
        flat.sort()
        prep.gev_fins = [g[0] for g in flat]
        prep.gev_fids = [g[1] for g in flat]
        prep.gev_levels = [g[2] for g in flat]
        prep.first_fin = first_fin
        for fid in self._called_fids:
            if not events[fid]:
                prep.missing = self._fnames[fid]
                break
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("vecsim.prepares").inc()
            metrics.counter("vecsim.tasks_prepared").inc(len(tasks))
        return prep

    def _check_covered(self, prep: _Prep) -> None:
        if prep.missing is not None:
            raise ScheduleError(
                f"function {prep.missing!r} is never compiled"
            )

    # ------------------------------------------------------------------
    # Full-bookkeeping replay (timelines, incremental bind/commit)
    # ------------------------------------------------------------------
    def _replay(
        self, prep: _Prep, i0: int, t0: float, exec0: float, bubble0: float
    ):
        """Full-bookkeeping replay of calls ``i0..N-1`` from state
        ``(t0, exec0, bubble0)``.

        Returns ``(starts, finishes, levels, cum_exec, cum_bubble)``
        suffix lists; the final totals are the lists' last entries.
        """
        self._check_covered(prep)
        calls = self._calls_fid
        calls_np = self._calls_np
        n = len(calls)
        exec_rows = self._exec_rows
        gev_fins = prep.gev_fins
        gev_fids = prep.gev_fids
        gev_levels = prep.gev_levels
        num_events = len(gev_fins)
        first_fin = prep.first_fin
        first_pos = self._first_pos
        num_firsts = len(first_pos)
        bests = np.full(self._num_fids, -1, dtype=np.int64)
        cur_exec = np.zeros(self._num_fids, dtype=np.float64)
        empty = np.empty
        cumsum = np.cumsum
        searchsorted = np.searchsorted
        starts_out = []
        fins_out = []
        lvls_out = []
        cum_exec = []
        cum_bubble = []
        t = t0
        total_exec = exec0
        total_bubble = bubble0
        i = i0
        k = 0
        fb = bisect_left(first_pos, i0)
        while i < n:
            while k < num_events and gev_fins[k] <= t:
                fid = gev_fids[k]
                level = gev_levels[k]
                if level > bests[fid]:
                    bests[fid] = level
                    cur_exec[fid] = exec_rows[fid][level]
                k += 1
            if fb < num_firsts and first_pos[fb] == i:
                # A function's first call: the only place a bubble can
                # appear, and the only place the clock can jump forward.
                fid = calls[i]
                fr = first_fin[fid]
                if t < fr:
                    start = fr
                    while k < num_events and gev_fins[k] <= start:
                        g = gev_fids[k]
                        level = gev_levels[k]
                        if level > bests[g]:
                            bests[g] = level
                            cur_exec[g] = exec_rows[g][level]
                        k += 1
                else:
                    start = t
                e = float(cur_exec[fid])
                finish = start + e
                total_bubble += start - t
                total_exec += e
                starts_out.append(start)
                fins_out.append(finish)
                lvls_out.append(int(bests[fid]))
                cum_exec.append(total_exec)
                cum_bubble.append(total_bubble)
                t = finish
                i += 1
                fb += 1
                continue
            # Bulk segment: the chained cumsum performs the reference's
            # exact left-associated float additions (chunk boundaries
            # restart from the exact intermediate clock, so they cannot
            # change any value — only bound the work wasted past a
            # compile-event crossing).
            b = first_pos[fb] if fb < num_firsts else n
            step = 1024 if k < num_events else b - i
            while i < b:
                j = b if b - i <= step else i + step
                seg = calls_np[i:j]
                ex = cur_exec[seg]
                m = len(ex)
                arr = empty(m + 1)
                arr[0] = t
                arr[1:] = ex
                cumsum(arr, out=arr)
                crossed = k < num_events and gev_fins[k] <= arr[m]
                if crossed:
                    p = int(searchsorted(arr, gev_fins[k], side="left"))
                else:
                    p = m
                if p:
                    starts_out.extend(arr[:p].tolist())
                    fins_out.extend(arr[1 : p + 1].tolist())
                    lvls_out.extend(bests[seg[:p]].tolist())
                    ce = empty(p + 1)
                    ce[0] = total_exec
                    ce[1:] = ex[:p]
                    cumsum(ce, out=ce)
                    cum_exec.extend(ce[1:].tolist())
                    total_exec = float(ce[p])
                    cum_bubble.extend([total_bubble] * p)
                    t = float(arr[p])
                    i += p
                if crossed:
                    break
                step <<= 1
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("vecsim.replays").inc()
            metrics.counter("vecsim.calls_replayed").inc(n - i0)
        return starts_out, fins_out, lvls_out, cum_exec, cum_bubble

    def _replay_span(
        self, prep: _Prep, i0: int, t0: float, cutoff: float
    ) -> float:
        """Make-span-only replay of calls ``i0..N-1``.

        Returns ``math.inf`` once the running clock exceeds ``cutoff``
        (checked per segment) — the clock is monotone, so the final
        make-span is then guaranteed to exceed it too.
        """
        span, reached = self._replay_span_impl(prep, i0, t0, cutoff)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("vecsim.span_replays").inc()
            metrics.counter("vecsim.span_calls_replayed").inc(
                reached - i0
            )
        return span

    def _replay_span_impl(
        self, prep: _Prep, i0: int, t0: float, cutoff: float
    ) -> Tuple[float, int]:
        """:meth:`_replay_span` body; also returns the call index reached
        (``n``, or the cutoff bail-out position) for work accounting.

        The bail-out index depends on the chunk schedule (base 128,
        doubling, reset per outer iteration), and the committed
        ``localsearch_moves`` baseline pins it through the
        ``vecsim.span_calls_replayed`` counter.
        """
        self._check_covered(prep)
        calls = self._calls_fid
        calls_np = self._calls_np
        n = len(calls)
        exec_rows = self._exec_rows
        gev_fins = prep.gev_fins
        gev_fids = prep.gev_fids
        gev_levels = prep.gev_levels
        num_events = len(gev_fins)
        first_fin = prep.first_fin
        first_pos = self._first_pos
        num_firsts = len(first_pos)
        bests = np.full(self._num_fids, -1, dtype=np.int64)
        cur_exec = np.zeros(self._num_fids, dtype=np.float64)
        empty = np.empty
        cumsum = np.cumsum
        searchsorted = np.searchsorted
        t = t0
        i = i0
        k = 0
        fb = bisect_left(first_pos, i0)
        while i < n:
            while k < num_events and gev_fins[k] <= t:
                fid = gev_fids[k]
                level = gev_levels[k]
                if level > bests[fid]:
                    bests[fid] = level
                    cur_exec[fid] = exec_rows[fid][level]
                k += 1
            if fb < num_firsts and first_pos[fb] == i:
                fid = calls[i]
                fr = first_fin[fid]
                if t < fr:
                    start = fr
                    while k < num_events and gev_fins[k] <= start:
                        g = gev_fids[k]
                        level = gev_levels[k]
                        if level > bests[g]:
                            bests[g] = level
                            cur_exec[g] = exec_rows[g][level]
                        k += 1
                else:
                    start = t
                t = start + float(cur_exec[fid])
                i += 1
                fb += 1
                if t > cutoff:
                    return _INF, i
                continue
            b = first_pos[fb] if fb < num_firsts else n
            if k >= num_events:
                m = b - i
                if m:
                    arr = empty(m + 1)
                    arr[0] = t
                    arr[1:] = cur_exec[calls_np[i:b]]
                    cumsum(arr, out=arr)
                    t = float(arr[m])
                i = b
                if t > cutoff:
                    return _INF, i
                continue
            step = 128
            while i < b:
                j = b if b - i <= step else i + step
                seg = calls_np[i:j]
                m = len(seg)
                arr = empty(m + 1)
                arr[0] = t
                arr[1:] = cur_exec[seg]
                cumsum(arr, out=arr)
                end = arr[m]
                if gev_fins[k] <= end:
                    p = int(searchsorted(arr, gev_fins[k], side="left"))
                    t = float(arr[p])
                    i += p
                    break
                t = float(end)
                i = j
                if t > cutoff:
                    return _INF, i
                step <<= 1
            if t > cutoff:
                return _INF, i
        return t, i

    # ------------------------------------------------------------------
    # Totals-only replay (the stateless evaluate fast path)
    # ------------------------------------------------------------------
    def _replay_totals(
        self, prep: _Prep, thresholds: Sequence[float] = (), totals: bool = True
    ):
        """Totals-only twin of :meth:`_replay`: no per-call Python objects.

        Returns ``(t, total_exec, total_bubble, calls_at_level,
        first_starts, crossings)`` with the same floats the full replay
        would produce.  Each call's exec time and level land in flat
        arrays as its chunk commits; one ``numpy.cumsum`` (the
        reference's sequential left-associated sum from 0.0) and one
        ``numpy.bincount`` reduce them at the end.  ``first_starts``
        holds the start of every function's first call (first-call
        order) and ``crossings[j]`` the index of the first call starting
        at or after ``thresholds[j]`` (``N`` if none) — call starts
        never decrease, so the calls before it are exactly those
        starting before the threshold.  With ``totals=False`` (the
        trace pass) the exec and level totals are skipped and returned
        as ``None``.
        """
        self._check_covered(prep)
        calls = self._calls_fid
        calls_np = self._calls_np
        n = len(calls)
        exec_rows = self._exec_rows
        gev_fins = prep.gev_fins
        gev_fids = prep.gev_fids
        gev_levels = prep.gev_levels
        num_events = len(gev_fins)
        first_fin = prep.first_fin
        first_pos = self._first_pos
        num_firsts = len(first_pos)
        bests = np.full(self._num_fids, -1, dtype=np.int64)
        cur_exec = np.zeros(self._num_fids, dtype=np.float64)
        empty = np.empty
        cumsum = np.cumsum
        searchsorted = np.searchsorted
        if totals:
            # execs[i + 1] / levels[i]: exec time and level of call i.
            execs = empty(n + 1)
            execs[0] = 0.0
            levels = empty(n, dtype=np.int64)
        first_starts = []
        crossings = [n] * len(thresholds)
        # Thresholds not yet crossed, lowest first.
        pending = sorted((thr, j) for j, thr in enumerate(thresholds))
        t = 0.0
        total_bubble = 0.0
        i = 0
        k = 0
        fb = 0
        while i < n:
            while k < num_events and gev_fins[k] <= t:
                fid = gev_fids[k]
                level = gev_levels[k]
                if level > bests[fid]:
                    bests[fid] = level
                    cur_exec[fid] = exec_rows[fid][level]
                k += 1
            if fb < num_firsts and first_pos[fb] == i:
                fid = calls[i]
                fr = first_fin[fid]
                if t < fr:
                    start = fr
                    while k < num_events and gev_fins[k] <= start:
                        g = gev_fids[k]
                        level = gev_levels[k]
                        if level > bests[g]:
                            bests[g] = level
                            cur_exec[g] = exec_rows[g][level]
                        k += 1
                else:
                    start = t
                e = float(cur_exec[fid])
                total_bubble += start - t
                if totals:
                    execs[i + 1] = e
                    levels[i] = bests[fid]
                first_starts.append(start)
                while pending and start >= pending[0][0]:
                    crossings[pending.pop(0)[1]] = i
                t = start + e
                i += 1
                fb += 1
                continue
            b = first_pos[fb] if fb < num_firsts else n
            step = 1024 if k < num_events else b - i
            while i < b:
                j = b if b - i <= step else i + step
                seg = calls_np[i:j]
                ex = cur_exec[seg]
                m = len(ex)
                arr = empty(m + 1)
                arr[0] = t
                arr[1:] = ex
                cumsum(arr, out=arr)
                crossed = k < num_events and gev_fins[k] <= arr[m]
                if crossed:
                    p = int(searchsorted(arr, gev_fins[k], side="left"))
                else:
                    p = m
                if p:
                    # arr[:p] are the starts of calls i .. i + p - 1.
                    while pending and arr[p - 1] >= pending[0][0]:
                        thr, slot = pending.pop(0)
                        crossings[slot] = i + int(
                            searchsorted(arr[:p], thr, side="left")
                        )
                    if totals:
                        execs[i + 1 : i + p + 1] = ex[:p]
                        levels[i : i + p] = bests[seg[:p]]
                    t = float(arr[p])
                    i += p
                if crossed:
                    break
                step <<= 1
        if not totals:
            return t, None, total_bubble, None, first_starts, crossings
        total_exec = float(cumsum(execs)[n])
        hist = np.bincount(levels, minlength=self._arrays.max_levels).tolist()
        calls_at_level = {
            level: count for level, count in enumerate(hist) if count
        }
        return t, total_exec, total_bubble, calls_at_level, first_starts, crossings

    # ------------------------------------------------------------------
    # Batched evaluation (the whole trace in O(1) numpy passes)
    # ------------------------------------------------------------------
    def _segment_scan(self, seg_a, lens, seeds, e, qpos):
        """Exact chained cumsum of every segment.

        Segment ``r`` covers calls ``seg_a[r] .. seg_a[r]+lens[r]-1`` and
        restarts the clock chain at ``seeds[r]``.  Returns
        ``(ends, qvals)``: the exact end value of each segment and the
        exact start time of every queried call position in ``qpos``.
        Chains restart at *static* seed values, so the segments are
        independent: short ones evaluate together as rows of a
        zero-padded matrix (``numpy.cumsum`` along a row is the same
        sequential left-associated accumulation as over a 1-D array, and
        trailing ``+ 0.0`` padding is bitwise neutral), long ones as
        individual 1-D cumsums.
        """
        num_segs = len(lens)
        ends = np.empty(num_segs)
        nq = len(qpos)
        qvals = np.empty(nq)
        if nq:
            # A position's segment is the *last* one starting at or
            # before it (zero-length segments share a start with their
            # successor but hold no positions).
            qseg = np.searchsorted(seg_a, qpos, side="right") - 1
            qcol = qpos - seg_a[qseg]
        done = np.zeros(num_segs, dtype=bool)
        # Buckets bound padded waste: rows land in the smallest matrix
        # they fit, so the padded area stays within a few times the
        # real element count.
        for cap in (32, 256, 2048):
            sel = ~done & (lens <= cap)
            rows = np.nonzero(sel)[0]
            if not rows.size:
                continue
            la = lens[rows]
            a = seg_a[rows]
            num_rows = len(rows)
            width = int(la.max())
            mat = np.zeros((num_rows, width + 1))
            mat[:, 0] = seeds[rows]
            total = int(la.sum())
            if total:
                # Ragged fill: scatter the real elements only (O(real),
                # not O(padded)); the zero padding is already in place.
                rowrep = np.repeat(np.arange(num_rows), la)
                csum = np.concatenate(([0], np.cumsum(la)))
                within = np.arange(total) - csum[rowrep]
                mat.ravel()[rowrep * (width + 1) + 1 + within] = e[
                    a[rowrep] + within
                ]
                np.cumsum(mat, axis=1, out=mat)
            ends[rows] = mat[np.arange(num_rows), la]
            done[rows] = True
            if nq:
                qin = sel[qseg]
                if qin.any():
                    rowmap = np.empty(num_segs, dtype=np.intp)
                    rowmap[rows] = np.arange(num_rows)
                    qvals[qin] = mat[rowmap[qseg[qin]], qcol[qin]]
        for r in np.nonzero(~done)[0].tolist():
            a = int(seg_a[r])
            ln = int(lens[r])
            arr = np.empty(ln + 1)
            arr[0] = seeds[r]
            arr[1:] = e[a : a + ln]
            np.cumsum(arr, out=arr)
            ends[r] = arr[ln]
            if nq:
                qin = qseg == r
                if qin.any():
                    qvals[qin] = arr[qcol[qin]]
        return ends, qvals

    _MAX_LEVEL_ROUNDS = 20

    def _task_arrays(self, schedule):
        """``(tfids, tlvls)``: the schedule's task fids and levels as
        arrays (cached for the last :class:`Schedule` object)."""
        cached = self._sched_arrays
        if (
            cached is not None
            and isinstance(schedule, Schedule)
            and cached[0] is schedule
        ):
            return cached[1], cached[2]
        tasks = self._as_tasks(schedule)
        fid_of = self._fid_of
        tfids = np.asarray(
            [fid_of[task.function] for task in tasks], dtype=np.intp
        )
        tlvls = np.asarray([task.level for task in tasks], dtype=np.int64)
        if isinstance(schedule, Schedule):
            self._sched_arrays = (schedule, tfids, tlvls)
        return tfids, tlvls

    # The batched kernel re-derives the levels of every function whose
    # level changes mid-trace in a fixpoint loop (numpy passes over the
    # function's calls, per round), while the chunked path pays per
    # first call and per compile event instead.  Measured on a 2.1 GHz
    # Xeon: the perf suite's scale-1.0 single-level workload (no level
    # changes) evaluates in 5.0 ms batched against 110 ms chunked;
    # jython's scale-0.01 IAR schedule (140 level-changing functions)
    # in 57 ms batched against 8.4 ms chunked.  Over the 378
    # single-thread evaluations and trace passes of ``repro study``,
    # limits 0 to 2 take 1.32-1.34 s, 4 takes 1.38 s, 16 takes 1.48 s
    # and 32 takes 3.05 s (1.23 s with every call on its faster path).
    BATCHED_MAX_VARYING = 2

    def _batched_timeline(self, tfids, tlvls):
        """Whole-trace totals in a fixed number of numpy passes.

        The replay clock is a single float chain that *restarts* — at a
        blocking first call the reference assigns ``t = first_finish``,
        a static value.  Levels partition the trace the same way: a
        function whose best-installed level never changes after its
        first install executes every call at one known level.  So given
        two discrete decisions — *which first calls block* and *which
        level each call runs at* — the exact timeline is a set of
        independent seeded cumsums (:meth:`_segment_scan`), and the
        totals follow from single passes.

        The decisions are guessed from an approximate max-plus prefix
        (raw cumsum plus a running max of ``first_finish - prefix``
        offsets) and then **verified exactly** against the segmented
        scan: every first call's exact pre-call clock is compared with
        its first finish, and every level of a level-varying function is
        re-derived from the exact start times.  On any mismatch (ties
        resolved differently by rounding, or non-convergence) the
        method returns ``None`` — before touching any counter — and the
        caller falls back to the chunked exact path.  Results that do
        return are bitwise identical to the reference by construction.

        Returns ``(result, first_starts, segments)``: the
        :class:`MakespanResult` totals, the exact start of every first
        call (first-call order), and the timeline as
        ``(seg_a, lens, seeds, e)`` — segment ``r`` runs calls
        ``seg_a[r] .. seg_a[r] + lens[r] - 1`` back to back from
        ``seeds[r]``, call ``i`` taking ``e[i]``.
        """
        arrays = self._arrays
        calls_np = self._calls_np
        n = len(calls_np)
        num_fids = self._num_fids
        num_tasks = len(tfids)
        if num_tasks and (
            int(tlvls.min()) < 0 or bool(np.any(tlvls >= arrays.nlvl_np[tfids]))
        ):
            return None  # out-of-range level: defer to the chunked path
        metrics = self.metrics

        # ---- per-task chain (single thread, no releases) -------------
        if num_tasks:
            fins = np.cumsum(arrays.compile_tab[tfids, tlvls])
            compile_end = float(fins[num_tasks - 1])
        else:
            fins = np.empty(0)
            compile_end = 0.0

        # ---- per-fid event shape -------------------------------------
        # Stable sort by fid: single-thread finishes ascend in schedule
        # order, so each group is already sorted by finish time.
        order = np.argsort(tfids, kind="stable")
        gfids = tfids[order]
        gfins = fins[order]
        glvls = tlvls[order]
        task_counts = np.bincount(gfids, minlength=num_fids)
        tb = np.concatenate(([0], np.cumsum(task_counts)))
        has_task = task_counts > 0
        first_idx = tb[:-1][has_task]
        last_idx = tb[1:][has_task] - 1
        first_fin = np.zeros(num_fids)
        first_fin[has_task] = gfins[first_idx]
        # Segmented running max of levels: fid groups ascend, so keying
        # by fid * K + level makes one global maximum.accumulate reset
        # at every group boundary.
        K = arrays.max_levels + 1
        cummax_lvl = np.maximum.accumulate(gfids * K + glvls) - gfids * K
        lvl_first = np.full(num_fids, -1, dtype=np.int64)
        lvl_final = np.full(num_fids, -1, dtype=np.int64)
        lvl_first[has_task] = cummax_lvl[first_idx]
        lvl_final[has_task] = cummax_lvl[last_idx]
        has_event = has_task.copy()
        for fid, plvl in self._pre_pairs:
            has_event[fid] = True
            first_fin[fid] = 0.0
            lvl_first[fid] = plvl
            if lvl_final[fid] < plvl:
                lvl_final[fid] = plvl
        missing = arrays.called_mask_np & ~has_event
        if bool(missing.any()):
            if metrics is not None:
                metrics.counter("vecsim.prepares").inc()
                metrics.counter("vecsim.tasks_prepared").inc(num_tasks)
            for fid in self._called_fids:
                if missing[fid]:
                    raise ScheduleError(
                        f"function {self._fnames[fid]!r} is never compiled"
                    )

        # ---- per-call levels and exec times --------------------------
        varying = np.nonzero(
            arrays.called_mask_np & (lvl_first != lvl_final)
        )[0]
        lvl_uni = lvl_final.copy()
        if varying.size:
            lvl_uni[varying] = lvl_first[varying]
        # Uncalled fids may carry level -1 here; the gather below only
        # ever reads called fids' rows (and -1 wraps, harmlessly).
        e_fid = arrays.exec_tab[np.arange(num_fids), lvl_uni]
        e = e_fid[calls_np]

        fp = arrays.first_pos_np
        ffids = arrays.first_fids_np
        first_F = first_fin[ffids]
        pre_lookup = dict(self._pre_pairs)
        var_state = []
        for fid in varying.tolist():
            ogroups, obounds = arrays.call_groups()
            pos = ogroups[obounds[fid] : obounds[fid + 1]]
            evf = gfins[tb[fid] : tb[fid + 1]]
            cum = cummax_lvl[tb[fid] : tb[fid + 1]]
            plvl = pre_lookup.get(fid)
            if plvl is not None:
                evf = np.concatenate(([0.0], evf))
                cum = np.concatenate(([plvl], np.maximum(cum, plvl)))
            cur = np.full(len(pos), lvl_first[fid], dtype=np.int64)
            var_state.append((fid, pos, evf, cum, cur))

        def _offsets(P):
            # Approximate max-plus bubble offsets at the first-call
            # positions (raw prefix + running max of F - prefix); only
            # used to *guess* decisions, never to produce a float.
            pb = P[fp] - e[fp]
            cand = first_F - pb
            off_incl = np.maximum.accumulate(np.maximum(cand, 0.0))
            return pb, cand, off_incl

        if var_state:
            P = None
            for _ in range(self._MAX_LEVEL_ROUNDS):
                P = np.cumsum(e)
                _pb, _cand, off_incl = _offsets(P)
                changed = False
                for idx_v, (fid, pos, evf, cum, cur) in enumerate(var_state):
                    off_at = off_incl[
                        np.searchsorted(fp, pos, side="right") - 1
                    ]
                    sa = P[pos] - e[pos] + off_at
                    new = cum[np.searchsorted(evf, sa, side="right") - 1]
                    if not np.array_equal(new, cur):
                        changed = True
                        var_state[idx_v] = (fid, pos, evf, cum, new)
                        e[pos] = arrays.exec_tab[fid][new]
                if not changed:
                    break
            else:
                return None  # level fixpoint did not converge
        else:
            P = np.cumsum(e) if n else np.empty(0)
        if n:
            _pb, cand, off_incl = _offsets(P)
            off_excl = np.concatenate(([0.0], off_incl[:-1]))
            binding = cand > off_excl
        else:
            binding = np.empty(0, dtype=bool)

        # ---- exact segmented timeline --------------------------------
        bpos = fp[binding]
        seeds = np.concatenate(([0.0], first_F[binding]))
        seg_a = np.concatenate(([0], bpos))
        seg_b = np.concatenate((bpos, [n]))
        lens = seg_b - seg_a
        # Exact start times are only needed at the non-blocking first
        # calls (to verify they really did not block) and at every call
        # of a level-varying function (to verify its guessed levels).
        nb = fp[~binding]
        qparts = [nb]
        qparts.extend(pos for _fid, pos, _evf, _cum, _cur in var_state)
        qpos = np.concatenate(qparts) if len(qparts) > 1 else nb
        ends, qvals = self._segment_scan(seg_a, lens, seeds, e, qpos)

        # ---- exact verification of the guessed decisions -------------
        # Blocking first calls: the exact pre-call clock (the previous
        # segment's end) must be strictly below the first finish.
        if not bool(np.all(ends[:-1] < seeds[1:])):
            return None
        # Non-blocking first calls: the exact clock must already have
        # reached the first finish.
        nnb = len(nb)
        if nnb and not bool(np.all(qvals[:nnb] >= first_F[~binding])):
            return None
        # Level-varying functions: re-derive every level from the exact
        # start times; any drift from the guessed levels is a mismatch.
        hist = np.zeros(arrays.max_levels, dtype=np.int64)
        qoff = nnb
        for _fid, pos, evf, cum, cur in var_state:
            exact = cum[
                np.searchsorted(
                    evf, qvals[qoff : qoff + len(pos)], side="right"
                )
                - 1
            ]
            qoff += len(pos)
            if not np.array_equal(exact, cur):
                return None
            hist += np.bincount(exact, minlength=arrays.max_levels)

        # ---- totals (all single exact passes) ------------------------
        t = float(ends[len(ends) - 1])
        total_exec = float(P[n - 1]) if n else 0.0
        nbind = int(binding.sum()) if n else 0
        if nbind:
            bubbles = seeds[1:] - ends[:-1]
            total_bubble = float(np.cumsum(bubbles)[nbind - 1])
        else:
            total_bubble = 0.0
        uni = np.nonzero(arrays.called_mask_np)[0]
        if varying.size:
            uni = uni[lvl_first[uni] == lvl_final[uni]]
        np.add.at(hist, lvl_final[uni], arrays.call_counts_np[uni])
        calls_at_level = {
            level: int(count)
            for level, count in enumerate(hist.tolist())
            if count
        }
        result = MakespanResult(
            makespan=t,
            compile_end=compile_end,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
        )
        first_starts = np.empty(len(fp))
        first_starts[binding] = first_F[binding]
        first_starts[~binding] = qvals[:nnb]
        return result, first_starts, (seg_a, lens, seeds, e)

    def _segment_crossing(self, segments, thr) -> int:
        """Index of the first call starting at or after ``thr`` on a
        batched timeline (``N`` if none).

        A non-empty segment's first call starts at its seed and starts
        never decrease, so the crossing lies inside the last segment
        starting before ``thr`` — one exact cumsum of that segment — or
        at the start of the next one.
        """
        seg_a, lens, seeds, e = segments
        live = np.nonzero(lens)[0]
        before = int(np.searchsorted(seeds[live], thr, side="left"))
        if not before:
            return 0
        r = int(live[before - 1])
        a = int(seg_a[r])
        ln = int(lens[r])
        arr = np.empty(ln + 1)
        arr[0] = seeds[r]
        arr[1:] = e[a : a + ln]
        np.cumsum(arr, out=arr)
        return a + int(np.searchsorted(arr[:ln], thr, side="left"))

    def _batched_or_none(self, schedule):
        """The batched timeline when the schedule suits the batched
        kernel — one compile thread, and at most
        :attr:`BATCHED_MAX_VARYING` functions changing level (compiled
        more than once, or on top of a preinstalled level) — and its
        verification holds; else ``None`` (take the chunked path)."""
        if self._compile_threads != 1:
            return None
        tfids, tlvls = self._task_arrays(schedule)
        counts = np.bincount(tfids, minlength=self._num_fids)
        for fid, _level in self._pre_pairs:
            counts[fid] += 1
        if np.count_nonzero(counts > 1) > self.BATCHED_MAX_VARYING:
            return None
        return self._batched_timeline(tfids, tlvls)

    # ------------------------------------------------------------------
    # Full (stateless) evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        schedule: TaskSeq,
        record_timeline: bool = False,
        validate: bool = False,
        release_times: Optional[Sequence[float]] = None,
        task_compile_times: Optional[Sequence[float]] = None,
        task_installs: Optional[Sequence[bool]] = None,
        tracer=None,
    ) -> MakespanResult:
        """Evaluate ``schedule`` from scratch; exact :func:`simulate` twin.

        Unlike the reference, validation defaults to off — the engine is
        built for tight loops whose callers guarantee validity.
        ``release_times``, ``task_compile_times``/``task_installs``
        (the fault layer's per-task overrides), and ``tracer`` mirror
        :func:`~repro.core.makespan.simulate`; tracing never changes the
        numbers.

        Timeline and tracer requests take the full-bookkeeping
        :meth:`_replay`; plain evaluations use a totals-only kernel,
        which skips per-call list materialization entirely: the batched
        kernel when the schedule suits it (:meth:`_batched_or_none`),
        else the chunked exact replay.  All give the same floats and the
        same work counters.
        """
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("vecsim.evaluations").inc()
        timeline = record_timeline or tracer is not None
        if not (
            timeline
            or validate
            or release_times is not None
            or task_compile_times is not None
            or task_installs is not None
        ):
            batched = self._batched_or_none(schedule)
            if batched is not None:
                if metrics is not None:
                    metrics.counter("vecsim.prepares").inc()
                    metrics.counter("vecsim.tasks_prepared").inc(len(schedule))
                    metrics.counter("vecsim.replays").inc()
                    metrics.counter("vecsim.calls_replayed").inc(
                        len(self._calls_fid)
                    )
                return batched[0]
        prep = self._prepare(
            schedule, release_times, task_compile_times, task_installs
        )
        if validate:
            validate_for_simulation(
                self._instance, Schedule(prep.tasks), self._preinstalled
            )
        if timeline:
            result = self._assemble(
                prep, self._replay(prep, 0, 0.0, 0.0, 0.0), True
            )
            if tracer is None:
                return result
            from repro.observability.instrument import trace_makespan_result

            trace_makespan_result(tracer, result)
            if record_timeline:
                return result
            return MakespanResult(
                makespan=result.makespan,
                compile_end=result.compile_end,
                total_bubble_time=result.total_bubble_time,
                total_exec_time=result.total_exec_time,
                calls_at_level=result.calls_at_level,
            )
        t, total_exec, total_bubble, calls_at_level, _f, _c = (
            self._replay_totals(prep)
        )
        if metrics is not None:
            metrics.counter("vecsim.replays").inc()
            metrics.counter("vecsim.calls_replayed").inc(len(self._calls_fid))
        return MakespanResult(
            makespan=t,
            compile_end=prep.finishes[-1] if prep.finishes else 0.0,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
        )

    def due_objectives(
        self, schedule: TaskSeq, due: DueDateTable, validate: bool = False
    ) -> DueDateObjectives:
        """Due-date objectives of one evaluation (timeline-recorded).

        Bitwise identical to the reference engine's
        :func:`~repro.core.makespan.due_date_objectives` — the timeline
        is exact and the aggregation order is canonical.
        """
        result = self.evaluate(schedule, record_timeline=True, validate=validate)
        return objectives_from_timeline(result, due)

    def _assemble(
        self, prep: _Prep, arrays, record_timeline: bool
    ) -> MakespanResult:
        starts, finishes, levels, cum_exec, cum_bubble = arrays
        makespan = finishes[-1] if finishes else 0.0
        hist: Dict[int, int] = {}
        for level in levels:
            hist[level] = hist.get(level, 0) + 1
        task_timings: Optional[Tuple[TaskTiming, ...]] = None
        call_timings: Optional[Tuple[CallTiming, ...]] = None
        if record_timeline:
            task_timings = tuple(
                TaskTiming(
                    function=task.function,
                    level=task.level,
                    start=s,
                    finish=f,
                    thread=tid,
                )
                for task, s, f, tid in zip(
                    prep.tasks, prep.starts, prep.finishes, prep.threads
                )
            )
            prev = 0.0
            calls: List[CallTiming] = []
            for fid, s, f, level in zip(
                self._calls_fid, starts, finishes, levels
            ):
                calls.append(
                    CallTiming(
                        function=self._fnames[fid],
                        level=level,
                        start=s,
                        finish=f,
                        bubble=s - prev,
                    )
                )
                prev = f
            call_timings = tuple(calls)
        return MakespanResult(
            makespan=makespan,
            compile_end=prep.finishes[-1] if prep.finishes else 0.0,
            total_bubble_time=cum_bubble[-1] if cum_bubble else 0.0,
            total_exec_time=cum_exec[-1] if cum_exec else 0.0,
            calls_at_level=hist,
            task_timings=task_timings,
            call_timings=call_timings,
        )

    # ------------------------------------------------------------------
    # Streaming statistics (IAR's trace pass)
    # ------------------------------------------------------------------
    def trace_stats(
        self,
        schedule: TaskSeq,
        before_time: Optional[float] = None,
        after_time: Optional[float] = None,
    ):
        """One pass over the execution under ``schedule``.

        Returns ``(first_call_start, calls_before, calls_after, exec_end)``
        with the exact semantics (and floats) of
        :func:`repro.core.iar._trace_stats` / :func:`iter_calls`:
        ``calls_before[f]`` counts invocations starting strictly before
        ``before_time`` and ``calls_after[f]`` those starting at or after
        ``after_time``.

        Call starts never decrease, so the calls starting before a
        threshold are a prefix of the trace: each threshold costs one
        crossing index, and the per-function counts one
        ``numpy.bincount`` over the prefix or suffix.  The batched
        kernel serves the schedules it suits (as in :meth:`evaluate`);
        the rest replay on the chunked totals kernel.
        """
        wanted = [thr for thr in (before_time, after_time) if thr is not None]
        batched = self._batched_or_none(schedule)
        if batched is not None:
            result, first_starts, segments = batched
            t = result.makespan
            crossings = [self._segment_crossing(segments, thr) for thr in wanted]
            first_starts = first_starts.tolist()
            if self.metrics is not None:
                self.metrics.counter("vecsim.prepares").inc()
                self.metrics.counter("vecsim.tasks_prepared").inc(len(schedule))
        else:
            prep = self._prepare(schedule)
            t, _e, _b, _h, first_starts, crossings = self._replay_totals(
                prep, wanted, totals=False
            )
        fnames = self._fnames
        calls_np = self._calls_np

        def counted(calls):
            counts = np.bincount(calls, minlength=self._num_fids).tolist()
            return {fnames[fid]: c for fid, c in enumerate(counts) if c}

        crossing = iter(crossings)
        before = {} if before_time is None else counted(calls_np[: next(crossing)])
        after = {} if after_time is None else counted(calls_np[next(crossing) :])
        firsts = dict(zip((fnames[fid] for fid in self._called_fids), first_starts))
        return firsts, before, after, t

    # ------------------------------------------------------------------
    # Incremental mode
    # ------------------------------------------------------------------
    def bind(self, schedule: TaskSeq, validate: bool = False) -> float:
        """Adopt ``schedule`` as the incremental baseline.

        Runs one full evaluation, caching the per-call trajectory
        (starts, finishes, levels, running totals) that later
        :meth:`propose` calls resume from.  Returns the make-span.
        """
        if self.metrics is not None:
            self.metrics.counter("vecsim.binds").inc()
        prep = self._prepare(schedule)
        if validate:
            validate_for_simulation(
                self._instance, Schedule(prep.tasks), self._preinstalled
            )
        arrays = self._replay(prep, 0, 0.0, 0.0, 0.0)
        self._install(prep, 0, arrays)
        return self._b_makespan

    @property
    def baseline_makespan(self) -> float:
        """Make-span of the bound baseline schedule."""
        self._require_bound()
        return self._b_makespan

    @property
    def baseline_tasks(self) -> Tuple[CompileTask, ...]:
        """Tasks of the bound baseline schedule."""
        self._require_bound()
        return self._b_prep.tasks  # type: ignore[union-attr]

    def _require_bound(self) -> None:
        if self._b_prep is None:
            raise RuntimeError("no baseline bound; call bind() first")

    def _divergence_time(self, old: _Prep, new: _Prep) -> float:
        """Earliest compile-event finish at which the schedules differ.

        Per-function event lists are sorted by finish time, so the first
        position where old and new disagree bounds every differing event
        from below; the minimum over functions is ``t_min``.  Returns
        ``inf`` when the event sets are identical (the mutation cannot
        affect execution at all).
        """
        t_min = _INF
        for ev_old, ev_new in zip(old.events, new.events):
            if ev_old == ev_new:
                continue
            shorter = min(len(ev_old), len(ev_new))
            local = _INF
            for k in range(shorter):
                if ev_old[k] != ev_new[k]:
                    local = min(ev_old[k][0], ev_new[k][0])
                    break
            else:
                if len(ev_old) > shorter:
                    local = ev_old[shorter][0]
                elif len(ev_new) > shorter:
                    local = ev_new[shorter][0]
            if local < t_min:
                t_min = local
        return t_min

    def _resume_point(self, prep: _Prep) -> Tuple[int, float]:
        """``(i0, t0)``: first call that may observe ``prep``'s changes
        and the (unchanged) clock right before it."""
        t_min = self._divergence_time(self._b_prep, prep)  # type: ignore[arg-type]
        if t_min == _INF:
            n = len(self._calls_fid)
            return n, self._b_finish[n - 1] if n else 0.0
        i0 = bisect_left(self._b_start, t_min)
        t0 = self._b_finish[i0 - 1] if i0 > 0 else 0.0
        return i0, t0

    def propose(
        self, tasks: TaskSeq, cutoff: Optional[float] = None
    ) -> float:
        """Make-span of a candidate mutation of the baseline.

        Replays only the call suffix the mutation can affect.  With
        ``cutoff`` set, returns ``math.inf`` as soon as the candidate is
        provably worse than the cutoff (hill-climbing's reject path).
        The candidate is remembered; :meth:`commit` adopts it.
        """
        self._require_bound()
        if self.metrics is not None:
            self.metrics.counter("vecsim.proposals").inc()
        prep = self._prepare(tasks)
        i0, t0 = self._resume_point(prep)
        self._cand = (prep, i0, t0)
        if i0 >= len(self._calls_fid):
            return self._b_makespan
        span = self._replay_span(
            prep, i0, t0, cutoff if cutoff is not None else _INF
        )
        return span

    def commit(self) -> float:
        """Adopt the last proposed candidate as the new baseline.

        Re-runs the suffix with full bookkeeping and splices it into the
        cached trajectory — ``O(suffix)``, never ``O(N)``.  Returns the
        new baseline make-span.
        """
        self._require_bound()
        if self._cand is None:
            raise RuntimeError("no pending candidate; call propose() first")
        if self.metrics is not None:
            self.metrics.counter("vecsim.commits").inc()
        prep, i0, t0 = self._cand
        self._cand = None
        exec0 = self._b_cum_exec[i0 - 1] if i0 > 0 else 0.0
        bubble0 = self._b_cum_bubble[i0 - 1] if i0 > 0 else 0.0
        arrays = self._replay(prep, i0, t0, exec0, bubble0)
        self._install(prep, i0, arrays)
        return self._b_makespan

    def _install(self, prep: _Prep, i0: int, arrays) -> None:
        starts, finishes, levels, cum_exec, cum_bubble = arrays
        if i0 == 0:
            self._b_start = starts
            self._b_finish = finishes
            self._b_level = levels
            self._b_cum_exec = cum_exec
            self._b_cum_bubble = cum_bubble
        else:
            self._b_start[i0:] = starts
            self._b_finish[i0:] = finishes
            self._b_level[i0:] = levels
            self._b_cum_exec[i0:] = cum_exec
            self._b_cum_bubble[i0:] = cum_bubble
        self._b_prep = prep
        self._b_makespan = self._b_finish[-1] if self._b_finish else 0.0

    def preview(
        self, tasks: TaskSeq, record_timeline: bool = False
    ) -> MakespanResult:
        """Full result of a candidate mutation, without committing it.

        Incremental twin of :meth:`evaluate`: resumes from the cached
        prefix and stitches prefix + replayed suffix into a complete
        :class:`MakespanResult` (bitwise equal to a from-scratch run).
        """
        self._require_bound()
        prep = self._prepare(tasks)
        i0, t0 = self._resume_point(prep)
        self._cand = None  # previews do not arm commit()
        exec0 = self._b_cum_exec[i0 - 1] if i0 > 0 else 0.0
        bubble0 = self._b_cum_bubble[i0 - 1] if i0 > 0 else 0.0
        suffix = self._replay(prep, i0, t0, exec0, bubble0)
        starts, finishes, levels, cum_exec, cum_bubble = suffix
        full = (
            self._b_start[:i0] + starts,
            self._b_finish[:i0] + finishes,
            self._b_level[:i0] + levels,
            self._b_cum_exec[:i0] + cum_exec,
            self._b_cum_bubble[:i0] + cum_bubble,
        )
        return self._assemble(prep, full, record_timeline)

    def result(self, record_timeline: bool = False) -> MakespanResult:
        """Full :class:`MakespanResult` of the bound baseline."""
        self._require_bound()
        arrays = (
            self._b_start,
            self._b_finish,
            self._b_level,
            self._b_cum_exec,
            self._b_cum_bubble,
        )
        return self._assemble(self._b_prep, arrays, record_timeline)
