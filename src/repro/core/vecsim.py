"""The make-span engine (``engine="vector"``).

:func:`repro.core.makespan.simulate` is the measurement component every
experiment funnels through — the limit studies (Figures 5–8), the
local-search optimality bracket, and the ablations all call it thousands
of times on the *same* instance, and it re-derives everything per call.
:class:`VectorSimulator` splits that work into four tiers:

* **per-trace** (built with the instance, shared by its projections):
  :class:`~repro.core.model.OCSPInstance` interns its call sequence
  once, as one compact id array (a function's id is its position in
  ``profiles``) with each id's call count and the first calls in
  order; :meth:`~repro.core.model.OCSPInstance.restricted_to_levels`
  hands its projection the same trace;
* **per-projection** (paid once per instance, by the first engine built
  on it, and shared by every engine and runtime replay on it — see
  :func:`instance_arrays`): the cost tables as id-indexed rows and
  matrices, the per-function call groups on first use, and the last
  :class:`~repro.core.schedule.Schedule`'s task arrays — so building an
  engine does no per-function work;
* **per-schedule** (paid per evaluation): compile-task finish times,
  each function's first install and the later installs that raise its
  level — ``O(S)`` for ``S`` tasks, which is tiny next to the
  ``N``-call trace;
* **per-call** (the replay): numpy prefix sums over long chunks of
  calls, instead of per-call Python bytecode.

Where a chunk must end.  The reference runs each call of ``f`` at
``start = max(t, first install of f)``, at the best level of ``f``
installed by ``start``.  Three facts say where that can differ from a
plain prefix sum of exec times:

* No call of ``f`` starts before ``f``'s first install finishes — it
  waits for it.  So whatever that install (and any finishing with it)
  puts in place is visible to every call of ``f``, and the replay can
  give each function its *first-install level* from the start.
* A later install of ``f`` that raises its level changes the exec time
  of ``f``'s calls only, and only of those starting at or after it
  finishes.  The other functions' calls, and the clock up to the next
  call of ``f`` that starts after the install, are what they were.
* The clock jumps (a bubble) only at a first call that blocks.

So a chunk summed at the current levels is exact up to the earliest of
its first calls whose clock is below their first install, and, for each
raise its clock passes, the next call of the raised function from there
on.  :meth:`VectorSimulator._walk` commits the calls before that point,
applies the raises its clock has passed and sums the next chunk from
there.  Cuts track blocking first calls and recompiled functions' next
calls, not compile events.

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

* ``numpy.cumsum`` (``numpy.add.accumulate``) over a float64 row is a
  sequential left-associated accumulation, like the reference's
  ``t += e`` loop (pairwise ``numpy.sum`` would NOT be — it is never
  used here);
* chaining is done by seeding element 0 of the cumsum buffer with the
  running clock (or exec total), so chunk boundaries cannot perturb
  rounding;
* ``numpy.searchsorted(..., side="left")`` locates the first call
  starting at or after a time exactly like ``bisect.bisect_left``.

``tests/test_vecsim_differential.py`` enforces the contract
differentially on hypothesis-generated instances.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .makespan import (
    CallTiming,
    MakespanResult,
    TaskTiming,
    _check_engine_args,
    _check_task_overrides,
    _compile_task_finishes,
    _task_timings,
)
from .model import OCSPInstance
from .schedule import CompileTask, Schedule, ScheduleError

__all__ = ["VectorSimulator", "instance_arrays"]

TaskSeq = Union[Schedule, Sequence[CompileTask]]

_INF = math.inf


class _Prep:
    """Per-schedule precomputation: task timings, each function's first
    install, and the recompiles that raise a function's level after it."""

    __slots__ = (
        "tasks",
        "starts",
        "finishes",
        "threads",
        "events",
        "first_fin",
        "init_levels",
        "raise_fins",
        "raise_fids",
        "raise_levels",
        "settle",
        "missing",
    )

    def __init__(self) -> None:
        self.tasks: Tuple[CompileTask, ...] = ()
        self.starts: List[float] = []
        self.finishes: List[float] = []
        self.threads: List[int] = []
        self.events: List[List[Tuple[float, int]]] = []
        # Per fid: when its first install finishes, and the best level
        # installed by then (-1 for a function with no install).
        self.first_fin: List[float] = []
        self.init_levels: List[int] = []
        # The later installs that raise a function's level, sorted by
        # finish time; the replay applies them as its clock passes them.
        self.raise_fins: List[float] = []
        self.raise_fids: List[int] = []
        self.raise_levels: List[int] = []
        # The last first install or raise: from then on no call blocks
        # and no level changes.
        self.settle = 0.0
        self.missing: Optional[str] = None


class _Arrays:
    """The per-projection tier: cost rows and tables, and call groups.

    The calls as ids, their counts and first calls belong to the trace
    (``trace``), which the instance interns when it is built and its
    projections share.  What a projection changes is its cost table:
    ``exec_rows`` are each function's exec times, in id order, and
    ``exec_tab``/``compile_tab`` the exec and compile times as dense
    ``(fid, level)`` matrices (rows padded with their last entry —
    padding is never indexed because level validity is checked first).
    :func:`instance_arrays` builds it once per instance, and every
    vector engine and runtime replay on the instance shares it
    read-only; the per-fid call-position groups are built on first use
    (:meth:`call_groups`).  ``sched_arrays`` is a one-slot memo of the
    last :class:`~repro.core.schedule.Schedule`'s task arrays
    (:meth:`VectorSimulator._task_arrays`), shared by the engines.
    """

    __slots__ = (
        "trace",
        "exec_rows",
        "max_levels",
        "exec_tab",
        "compile_tab",
        "nlvl_np",
        "sched_arrays",
        "_groups",
    )

    def __init__(self, instance: OCSPInstance) -> None:
        self.trace = instance.calls
        profiles = instance.profiles.values()
        exec_rows = self.exec_rows = [prof.exec_times for prof in profiles]
        ml = self.max_levels = max((len(row) for row in exec_rows), default=1)

        def table(rows):
            if not rows:
                return np.zeros((0, ml))
            return np.array([row + (row[-1],) * (ml - len(row)) for row in rows])

        self.exec_tab = table(exec_rows)
        self.compile_tab = table([prof.compile_times for prof in profiles])
        self.nlvl_np = np.asarray([len(row) for row in exec_rows], dtype=np.int64)
        self.sched_arrays = None
        self._groups = None

    def call_groups(self):
        """``(order, bounds)``: positions of fid ``f``'s calls, ascending,
        are ``order[bounds[f]:bounds[f + 1]]``.  Built on first use."""
        if self._groups is None:
            trace = self.trace
            # Stable, so each group stays ascending; numpy radix-sorts
            # ids of 16 bits or fewer.
            order = np.argsort(trace.ids, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(trace.counts)))
            self._groups = (order, bounds)
        return self._groups


def instance_arrays(instance: OCSPInstance) -> _Arrays:
    """The instance's shared :class:`_Arrays`, built on first use."""
    arrays = getattr(instance, "_arrays", None)
    if arrays is None:
        arrays = _Arrays(instance)
        object.__setattr__(instance, "_arrays", arrays)
    return arrays


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
            ``span_calls_replayed`` / ``chunks`` (the chunked replay's
            cumsums).  All increments happen at call boundaries (never
            inside the replay loops), so a detached registry (``None``,
            the default) costs one branch per method call and counting
            never changes the numbers.

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
        self._preinstalled = _check_engine_args(
            instance, compile_threads, preinstalled
        )
        self._instance = instance
        self._compile_threads = compile_threads
        self.metrics = metrics

        # ---- the trace's ids, the projection's costs (shared) ---------
        arrays = self._arrays = instance_arrays(instance)
        trace = arrays.trace
        self._fnames = trace.names
        self._fid_of = fid_of = trace.fid_of
        self._num_fids = len(self._fnames)
        self._ids = trace.ids
        self._exec_rows = arrays.exec_rows
        # Distinct called fids and their first-call positions, in
        # first-call order: the only calls that can wait.
        self._called_fids: List[int] = trace.first_fids_list
        self._first_pos: List[int] = trace.first_pos_list
        # Preinstalled code: ``(fid, level)``, installed at t = 0.
        self._pre_pairs = [
            (fid_of[fname], level) for fname, level in self._preinstalled.items()
        ]

        # ---- incremental baseline state ------------------------------
        self._b_prep: Optional[_Prep] = None
        self._b_start: List[float] = []
        self._b_finish: List[float] = []
        self._b_level: List[int] = []
        self._b_cum_exec: List[float] = []
        self._b_cum_bubble: List[float] = []
        self._b_makespan = 0.0
        self._cand: Optional[Tuple[_Prep, int, float]] = None

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
        validate: bool = False,
    ) -> _Prep:
        """Compute task timings and per-function event lists: ``O(S)``.

        The argument checks, the legality check (with ``validate``) and
        the task starts, finishes and threads are the reference's own
        (:func:`~repro.core.makespan.simulate`), run in its order; only
        the fid-indexed install lists are built here.
        """
        tasks = self._as_tasks(schedule)
        _check_task_overrides(
            len(tasks), release_times, task_compile_times, task_installs
        )
        instance = self._instance
        if validate:
            Schedule(tasks).validate(instance, self._preinstalled)
        prep = _Prep()
        prep.tasks = tasks
        prep.starts, prep.finishes, prep.threads = _compile_task_finishes(
            instance, tasks, self._compile_threads, release_times, task_compile_times
        )
        fid_of = self._fid_of
        events: List[List[Tuple[float, int]]] = [[] for _ in range(self._num_fids)]
        for fid, level in self._pre_pairs:
            events[fid].append((0.0, level))
        for i, (task, finish) in enumerate(zip(tasks, prep.finishes)):
            if task_installs is not None and not task_installs[i]:
                continue  # failed attempt: thread time, no code
            events[fid_of[task.function]].append((finish, task.level))
        prep.events = events

        first_fin = [0.0] * self._num_fids
        init_levels = [-1] * self._num_fids
        raises: List[Tuple[float, int, int]] = []
        settle = 0.0
        for fid, ev in enumerate(events):
            if not ev:
                continue
            ev.sort()
            first = last = ev[0][0]
            best = -1
            for finish, level in ev:
                if level <= best:
                    continue  # never the best installed level
                best = level
                if finish == first:
                    init_levels[fid] = level
                else:
                    raises.append((finish, fid, level))
                    last = finish
            first_fin[fid] = first
            if last > settle:
                settle = last
        raises.sort()
        prep.first_fin = first_fin
        prep.init_levels = init_levels
        prep.raise_fins = [r[0] for r in raises]
        prep.raise_fids = [r[1] for r in raises]
        prep.raise_levels = [r[2] for r in raises]
        prep.settle = settle
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
    # The chunked replay
    # ------------------------------------------------------------------
    # The smallest replay window and the cap windows grow to: they bound
    # the work a cut throws away and the scratch memory a replay holds.
    _CHUNK = 1024
    _MAX_CHUNK = 1 << 16

    def _walk(
        self,
        prep: _Prep,
        i0: int = 0,
        t0: float = 0.0,
        exec0: Optional[float] = None,
        bubble0: float = 0.0,
        *,
        timeline: Optional[Tuple[list, list, list, list, list]] = None,
        applied: Optional[List[int]] = None,
        firsts: Optional[list] = None,
        thresholds: Sequence[float] = (),
        crossings: Optional[List[int]] = None,
        cutoff: float = _INF,
    ) -> Tuple[float, int, Optional[float], float]:
        """Replay calls ``i0..N-1`` from clock ``t0``, one chunk at a time.

        Every replay of the engine (full bookkeeping, totals, trace pass,
        cutoff span) is this loop.  Each chunk is one seeded
        ``numpy.cumsum`` of the exec times at the current levels.  It is
        exact up to the first call that can differ from that sum (see
        the module docstring): a first call that blocks, or the next
        call of a function whose recompile the chunk's clock has passed.
        The chunk commits the calls before that point, and the next one
        starts there.

        Returns ``(t, reached, total_exec, total_bubble)``: the clock
        after the last replayed call, the index one past it, and the
        running totals.  The exec total chains from ``exec0`` in a
        second cumsum row, and only when ``exec0`` is given (else it is
        ``None``); the bubble total chains from ``bubble0``.  After the
        first call whose finish exceeds ``cutoff`` the replay stops,
        with ``t = math.inf``.  Optional outputs:

        * ``timeline``: five lists that receive each call's start,
          finish, level and running exec and bubble totals (needs
          ``exec0``);
        * ``applied[r]``: the call index from which recompile ``r`` of
          ``prep`` holds in the replay (its function's calls before it
          run below its level);
        * ``firsts``: arrays of the start times of the first calls
          replayed, in first-call order;
        * ``crossings[j]``: the index of the first call starting at or
          after ``thresholds[j]``; left alone if no call does.
        """
        self._check_covered(prep)
        arrays = self._arrays
        trace = arrays.trace
        ids = self._ids
        n = len(ids)
        exec_rows = self._exec_rows
        first_fin = prep.first_fin
        first_pos = self._first_pos
        first_fids = self._called_fids
        num_firsts = len(first_pos)
        first_pos_np = trace.first_pos
        first_fin_np = np.asarray(first_fin).take(trace.first_fids)
        raise_fins = prep.raise_fins
        raise_fids = prep.raise_fids
        raise_levels = prep.raise_levels
        num_raises = len(raise_fins)
        if num_raises:
            raise_fins_np = np.asarray(raise_fins)
            order, bounds = arrays.call_groups()
        # No call of a function starts before its first install, so
        # every function can start at its first-install level.
        bests = np.array(prep.init_levels, dtype=np.int64)
        cur_exec = arrays.exec_tab[np.arange(self._num_fids), bests]
        settle = prep.settle
        rows = 1 if exec0 is None else 2
        empty = np.empty
        accumulate = np.add.accumulate  # numpy.cumsum, minus its wrapper
        searchsorted = np.searchsorted
        pending = sorted((thr, j) for j, thr in enumerate(thresholds))
        chunk = self._CHUNK
        max_chunk = self._MAX_CHUNK
        step = chunk
        chunks = 0
        t = t0
        total_exec = exec0
        total_bubble = bubble0
        reached = n
        i = i0
        k = 0
        fb = bisect_left(first_pos, i0)
        while i < n:
            if fb < num_firsts and first_pos[fb] == i:
                fr = first_fin[first_fids[fb]]
                if t < fr:
                    # A blocking first call: the one place a bubble
                    # appears and the clock jumps forward.
                    total_bubble += fr - t
                    t = fr
                    if t > cutoff:
                        reached = i + 1
                        t = _INF
                        break
            while k < num_raises and raise_fins[k] <= t:
                fid = raise_fids[k]
                level = raise_levels[k]
                bests[fid] = level
                cur_exec[fid] = exec_rows[fid][level]
                if applied is not None:
                    applied.append(i)
                k += 1
            if t >= settle:
                step = max_chunk  # every install is in place: no cut left
            j = i + step if i + step < n else n
            m = j - i
            seg = ids[i:j]
            # Row 0 chains the clock, row 1 the exec total: each row's
            # cumsum is the reference's sequential sum from its seed.
            mat = empty((rows, m + 1))
            arr = mat[0]
            arr[0] = t
            cur_exec.take(seg, out=arr[1:], mode="clip")  # ids in range
            if rows == 2:
                mat[1, 0] = total_exec
                mat[1, 1:] = arr[1:]
            accumulate(mat, axis=1, out=mat)
            chunks += 1
            p = m
            fe = bisect_left(first_pos, j, fb)
            if t < settle:
                # arr[q] is the start of call i + q until the first cut.
                # The first call at i, if any, no longer blocks.
                if fe > fb:
                    blocked = arr[first_pos_np[fb:fe] - i] < first_fin_np[fb:fe]
                    r = int(blocked.argmax())
                    if blocked[r]:
                        p = first_pos[fb + r] - i
                if k < num_raises and raise_fins[k] <= arr[p - 1]:
                    # Recompiles finishing by the last start before the
                    # cut (each after arr[0], so q >= 1): the chunk ends
                    # at the function's next call from the crossing on.
                    kk = bisect_right(raise_fins, arr[p - 1], k)
                    qs = searchsorted(arr[:p], raise_fins_np[k:kk], side="left")
                    for fid, q in zip(raise_fids[k:kk], qs.tolist()):
                        if q >= p:
                            break
                        calls_of = order[bounds[fid] : bounds[fid + 1]]
                        x = int(calls_of.searchsorted(i + q))
                        if x < len(calls_of) and calls_of[x] - i < p:
                            p = int(calls_of[x]) - i
            if rows == 2:
                total_exec = float(mat[1, p])
                if timeline is not None:
                    starts, finishes, levels, cum_exec, cum_bubble = timeline
                    starts.extend(arr[:p].tolist())
                    finishes.extend(arr[1 : p + 1].tolist())
                    levels.extend(bests.take(seg[:p]).tolist())
                    cum_exec.extend(mat[1, 1 : p + 1].tolist())
                    cum_bubble.extend([total_bubble] * p)
            fb_next = bisect_left(first_pos, i + p, fb, fe)
            if firsts is not None and fb_next > fb:
                firsts.append(arr[first_pos_np[fb:fb_next] - i])
            # Call starts never decrease, so each threshold is crossed
            # once, inside the chunk that first reaches it.
            while pending and arr[p - 1] >= pending[0][0]:
                thr, slot = pending.pop(0)
                crossings[slot] = i + int(searchsorted(arr[:p], thr, side="left"))
            t = float(arr[p])
            if t > cutoff:
                over = int(searchsorted(arr[1 : p + 1], cutoff, side="right"))
                reached = i + over + 1
                t = _INF
                break
            i += p
            fb = fb_next
            # Next window: twice what this one committed, within bounds.
            step = min(max(2 * p, chunk), max_chunk)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("vecsim.chunks").inc(chunks)
        return t, reached, total_exec, total_bubble

    def _replay(
        self, prep: _Prep, i0: int, t0: float, exec0: float, bubble0: float
    ):
        """Full-bookkeeping replay of calls ``i0..N-1`` from state
        ``(t0, exec0, bubble0)``.

        Returns ``(starts, finishes, levels, cum_exec, cum_bubble)``
        suffix lists; the final totals are the lists' last entries.
        """
        timeline: Tuple[list, list, list, list, list] = ([], [], [], [], [])
        self._walk(prep, i0, t0, exec0, bubble0, timeline=timeline)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("vecsim.replays").inc()
            metrics.counter("vecsim.calls_replayed").inc(len(timeline[0]))
        return timeline

    def _replay_span(
        self, prep: _Prep, i0: int, t0: float, cutoff: float
    ) -> float:
        """Make-span-only replay of calls ``i0..N-1``.

        Returns ``math.inf`` once a call finishes past ``cutoff`` — the
        clock is monotone, so the final make-span then exceeds it too.
        ``vecsim.span_calls_replayed`` counts the calls up to and
        including that call, whatever the chunk sizes.
        """
        t, reached, _exec, _bubble = self._walk(prep, i0, t0, cutoff=cutoff)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("vecsim.span_replays").inc()
            metrics.counter("vecsim.span_calls_replayed").inc(reached - i0)
        return t

    def _replay_totals(self, prep: _Prep):
        """Totals of a full replay without per-call Python objects:
        ``(t, total_exec, total_bubble, calls_at_level)``.

        A function runs its calls at its first-install level until its
        first recompile holds, then at that level until the next, so
        the level histogram follows from each function's call count and
        where its recompiles held (a bisection each).
        """
        applied: List[int] = []
        t, _reached, total_exec, total_bubble = self._walk(
            prep, exec0=0.0, applied=applied
        )
        arrays = self._arrays
        counts = arrays.trace.counts
        called = np.nonzero(counts)[0]
        hist = np.zeros(arrays.max_levels, dtype=np.int64)
        np.add.at(hist, np.asarray(prep.init_levels)[called], counts[called])
        if applied:
            order, bounds = arrays.call_groups()
            level_of = {}
            for fid, level, at in zip(prep.raise_fids, prep.raise_levels, applied):
                calls_of = order[bounds[fid] : bounds[fid + 1]]
                moved = len(calls_of) - int(calls_of.searchsorted(at))
                hist[level_of.get(fid, prep.init_levels[fid])] -= moved
                hist[level] += moved
                level_of[fid] = level
        calls_at_level = {
            level: count for level, count in enumerate(hist.tolist()) if count
        }
        return t, total_exec, total_bubble, calls_at_level

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

    def _task_arrays(self, schedule):
        """``(tfids, tlvls)``: the schedule's task fids and levels as
        arrays, memoized on the projection for the last :class:`Schedule`
        object.  Schedules are immutable, so identity implies equality;
        local search and the bench loops re-evaluate one object many
        times."""
        cached = self._arrays.sched_arrays
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
            self._arrays.sched_arrays = (schedule, tfids, tlvls)
        return tfids, tlvls

    def _batched_timeline(self, tfids, tlvls):
        """Whole-trace totals in a fixed number of numpy passes, for a
        single-thread schedule that installs every function once.

        The replay clock is a single float chain that *restarts* — at a
        blocking first call the reference assigns ``t = first_finish``,
        a static value — and each function runs all its calls at its
        one installed level.  So given *which first calls block*, the
        exact timeline is a set of independent seeded cumsums
        (:meth:`_segment_scan`), and the totals follow from single
        passes.

        Which first calls block is guessed from an approximate max-plus
        prefix (raw cumsum plus a running max of ``first_finish -
        prefix`` offsets) and then **verified exactly** against the
        segmented scan: every first call's exact pre-call clock is
        compared with its first finish.  On any mismatch (a tie
        resolved differently by rounding) the method returns ``None`` —
        before touching any counter — and the caller falls back to the
        chunked replay.  Results that do return are bitwise identical
        to the reference by construction.

        Returns ``(result, first_starts, segments)``: the
        :class:`MakespanResult` totals, the exact start of every first
        call (first-call order), and the timeline as
        ``(seg_a, lens, seeds, e)`` — segment ``r`` runs calls
        ``seg_a[r] .. seg_a[r] + lens[r] - 1`` back to back from
        ``seeds[r]``, call ``i`` taking ``e[i]``.
        """
        arrays = self._arrays
        trace = arrays.trace
        n = len(self._ids)
        num_fids = self._num_fids
        num_tasks = len(tfids)
        if num_tasks and (
            int(tlvls.min()) < 0 or bool(np.any(tlvls >= arrays.nlvl_np[tfids]))
        ):
            return None  # out-of-range level: defer to the chunked path

        # ---- per-task chain (single thread, no releases) -------------
        if num_tasks:
            fins = np.cumsum(arrays.compile_tab[tfids, tlvls])
            compile_end = float(fins[num_tasks - 1])
        else:
            fins = np.empty(0)
            compile_end = 0.0

        # ---- each function's one install -----------------------------
        first_fin = np.zeros(num_fids)
        first_fin[tfids] = fins
        level = np.full(num_fids, -1, dtype=np.int64)
        level[tfids] = tlvls
        for fid, plvl in self._pre_pairs:
            level[fid] = plvl  # installed at t = 0
        missing = (trace.counts > 0) & (level < 0)
        if bool(missing.any()):
            metrics = self.metrics
            if metrics is not None:
                metrics.counter("vecsim.prepares").inc()
                metrics.counter("vecsim.tasks_prepared").inc(num_tasks)
            for fid in self._called_fids:
                if missing[fid]:
                    raise ScheduleError(
                        f"function {self._fnames[fid]!r} is never compiled"
                    )
        # Uncalled fids may carry level -1 here; the gather below only
        # ever reads called fids' rows (and -1 wraps, harmlessly).
        e = arrays.exec_tab[np.arange(num_fids), level].take(self._ids)

        # ---- guess which first calls block ---------------------------
        # Approximate max-plus bubble offsets at the first-call
        # positions (raw prefix + running max of F - prefix); only used
        # to *guess* decisions, never to produce a float.
        fp = trace.first_pos
        first_F = first_fin.take(trace.first_fids)
        if n:
            P = np.cumsum(e)
            cand = first_F - (P[fp] - e[fp])
            off_incl = np.maximum.accumulate(np.maximum(cand, 0.0))
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
        # calls, to verify they really did not block.
        nb = fp[~binding]
        ends, qvals = self._segment_scan(seg_a, lens, seeds, e, nb)

        # ---- exact verification of the guess -------------------------
        # Blocking first calls: the exact pre-call clock (the previous
        # segment's end) must be strictly below the first finish.
        if not bool(np.all(ends[:-1] < seeds[1:])):
            return None
        # Non-blocking first calls: the exact clock must already have
        # reached the first finish.
        if len(nb) and not bool(np.all(qvals >= first_F[~binding])):
            return None

        # ---- totals (all single exact passes) ------------------------
        t = float(ends[len(ends) - 1])
        total_exec = float(P[n - 1]) if n else 0.0
        nbind = int(binding.sum()) if n else 0
        if nbind:
            bubbles = seeds[1:] - ends[:-1]
            total_bubble = float(np.cumsum(bubbles)[nbind - 1])
        else:
            total_bubble = 0.0
        called = np.nonzero(trace.counts)[0]
        hist = np.zeros(arrays.max_levels, dtype=np.int64)
        np.add.at(hist, level[called], trace.counts[called])
        calls_at_level = {
            lvl: int(count) for lvl, count in enumerate(hist.tolist()) if count
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
        first_starts[~binding] = qvals
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
        kernel — one compile thread, and every function installed once
        (no recompile, no task for a preinstalled function) — and its
        verification holds; else ``None`` (take the chunked replay).

        Level changes are the chunked replay's alone: it cuts at the
        next call of a recompiled function, which on the study's
        schedules beats re-deriving levels in the batched kernel (see
        docs/BENCHMARKS.md, "Batched or chunked")."""
        if self._compile_threads != 1:
            return None
        tfids, tlvls = self._task_arrays(schedule)
        counts = np.bincount(tfids, minlength=self._num_fids)
        for fid, _level in self._pre_pairs:
            counts[fid] += 1
        if counts.size and int(counts.max()) > 1:
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
        :meth:`_replay`; plain evaluations skip per-call list
        materialization entirely: the batched kernel when the schedule
        suits it (:meth:`_batched_or_none`), else the chunked replay's
        totals (:meth:`_replay_totals`).  All give the same floats and
        the same work counters, except ``vecsim.chunks``, which only
        the chunked replay counts.
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
                        len(self._ids)
                    )
                return batched[0]
        prep = self._prepare(
            schedule, release_times, task_compile_times, task_installs, validate
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
            return dataclasses.replace(result, task_timings=None, call_timings=None)
        t, total_exec, total_bubble, calls_at_level = self._replay_totals(prep)
        if metrics is not None:
            metrics.counter("vecsim.replays").inc()
            metrics.counter("vecsim.calls_replayed").inc(len(self._ids))
        return MakespanResult(
            makespan=t,
            compile_end=prep.finishes[-1] if prep.finishes else 0.0,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
        )

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
            task_timings = _task_timings(
                prep.tasks, prep.starts, prep.finishes, prep.threads
            )
            prev = 0.0
            calls: List[CallTiming] = []
            for fid, s, f, level in zip(
                self._ids.tolist(), starts, finishes, levels
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
        with the exact semantics (and floats) of the reference's
        :meth:`~repro.core.engine.ReferenceSimulator.trace_stats`:
        ``calls_before[f]`` counts invocations starting strictly before
        ``before_time`` and ``calls_after[f]`` those starting at or after
        ``after_time``.

        Call starts never decrease, so the calls starting before a
        threshold are a prefix of the trace: each threshold costs one
        crossing index, and the per-function counts one
        ``numpy.bincount`` over the prefix or suffix.  The batched
        kernel serves the schedules it suits (as in :meth:`evaluate`);
        the rest take the chunked replay, which sums no exec total.
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
            firsts: List[np.ndarray] = []
            crossings = [len(self._ids)] * len(wanted)
            t, _reached, _exec, _bubble = self._walk(
                self._prepare(schedule),
                firsts=firsts,
                thresholds=wanted,
                crossings=crossings,
            )
            first_starts = np.concatenate(firsts).tolist() if firsts else []
        fnames = self._fnames
        ids = self._ids

        def counted(calls):
            counts = np.bincount(calls, minlength=self._num_fids).tolist()
            return {fnames[fid]: c for fid, c in enumerate(counts) if c}

        crossing = iter(crossings)
        before = {} if before_time is None else counted(ids[: next(crossing)])
        after = {} if after_time is None else counted(ids[next(crossing) :])
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
        prep = self._prepare(schedule, validate=validate)
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
            n = len(self._ids)
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
        if i0 >= len(self._ids):
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
