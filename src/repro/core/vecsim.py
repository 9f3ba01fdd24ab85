"""Structure-of-arrays simulation kernel (the ``"vector"`` engine).

The paper's real call sequences span hundreds of thousands to tens of
millions of calls (Table 1); the pure-Python replay loops dominate wall
time long before that.  :class:`VectorSimulator` keeps the replay state
in flat arrays — the interned call sequence as ``int64`` ids, the
current per-function level and execution time as dense vectors — and
evaluates the bulk call segments with numpy prefix sums instead of
per-call Python bytecode.

Exactness contract (same as :class:`~repro.core.fastsim.FastSimulator`,
which this class extends): every number is **bitwise identical** to the
reference :func:`~repro.core.makespan.simulate`.  The vector kernel
earns this the same way the fast engine does — by performing the
reference's exact float operations in the exact order:

* ``numpy.cumsum`` over a 1-D float64 array is a sequential
  left-associated accumulation, exactly like ``itertools.accumulate``
  (pairwise ``numpy.sum`` would NOT be — it is never used here);
* chaining is done by seeding element 0 of the cumsum buffer with the
  running clock, so chunk boundaries cannot perturb rounding;
* ``numpy.searchsorted(..., side="left")`` locates compile-event
  crossings exactly like ``bisect.bisect_left``.

numpy is a required dependency of the package.  Setting the
``REPRO_NO_NUMPY`` environment variable makes every override fall back
to the inherited pure-Python structure-of-arrays path instead (same
numbers, no array kernel), which keeps that path tested.

Work counters are identical to the fast engine's — including
``fastsim.span_calls_replayed``, whose value depends on the galloping
chunk schedule of the cutoff replay; the vector override therefore
mirrors that schedule chunk for chunk.

``tests/test_vecsim_differential.py`` enforces all of this
differentially on hypothesis-generated instances.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Optional, Sequence, Tuple

import numpy as np

from .fastsim import _INF, FastSimulator, TaskSeq, _Prep, interned
from .makespan import (
    DueDateObjectives,
    DueDateTable,
    MakespanResult,
    validate_for_simulation,
)
from .model import OCSPInstance
from .schedule import Schedule, ScheduleError

__all__ = ["VectorSimulator", "instance_arrays", "numpy_available"]


def _numpy_or_none():
    """The numpy module, or ``None`` when ``REPRO_NO_NUMPY`` switches the
    array kernels off."""
    return None if os.environ.get("REPRO_NO_NUMPY") else np


def numpy_available() -> bool:
    """True when the vector engine will actually vectorize."""
    return _numpy_or_none() is not None


class _Arrays:
    """Static structure-of-arrays state of one instance.

    Built once per instance from its :class:`~repro.core.fastsim._Interned`
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
    """The instance's shared :class:`_Arrays`, built on first use.

    Always array-backed (numpy is required): ``REPRO_NO_NUMPY`` switches
    off the vector engine's kernels, not this shared data.
    """
    shared = interned(instance)
    if shared.arrays is None:
        shared.arrays = _Arrays(shared)
    return shared.arrays


class VectorSimulator(FastSimulator):
    """Structure-of-arrays make-span evaluator for one instance.

    A drop-in :class:`~repro.core.fastsim.FastSimulator` whose replay
    loops run on flat numpy arrays.  The public API, the exactness
    contract, and the ``fastsim.*`` work counters are identical; only
    wall time differs.  Without numpy every method transparently uses
    the inherited pure-Python path.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        compile_threads: int = 1,
        preinstalled=None,
        metrics=None,
    ) -> None:
        super().__init__(
            instance,
            compile_threads=compile_threads,
            preinstalled=preinstalled,
            metrics=metrics,
        )
        self._np = _numpy_or_none()
        if self._np is not None:
            arrays = self._arrays = instance_arrays(instance)
            self._calls_np = arrays.calls_np
            self._max_levels = arrays.max_levels
            self._exec_tab = arrays.exec_tab
            self._compile_tab = arrays.compile_tab
            self._nlvl_np = arrays.nlvl_np
            self._first_pos_np = arrays.first_pos_np
            self._first_fids_np = arrays.first_fids_np
            self._call_counts_np = arrays.call_counts_np
            self._called_mask_np = arrays.called_mask_np
            self._pre_pairs = [
                (fid, ev[0][1])
                for fid, ev in enumerate(self._pre_events)
                if ev
            ]
            # One-slot cache of the last Schedule's interned task
            # arrays.  Schedules are immutable, so identity implies
            # equality; local search and the bench loops re-evaluate
            # the same Schedule object many times.
            self._sched_arrays = None

    # ------------------------------------------------------------------
    # Full-bookkeeping replay (timelines, incremental bind/commit)
    # ------------------------------------------------------------------
    def _replay(
        self, prep: _Prep, i0: int, t0: float, exec0: float, bubble0: float
    ):
        np = self._np
        if np is None:
            return super()._replay(prep, i0, t0, exec0, bubble0)
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
            metrics.counter("fastsim.replays").inc()
            metrics.counter("fastsim.calls_replayed").inc(n - i0)
        return starts_out, fins_out, lvls_out, cum_exec, cum_bubble

    # ------------------------------------------------------------------
    # Make-span-only replay (local search's propose path)
    # ------------------------------------------------------------------
    def _replay_span_impl(
        self, prep: _Prep, i0: int, t0: float, cutoff: float
    ) -> Tuple[float, int]:
        # Mirrors the inherited chunk schedule (base 128, doubling,
        # reset per outer iteration) *exactly*: the bail-out index —
        # and with it the ``fastsim.span_calls_replayed`` counter — is
        # chunk-boundary-dependent, and the engines must agree on it.
        np = self._np
        if np is None:
            return super()._replay_span_impl(prep, i0, t0, cutoff)
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
        np = self._np
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
        hist = np.bincount(levels, minlength=self._max_levels).tolist()
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
        np = self._np
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
        np = self._np
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
        np = self._np
        calls_np = self._calls_np
        n = len(calls_np)
        num_fids = self._num_fids
        num_tasks = len(tfids)
        if num_tasks and (
            int(tlvls.min()) < 0 or bool(np.any(tlvls >= self._nlvl_np[tfids]))
        ):
            return None  # out-of-range level: defer to the legacy path
        metrics = self.metrics

        # ---- per-task chain (single thread, no releases) -------------
        if num_tasks:
            fins = np.cumsum(self._compile_tab[tfids, tlvls])
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
        K = self._max_levels + 1
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
        missing = self._called_mask_np & ~has_event
        if bool(missing.any()):
            if metrics is not None:
                metrics.counter("fastsim.prepares").inc()
                metrics.counter("fastsim.tasks_prepared").inc(num_tasks)
            for fid in self._called_fids:
                if missing[fid]:
                    raise ScheduleError(
                        f"function {self._fnames[fid]!r} is never compiled"
                    )

        # ---- per-call levels and exec times --------------------------
        varying = np.nonzero(
            self._called_mask_np & (lvl_first != lvl_final)
        )[0]
        lvl_uni = lvl_final.copy()
        if varying.size:
            lvl_uni[varying] = lvl_first[varying]
        # Uncalled fids may carry level -1 here; the gather below only
        # ever reads called fids' rows (and -1 wraps, harmlessly).
        e_fid = self._exec_tab[np.arange(num_fids), lvl_uni]
        e = e_fid[calls_np]

        fp = self._first_pos_np
        ffids = self._first_fids_np
        first_F = first_fin[ffids]
        pre_lookup = dict(self._pre_pairs)
        var_state = []
        for fid in varying.tolist():
            ogroups, obounds = self._arrays.call_groups()
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
                        e[pos] = self._exec_tab[fid][new]
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
        hist = np.zeros(self._max_levels, dtype=np.int64)
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
            hist += np.bincount(exact, minlength=self._max_levels)

        # ---- totals (all single exact passes) ------------------------
        t = float(ends[len(ends) - 1])
        total_exec = float(P[n - 1]) if n else 0.0
        nbind = int(binding.sum()) if n else 0
        if nbind:
            bubbles = seeds[1:] - ends[:-1]
            total_bubble = float(np.cumsum(bubbles)[nbind - 1])
        else:
            total_bubble = 0.0
        uni = np.nonzero(self._called_mask_np)[0]
        if varying.size:
            uni = uni[lvl_first[uni] == lvl_final[uni]]
        np.add.at(hist, lvl_final[uni], self._call_counts_np[uni])
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
        np = self._np
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
        np = self._np
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
        """Exact :func:`~repro.core.makespan.simulate` twin; see
        :meth:`FastSimulator.evaluate`.

        Timeline and tracer requests take the inherited path (whose
        :meth:`_replay` is already vectorized); plain evaluations use
        a totals-only kernel, which skips per-call list materialization
        entirely: the batched kernel when the schedule suits it
        (:meth:`_batched_or_none`), else the chunked exact replay.  Both
        give the same floats and the same work counters.
        """
        if self._np is None or record_timeline or tracer is not None:
            return super().evaluate(
                schedule,
                record_timeline=record_timeline,
                validate=validate,
                release_times=release_times,
                task_compile_times=task_compile_times,
                task_installs=task_installs,
                tracer=tracer,
            )
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("fastsim.evaluations").inc()
        if (
            not validate
            and release_times is None
            and task_compile_times is None
            and task_installs is None
        ):
            batched = self._batched_or_none(schedule)
            if batched is not None:
                if metrics is not None:
                    metrics.counter("fastsim.prepares").inc()
                    metrics.counter("fastsim.tasks_prepared").inc(
                        len(schedule)
                    )
                    metrics.counter("fastsim.replays").inc()
                    metrics.counter("fastsim.calls_replayed").inc(
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
        t, total_exec, total_bubble, calls_at_level, _f, _c = (
            self._replay_totals(prep)
        )
        if metrics is not None:
            metrics.counter("fastsim.replays").inc()
            metrics.counter("fastsim.calls_replayed").inc(len(self._calls_fid))
        return MakespanResult(
            makespan=t,
            compile_end=prep.finishes[-1] if prep.finishes else 0.0,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
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
        """Vectorized :meth:`FastSimulator.trace_stats`: same floats and
        counts, and no per-call Python objects.

        Call starts never decrease, so the calls starting before a
        threshold are a prefix of the trace: each threshold costs one
        crossing index, and the per-function counts one
        ``numpy.bincount`` over the prefix or suffix.  The batched
        kernel serves the schedules it suits (as in :meth:`evaluate`);
        the rest replay on the chunked totals kernel.
        """
        np = self._np
        if np is None:
            return super().trace_stats(schedule, before_time, after_time)
        wanted = [thr for thr in (before_time, after_time) if thr is not None]
        batched = self._batched_or_none(schedule)
        if batched is not None:
            result, first_starts, segments = batched
            t = result.makespan
            crossings = [self._segment_crossing(segments, thr) for thr in wanted]
            first_starts = first_starts.tolist()
            if self.metrics is not None:
                self.metrics.counter("fastsim.prepares").inc()
                self.metrics.counter("fastsim.tasks_prepared").inc(len(schedule))
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
    # Due-date objectives (vectorized aggregation)
    # ------------------------------------------------------------------
    def due_objectives(
        self, schedule: TaskSeq, due: DueDateTable, validate: bool = False
    ) -> DueDateObjectives:
        """Vectorized twin of :meth:`FastSimulator.due_objectives`.

        The per-call timeline comes from the (already vectorized)
        inherited replay; the aggregation runs on flat arrays.  Bitwise
        safety: tardiness maxima are order-independent, and the two
        weighted sums accumulate via 1-D ``numpy.cumsum`` — a
        sequential left-associated accumulation — over functions in
        sorted-name order, exactly the reference aggregation order.
        """
        np = self._np
        if np is None:
            return super().due_objectives(schedule, due, validate=validate)
        result = self.evaluate(schedule, record_timeline=True, validate=validate)
        last_finish = {}
        for timing in result.call_timings:
            if timing.function in due:
                last_finish[timing.function] = timing.finish
        items = [
            (fname, due_time, weight, last_finish[fname])
            for fname, (due_time, weight) in due.items()
            if fname in last_finish
        ]
        if not items:
            return DueDateObjectives(
                makespan=result.makespan,
                max_tardiness=0.0,
                total_weighted_tardiness=0.0,
                weighted_completion=0.0,
                num_late=0,
                num_jobs=0,
                completions={},
            )
        dues = np.array([item[1] for item in items], dtype=np.float64)
        weights = np.array([item[2] for item in items], dtype=np.float64)
        finishes = np.array([item[3] for item in items], dtype=np.float64)
        tardiness = finishes - dues
        late = tardiness > 0.0
        clamped = np.where(late, tardiness, 0.0)
        twt = np.cumsum(weights * clamped)[-1] if len(items) else 0.0
        wc = np.cumsum(weights * finishes)[-1]
        return DueDateObjectives(
            makespan=result.makespan,
            max_tardiness=float(clamped.max()) if len(items) else 0.0,
            total_weighted_tardiness=float(twt),
            weighted_completion=float(wc),
            num_late=int(late.sum()),
            num_jobs=len(items),
            completions=last_finish,
        )
