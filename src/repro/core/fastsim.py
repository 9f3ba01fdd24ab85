"""Fast-path make-span evaluation engine.

:func:`repro.core.makespan.simulate` is the measurement component every
experiment funnels through — the limit studies (Figures 5–8), the
local-search optimality bracket, and the ablations all call it thousands
of times on the *same* instance.  Each call re-derives everything from
scratch: name-keyed dict lookups per invocation, per-function event maps,
and a full replay of the call sequence.

:class:`FastSimulator` splits that work into three tiers:

* **per-instance** (paid once per instance, by the first engine built
  on it, and shared by all of them — see :func:`interned`): function
  names are interned to dense integer ids, the call sequence becomes an
  id array, and the cost tables become id-indexed rows;
* **per-schedule** (paid per evaluation): compile-task finish times and
  per-function compile-event lists — ``O(S)`` for ``S`` tasks, which is
  tiny next to the ``N``-call trace;
* **per-call** (the replay): a tight loop over integer arrays, with the
  same fast-tail cutover the reference simulator uses once every
  compilation has finished.

On top of the full evaluation sits an **incremental mode** for local
search: :meth:`bind` caches the per-call trajectory of a baseline
schedule, and :meth:`propose` evaluates a mutated task list by replaying
only the *suffix* of calls that can observe the change.  A mutation's
earliest observable effect is the earliest compile-event finish time at
which the old and new schedules diverge (``t_min``); every call starting
before ``t_min`` behaves identically, so the replay resumes from the
first call whose start is ``>= t_min`` (found by bisection over the
cached, monotone start times).  For single-task moves late in the
schedule this drops the per-move cost from ``O(N)`` to ``O(suffix)``.

Exactness contract: every quantity this engine produces — make-span,
bubbles, execution totals, per-level call histograms, per-call and
per-task timelines — is **bitwise identical** to the reference
:func:`~repro.core.makespan.simulate`, including after incremental
updates.  The engine performs the same floating-point operations in the
same order; ``tests/test_fast_simulator.py`` enforces the contract
differentially on hypothesis-generated instances.
"""

from __future__ import annotations

import heapq
import math
import weakref
from bisect import bisect_left
from collections import deque
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, Union

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

__all__ = ["FastSimulator"]

TaskSeq = Union[Schedule, Sequence[CompileTask]]

_INF = math.inf


def _left_sum(values, start: float) -> float:
    """``start + v0 + v1 + ...``, added strictly left to right.

    Builtin ``sum`` compensates float rounding since Python 3.12, so it
    can differ in the last bits from the reference's sequential adds.
    """
    return deque(accumulate(values, initial=start), maxlen=1)[0]


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
        "all_done",
        "final_level",
        "final_exec",
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
        self.all_done = 0.0
        self.final_level: List[int] = []
        self.final_exec: List[float] = []
        self.missing: Optional[str] = None


class _Interned:
    """The per-instance tier: names interned to dense ids, the call
    sequence as an id list, and the cost tables as id-indexed rows.

    It depends on the instance alone, so :func:`interned` builds it once
    per instance and every engine on that instance (one per thread
    count, preinstalled set, or engine kind) shares it read-only.
    ``arrays`` holds the vector engine's numpy views of the same data,
    built by the first :class:`~repro.core.vecsim.VectorSimulator`.
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


class FastSimulator:
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
            deterministic work counters ``fastsim.prepares`` /
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
        shared = self._shared = interned(instance)
        self._fnames = shared.fnames
        self._fid_of = fid_of = shared.fid_of
        self._num_fids = len(self._fnames)
        self._calls_fid = shared.calls_fid
        self._exec_rows = shared.exec_rows
        self._compile_rows = shared.compile_rows
        self._called_fids = shared.called_fids
        self._first_pos = shared.first_pos
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

        all_done = 0.0
        final_level = [-1] * self._num_fids
        final_exec = [0.0] * self._num_fids
        first_fin = [0.0] * self._num_fids
        exec_rows = self._exec_rows
        flat: List[Tuple[float, int, int]] = []
        for fid, ev in enumerate(events):
            if not ev:
                continue
            ev.sort()
            first_fin[fid] = ev[0][0]
            last = ev[-1][0]
            if last > all_done:
                all_done = last
            best = -1
            for finish, level in ev:
                flat.append((finish, fid, level))
                if level > best:
                    best = level
            final_level[fid] = best
            final_exec[fid] = exec_rows[fid][best]
        flat.sort()
        prep.gev_fins = [g[0] for g in flat]
        prep.gev_fids = [g[1] for g in flat]
        prep.gev_levels = [g[2] for g in flat]
        prep.first_fin = first_fin
        prep.all_done = all_done
        prep.final_level = final_level
        prep.final_exec = final_exec
        for fid in self._called_fids:
            if not events[fid]:
                prep.missing = self._fnames[fid]
                break
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("fastsim.prepares").inc()
            metrics.counter("fastsim.tasks_prepared").inc(len(tasks))
        return prep

    def _check_covered(self, prep: _Prep) -> None:
        if prep.missing is not None:
            raise ScheduleError(
                f"function {prep.missing!r} is never compiled"
            )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _replay(
        self, prep: _Prep, i0: int, t0: float, exec0: float, bubble0: float
    ):
        """Full-bookkeeping replay of calls ``i0..N-1`` from state
        ``(t0, exec0, bubble0)``.

        Returns ``(starts, finishes, levels, cum_exec, cum_bubble)``
        suffix arrays; the final totals are the arrays' last entries.
        """
        self._check_covered(prep)
        calls = self._calls_fid
        n = len(calls)
        exec_rows = self._exec_rows
        gev_fins = prep.gev_fins
        gev_fids = prep.gev_fids
        gev_levels = prep.gev_levels
        num_events = len(gev_fins)
        first_fin = prep.first_fin
        first_pos = self._first_pos
        num_firsts = len(first_pos)
        bests = [-1] * self._num_fids
        cur_exec = [0.0] * self._num_fids
        exec_of = cur_exec.__getitem__
        level_of = bests.__getitem__
        starts_out: List[float] = []
        fins_out: List[float] = []
        lvls_out: List[int] = []
        cum_exec: List[float] = []
        cum_bubble: List[float] = []
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
                e = cur_exec[fid]
                finish = start + e
                total_bubble += start - t
                total_exec += e
                starts_out.append(start)
                fins_out.append(finish)
                lvls_out.append(bests[fid])
                cum_exec.append(total_exec)
                cum_bubble.append(total_bubble)
                t = finish
                i += 1
                fb += 1
                continue
            # Bulk segment: every call up to the next first-call boundary
            # runs back-to-back (start == clock) at a constant level, so
            # the clock is a sequential sum — C-speed via accumulate,
            # performing the reference's exact float additions.  (The
            # reference also adds a 0.0 bubble per call; ``x + 0.0 == x``
            # bitwise for the non-negative totals here, so skipping those
            # adds preserves exactness.)  While compile events are still
            # pending, accumulate in doubling (galloping) chunks so a
            # crossing mid-segment wastes at most one chunk of work.
            b = first_pos[fb] if fb < num_firsts else n
            step = 64 if k < num_events else b - i
            while i < b:
                j = b if b - i <= step else i + step
                arr = list(
                    accumulate(map(exec_of, calls[i:j]), initial=t)
                )
                crossed = k < num_events and gev_fins[k] <= arr[-1]
                if crossed:
                    # Calls at or after the crossing may change level:
                    # process the unaffected prefix, then re-enter the
                    # outer loop to apply the event.
                    p = bisect_left(arr, gev_fins[k])
                else:
                    p = len(arr) - 1
                if p:
                    starts_out.extend(arr[:p])
                    fins_out.extend(arr[1 : p + 1])
                    lvls_out.extend(map(level_of, calls[i : i + p]))
                    ce = list(
                        accumulate(
                            map(exec_of, calls[i : i + p]),
                            initial=total_exec,
                        )
                    )
                    cum_exec.extend(ce[1:])
                    total_exec = ce[-1]
                    cum_bubble.extend([total_bubble] * p)
                    t = arr[p]
                    i += p
                if crossed:
                    break
                step <<= 1
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("fastsim.replays").inc()
            metrics.counter("fastsim.calls_replayed").inc(n - i0)
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
            metrics.counter("fastsim.span_replays").inc()
            metrics.counter("fastsim.span_calls_replayed").inc(
                reached - i0
            )
        return span

    def _replay_span_impl(
        self, prep: _Prep, i0: int, t0: float, cutoff: float
    ) -> Tuple[float, int]:
        """:meth:`_replay_span` body; also returns the call index reached
        (``n``, or the cutoff bail-out position) for work accounting."""
        self._check_covered(prep)
        calls = self._calls_fid
        n = len(calls)
        exec_rows = self._exec_rows
        gev_fins = prep.gev_fins
        gev_fids = prep.gev_fids
        gev_levels = prep.gev_levels
        num_events = len(gev_fins)
        first_fin = prep.first_fin
        first_pos = self._first_pos
        num_firsts = len(first_pos)
        bests = [-1] * self._num_fids
        cur_exec = [0.0] * self._num_fids
        exec_of = cur_exec.__getitem__
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
                t = start + cur_exec[fid]
                i += 1
                fb += 1
                if t > cutoff:
                    return _INF, i
                continue
            b = first_pos[fb] if fb < num_firsts else n
            if k >= num_events:
                # No pending compile events: the whole stretch to the
                # next boundary is one sequential sum, at C speed; the
                # clock is monotone, so checking the cutoff once at the
                # stretch end is equivalent.
                t = _left_sum(map(exec_of, calls[i:b]), t)
                i = b
                if t > cutoff:
                    return _INF, i
                continue
            step = 128
            while i < b:
                j = b if b - i <= step else i + step
                seg = calls[i:j]
                end = _left_sum(map(exec_of, seg), t)
                if gev_fins[k] <= end:
                    # The event lands in this chunk: rebuild the prefix
                    # sums (same additions) to locate the crossing call.
                    arr = list(accumulate(map(exec_of, seg), initial=t))
                    p = bisect_left(arr, gev_fins[k])
                    t = arr[p]
                    i += p
                    break
                t = end
                i = j
                if t > cutoff:
                    return _INF, i
                step <<= 1
            if t > cutoff:
                return _INF, i
        return t, i

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
        """
        if self.metrics is not None:
            self.metrics.counter("fastsim.evaluations").inc()
        prep = self._prepare(
            schedule, release_times, task_compile_times, task_installs
        )
        if validate:
            validate_for_simulation(
                self._instance, Schedule(prep.tasks), self._preinstalled
            )
        arrays = self._replay(prep, 0, 0.0, 0.0, 0.0)
        if tracer is None:
            return self._assemble(prep, arrays, record_timeline)
        from repro.observability.instrument import trace_makespan_result

        result = self._assemble(prep, arrays, True)
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
        """
        prep = self._prepare(schedule)
        self._check_covered(prep)
        calls = self._calls_fid
        n = len(calls)
        exec_rows = self._exec_rows
        events = prep.events
        all_done = prep.all_done
        idx = [0] * self._num_fids
        bests = [-1] * self._num_fids
        first_start: List[Optional[float]] = [None] * self._num_fids
        before_n = [0] * self._num_fids
        after_n = [0] * self._num_fids
        count_before = before_time is not None
        count_after = after_time is not None
        t = 0.0
        i = 0
        while i < n:
            if t >= all_done:
                final_exec = prep.final_exec
                for fid in calls[i:]:
                    if first_start[fid] is None:
                        first_start[fid] = t
                    if count_before and t < before_time:
                        before_n[fid] += 1
                    if count_after and t >= after_time:
                        after_n[fid] += 1
                    t += final_exec[fid]
                break
            fid = calls[i]
            ev = events[fid]
            first_ready = ev[0][0]
            start = t if t >= first_ready else first_ready
            j = idx[fid]
            best = bests[fid]
            m = len(ev)
            while j < m and ev[j][0] <= start:
                level = ev[j][1]
                if level > best:
                    best = level
                j += 1
            idx[fid] = j
            bests[fid] = best
            if first_start[fid] is None:
                first_start[fid] = start
            if count_before and start < before_time:
                before_n[fid] += 1
            if count_after and start >= after_time:
                after_n[fid] += 1
            t = start + exec_rows[fid][best]
            i += 1
        fnames = self._fnames
        firsts = {
            fnames[fid]: s
            for fid, s in enumerate(first_start)
            if s is not None
        }
        before = {
            fnames[fid]: c for fid, c in enumerate(before_n) if c
        }
        after = {fnames[fid]: c for fid, c in enumerate(after_n) if c}
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
            self.metrics.counter("fastsim.binds").inc()
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
            self.metrics.counter("fastsim.proposals").inc()
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
            self.metrics.counter("fastsim.commits").inc()
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
