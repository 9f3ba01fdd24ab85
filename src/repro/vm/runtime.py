"""Event-driven co-simulation of an adaptive runtime system.

Real runtime systems do not plan a compilation schedule up front: they
*react*.  Methods are enqueued for baseline compilation when first
encountered, a sampler watches the running code, and recompilation
requests join a FIFO queue served by the compiler thread(s)
(Section 2).  The compilation order — and hence the make-span — emerges
from those reactions.

:class:`RuntimeSimulator` replays a call sequence through such a
reactive system.  A :class:`RuntimeScheme` decides *what* to enqueue
and *when* (Jikes RVM's sampling scheme and V8's count-based scheme are
provided); the simulator handles timing: queue waits, compiler-thread
occupancy, execution bubbles, and which compiled version each call
runs.  Enqueue times are monotone (they follow execution), so FIFO
dispatch can be resolved greedily with no global event queue.

The replay is event-driven over the instance's interned call ids and
its shared cost tables (:func:`repro.core.vecsim.instance_arrays`), and
keeps the vector engine's exactness rules, so every number is bitwise
what a call-at-a-time loop computes:

* between events the clock is a ``numpy.cumsum`` seeded with the
  running clock (a sequential left-to-right sum);
* every install a request records is applied once the clock crosses its
  finish, and ``searchsorted(side="left")`` ends a chunk of calls at the
  first call starting at or after the earliest pending install;
* only a function's first call (its blocking compile, the only place a
  bubble can occur) and a call that triggers a count-based promotion
  (:meth:`RuntimeScheme.promotions`) are replayed one at a time.

Sampler ticks never cut the timeline.  One ``searchsorted`` per chunk
finds the call each tick lands on, and the ticks reach the scheme in
order; a tick whose request installs inside the chunk shrinks the chunk
to the calls that start before that install.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.model import OCSPInstance
from ..core.schedule import CompileTask, Schedule
from ..core.vecsim import instance_arrays

__all__ = [
    "RuntimeScheme",
    "RuntimeRunResult",
    "RuntimeSimulator",
    "default_sample_period",
]

# Calls in the first chunk after an event; a chunk that commits whole
# doubles the next one, up to the cap (which bounds the scratch arrays).
_CHUNK = 1024
_MAX_CHUNK = 1 << 16


def default_sample_period(instance: OCSPInstance, ticks: int = 1000) -> float:
    """A sampling period giving roughly ``ticks`` samples per run.

    Jikes RVM samples on a timer interrupt; in our abstract time units we
    size the period so a run sees on the order of ``ticks`` samples of
    level-0 execution.
    """
    arrays = instance_arrays(instance)
    ids = arrays.trace.ids
    if not len(ids):
        return 1.0
    # ``cumsum`` adds left to right; builtin ``sum`` compensates float
    # rounding since Python 3.12 and would move the period.
    total_base_exec = float(np.cumsum(arrays.exec_tab[:, 0].take(ids))[-1])
    if total_base_exec <= 0:
        return 1.0
    return total_base_exec / ticks


def first_tick_after(t: float, period: float) -> int:
    """The first sampler tick strictly after ``t``: the least ``k`` with
    ``k * period > t``.

    The nudge loops absorb float rounding of the division, so
    ``first_tick_after(t, period) - 1`` is the last tick at or before
    ``t`` under the same comparisons.
    """
    k = int(t / period) + 1
    while (k - 1) * period > t:
        k -= 1
    while k * period <= t:
        k += 1
    return k


@dataclass(frozen=True)
class RuntimeRunResult:
    """Outcome of a reactive-runtime replay.

    Attributes:
        schedule: *installed* compilation tasks in the order they were
            enqueued (equals dequeue order under FIFO dispatch).  Under
            fault injection, failed attempts occupy compiler threads
            but appear here only through their successful retry (at the
            level that actually installed).
        enqueue_times: when each task's originating request entered the
            queue.
        makespan: end of the last invocation.
        total_bubble_time: execution-thread waiting time.
        total_exec_time: sum of invocation run times.
        calls_at_level: histogram of the level each invocation ran at.
        samples_taken: total sampler ticks that observed a function
            (a duplicated tick counts twice, a dropped tick not at all).
        fault_summary: the fault injector's tally
            (:meth:`repro.faults.FaultInjector.summary`) when the run
            was fault-injected, else ``None``.
    """

    schedule: Schedule
    enqueue_times: Tuple[float, ...]
    makespan: float
    total_bubble_time: float
    total_exec_time: float
    calls_at_level: Dict[int, int]
    samples_taken: int
    fault_summary: Optional[Dict[str, object]] = None


class RuntimeScheme(ABC):
    """Policy half of the co-simulation: decides compile requests."""

    @abstractmethod
    def initial_level(self, fname: str) -> int:
        """Level of the blocking first-encounter compilation."""

    def promotions(
        self, fname: str, num_levels: int
    ) -> Sequence[Tuple[int, int]]:
        """Count-based requests for ``fname``: ``(invocation, level)``
        pairs, each enqueueing ``level`` when the ``invocation``-th call
        (1-based) starts, in the order given.

        ``num_levels`` is the function's level count; declare only
        levels below it.  The answer must depend on the arguments alone:
        the replay reads it once per function and run.  The default
        declares none.
        """
        return ()

    def on_call_start(
        self,
        runtime: "RuntimeSimulator",
        fname: str,
        invocation: int,
        time: float,
    ) -> None:
        """Per-call adapter over :meth:`promotions`, for simulators that
        replay one call at a time
        (:class:`~repro.vm.priorityqueue.PriorityRuntimeSimulator`).

        Not a hook to override: :class:`RuntimeSimulator` reads
        :meth:`promotions` directly and rejects a scheme that overrides
        this method.
        """
        num_levels = runtime.instance.profiles[fname].num_levels
        for at, level in self.promotions(fname, num_levels):
            if at == invocation:
                runtime.enqueue(fname, level, time)

    def on_sample(
        self, runtime: "RuntimeSimulator", fname: str, k: int, time: float
    ) -> None:
        """Hook at each sampler tick that observed ``fname`` running;
        ``k`` is the total samples of ``fname`` so far."""


class RuntimeSimulator:
    """Timing half of the co-simulation.

    Args:
        instance: the workload (true times are used for all timing).
        scheme: the reactive policy.  Count-based requests come from
            :meth:`RuntimeScheme.promotions`; a scheme that overrides
            :meth:`RuntimeScheme.on_call_start` is rejected.
        compile_threads: number of compiler threads serving the queue.
        sample_period: sampler tick interval; ``None`` derives one via
            :func:`default_sample_period`.  Ticks that land while the
            execution thread is stalled observe nothing.
        faults: optional :class:`repro.faults.FaultInjector` (or a
            spec).  Compile requests run its degradation chain
            (:meth:`~repro.faults.FaultInjector.degrade`), with the
            spec's backoff before each retry; sampler ticks may be
            dropped or duplicated.  A null spec means no injector
            (:func:`repro.faults.active_injector`), keeping
            zero-fault-rate runs bitwise equal to fault-free ones.

    Raises:
        TypeError: if ``scheme`` overrides ``on_call_start``.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        scheme: RuntimeScheme,
        compile_threads: int = 1,
        sample_period: Optional[float] = None,
        tracer=None,
        faults=None,
    ):
        if compile_threads < 1:
            raise ValueError("compile_threads must be >= 1")
        hook = getattr(type(scheme), "on_call_start", RuntimeScheme.on_call_start)
        if hook is not RuntimeScheme.on_call_start:
            raise TypeError(
                f"{type(scheme).__name__} overrides on_call_start; "
                "RuntimeSimulator takes count-based requests from "
                "RuntimeScheme.promotions() instead"
            )
        self.instance = instance
        self.scheme = scheme
        self.compile_threads = compile_threads
        self.sample_period = (
            sample_period
            if sample_period is not None
            else default_sample_period(instance)
        )
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        from ..faults.injector import active_injector

        self.tracer = tracer
        self.faults = active_injector(faults)
        # Mutable co-simulation state (reset by run()).  The heap holds
        # (free_time, thread_id) so traced compile spans land on the
        # right per-thread track; the multiset of free times — and hence
        # every start/finish — is the same as with bare floats.
        self._thread_free: List[Tuple[float, int]] = []
        self._tasks: List[CompileTask] = []
        self._enqueue_times: List[float] = []
        self._finish_events: Dict[str, List[Tuple[float, int]]] = {}
        self._requested_level: Dict[str, int] = {}
        # Recorded installs the replay has not applied yet, as a heap of
        # (finish, level, function).
        self._pending: List[Tuple[float, int, str]] = []

    # ------------------------------------------------------------------
    # API for schemes
    # ------------------------------------------------------------------
    def enqueue(self, fname: str, level: int, time: float) -> None:
        """Submit a compilation request at ``time`` (FIFO dispatch).

        Ignores requests that do not raise the function's highest
        requested level (a pending or finished request already covers
        them), as Jikes RVM's queue does.  Under fault
        injection the request runs the injector's degradation chain
        (:meth:`repro.faults.FaultInjector.degrade`): each attempt
        occupies a compiler thread, failed ones included, and a retry
        is released the spec's doubling ``backoff`` after the failure.
        """
        prof = self.instance.profiles[fname]
        if not 0 <= level < prof.num_levels:
            raise ValueError(f"level {level} out of range for {fname!r}")
        prev = self._requested_level.get(fname, -1)
        if level <= prev:
            return
        self._requested_level[fname] = level
        faults = self.faults
        if faults is None:
            attempts = [(level, 1, prof.compile_times[level], False)]
            below = False
        else:
            events = self._finish_events.get(fname)
            installed = max(lvl for _, lvl in events) if events else -1
            attempts, below = faults.degrade(
                fname, prof.compile_times, level, installed
            )
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                f"enqueue {fname} L{level}",
                "queue",
                time,
                category="enqueue",
                args={"function": fname, "level": level},
            )
        release = time
        for lvl, attempt, c, failed in attempts:
            start_free, tid = heapq.heappop(self._thread_free)
            start = start_free if start_free > release else release
            finish = start + c
            heapq.heappush(self._thread_free, (finish, tid))
            if tracer is not None:
                args = {
                    "function": fname,
                    "level": lvl,
                    "queue_wait": start - release,
                }
                if faults is not None:
                    args["attempt"] = attempt
                    args["status"] = "failed" if failed else "ok"
                tracer.span(
                    f"compile {fname} L{lvl}",
                    f"compiler-{tid}",
                    start,
                    finish,
                    category="compile",
                    args=args,
                )
            if not failed:
                # The replay applies the install once its clock reaches
                # ``finish``.
                self._tasks.append(CompileTask(fname, lvl))
                self._enqueue_times.append(time)
                self._finish_events.setdefault(fname, []).append((finish, lvl))
                heapq.heappush(self._pending, (finish, lvl, fname))
                return
            if tracer is not None:
                tracer.instant(
                    f"compile-fail {fname} L{lvl}",
                    f"compiler-{tid}",
                    finish,
                    category="fault",
                    args={"function": fname, "level": lvl, "attempt": attempt},
                )
            release = finish
            if faults.spec.backoff > 0.0:
                release += faults.spec.backoff * (2 ** (attempt - 1))
        if below and tracer is not None:
            # Degraded below what is already installed (or pending):
            # the function keeps running at its current tier.
            tracer.instant(
                f"fallback {fname}",
                "queue",
                release,
                category="fault",
                args={"function": fname, "kept_level": installed},
            )

    def requested_level(self, fname: str) -> int:
        """Highest level requested so far for ``fname`` (-1 if none)."""
        return self._requested_level.get(fname, -1)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run(self) -> RuntimeRunResult:
        """Replay the call sequence; returns timings and the emergent
        compilation schedule."""
        self._thread_free = [(0.0, tid) for tid in range(self.compile_threads)]
        heapq.heapify(self._thread_free)
        self._tasks = []
        self._enqueue_times = []
        self._finish_events = {}
        self._requested_level = {}
        pending = self._pending = []

        instance = self.instance
        scheme = self.scheme
        period = self.sample_period
        tracer = self.tracer
        faults = self.faults
        arrays = instance_arrays(instance)
        trace = arrays.trace
        fnames = trace.names
        fid_of = trace.fid_of
        exec_rows = arrays.exec_rows
        calls = trace.ids
        exec_tab = arrays.exec_tab
        n = len(calls)
        # Level each function runs at and its exec time, as of the
        # installs applied so far (-1 before the first).
        level_of = np.full(len(fnames), -1, dtype=np.intp)
        exec_of = np.zeros(len(fnames))

        # The calls replayed one at a time: first calls, and the calls
        # at which a scheme's declared promotions fire.
        first_calls = set(trace.first_pos_list)
        promoted: Dict[int, List[int]] = {}
        for fid in trace.first_fids_list:
            fname = fnames[fid]
            declared = scheme.promotions(fname, len(exec_rows[fid]))
            if not declared:
                continue
            order, bounds = arrays.call_groups()
            lo = int(bounds[fid])
            count = int(bounds[fid + 1]) - lo
            for invocation, level in declared:
                if 1 <= invocation <= count:
                    pos = int(order[lo + invocation - 1])
                    promoted.setdefault(pos, []).append(level)
        singles = sorted(first_calls.union(promoted))
        num_singles = len(singles)

        samples: Dict[str, int] = {}
        samples_taken = 0
        calls_at_level: Dict[int, int] = {}
        # Invocation counts, kept only for the traced call spans.
        invocations = [0] * len(fnames) if tracer is not None else None
        total_bubble = 0.0
        total_exec = 0.0
        t = 0.0
        # Sampler tick ``k`` fires at ``k * period`` (k >= 1); ``tick``
        # is always the first one after the clock.
        tick = 1

        def apply(until: float) -> None:
            """Apply every recorded install finishing by ``until``."""
            while pending and pending[0][0] <= until:
                _finish, level, fname = heapq.heappop(pending)
                fid = fid_of[fname]
                if level > level_of[fid]:
                    level_of[fid] = level
                    exec_of[fid] = exec_tab[fid, level]

        def committed(clock, p: int) -> int:
            """How many of the first ``p`` calls of a chunk (``clock``:
            their seeded cumsum) start before the earliest pending
            install."""
            if pending and pending[0][0] <= clock[p - 1]:
                return int(np.searchsorted(clock, pending[0][0], side="left"))
            return p

        def deliver(fname: str, k: int, t_tick: float) -> None:
            """Sampler tick ``k`` at ``t_tick``, observing ``fname``."""
            nonlocal samples_taken
            if faults is not None and faults.drop_tick(k):
                if tracer is not None:
                    tracer.instant(
                        f"tick-drop {fname}", "sampler", t_tick,
                        category="fault",
                        args={"function": fname, "tick": k},
                    )
                return
            deliveries = (
                2 if faults is not None and faults.duplicate_tick(k) else 1
            )
            for _ in range(deliveries):
                ks = samples.get(fname, 0) + 1
                samples[fname] = ks
                samples_taken += 1
                scheme.on_sample(self, fname, ks, t_tick)
                if tracer is not None:
                    tracer.instant(
                        f"sample {fname}", "sampler", t_tick,
                        category="sample",
                        args={"function": fname, "k": ks},
                    )

        i = 0
        s = 0
        while i < n:
            if s < num_singles and singles[s] == i:
                s += 1
                fid = int(calls[i])
                fname = fnames[fid]
                if i in first_calls:
                    # First encounter: request the baseline compilation now.
                    self.enqueue(fname, scheme.initial_level(fname), t)
                for level in promoted.get(i, ()):
                    self.enqueue(fname, level, t)
                first_ready = self._finish_events[fname][0][0]
                start = t if t >= first_ready else first_ready
                apply(start)
                best = int(level_of[fid])
                exec_time = exec_rows[fid][best]
                finish = start + exec_time
                total_bubble += start - t
                total_exec += exec_time
                calls_at_level[best] = calls_at_level.get(best, 0) + 1
                if tracer is not None:
                    if start > t:
                        tracer.span(
                            "bubble", "execute", t, start,
                            category="bubble",
                            args={"function": fname, "bubble": start - t},
                        )
                        tracer.counter(
                            "bubble_total", "bubbles", start, total_bubble
                        )
                    invocations[fid] += 1
                    tracer.span(
                        fname, "execute", start, finish,
                        category="call",
                        args={"level": best, "invocation": invocations[fid]},
                    )
                # Ticks inside (start, finish] observe fname; ticks
                # inside the bubble observe a stalled thread and are
                # jumped over arithmetically.
                if tick * period <= finish:
                    if tick * period <= start:
                        k = first_tick_after(start, period)
                        if k > tick:
                            tick = k
                    t_tick = tick * period
                    while t_tick <= finish:
                        deliver(fname, tick, t_tick)
                        tick += 1
                        t_tick = tick * period
                t = finish
                i += 1
                continue

            # A chunk of calls with no first call or promotion among
            # them: every one starts at the previous one's finish.
            b = singles[s] if s < num_singles else n
            apply(t)
            step = _CHUNK
            while i < b:
                j = b if b - i <= step else i + step
                seg = calls[i:j]
                ex = exec_of.take(seg)
                m = j - i
                # clock[c] / clock[c + 1]: start / finish of call i + c.
                clock = np.empty(m + 1)
                clock[0] = t
                clock[1:] = ex
                np.cumsum(clock, out=clock)
                p = committed(clock, m)
                end = float(clock[p])
                if tick * period <= end:
                    # The ticks up to the last one at or before ``end``.
                    owners = np.searchsorted(
                        clock[1 : p + 1],
                        np.arange(tick, first_tick_after(end, period)) * period,
                        side="left",
                    ).tolist()
                    for owner in owners:
                        t_tick = tick * period
                        if t_tick > end:
                            break
                        deliver(fnames[seg[owner]], tick, t_tick)
                        tick += 1
                        # A request that installs inside the chunk keeps
                        # only the calls that start before it.
                        p = committed(clock, p)
                        end = float(clock[p])
                levels = level_of.take(seg[:p])
                acc = np.empty(p + 1)
                acc[0] = total_exec
                acc[1:] = ex[:p]
                np.cumsum(acc, out=acc)
                total_exec = float(acc[p])
                hist = np.bincount(levels).tolist()
                # A level new to the histogram enters it in the order of
                # its first call, as a call-at-a-time count would add it.
                fresh = [
                    lvl for lvl, c in enumerate(hist)
                    if c and lvl not in calls_at_level
                ]
                if len(fresh) > 1:
                    fresh.sort(key=lambda lvl: int(np.argmax(levels == lvl)))
                for lvl in fresh:
                    calls_at_level[lvl] = 0
                for lvl, c in enumerate(hist):
                    if c:
                        calls_at_level[lvl] += c
                if tracer is not None:
                    times = clock[: p + 1].tolist()
                    for c, (fid, level) in enumerate(
                        zip(seg[:p].tolist(), levels.tolist())
                    ):
                        invocations[fid] += 1
                        tracer.span(
                            fnames[fid], "execute", times[c], times[c + 1],
                            category="call",
                            args={
                                "level": level,
                                "invocation": invocations[fid],
                            },
                        )
                t = end
                i += p
                if pending and pending[0][0] <= t:
                    break  # apply the install, then restart small
                if step < _MAX_CHUNK:
                    step <<= 1

        return RuntimeRunResult(
            schedule=Schedule(tuple(self._tasks)),
            enqueue_times=tuple(self._enqueue_times),
            makespan=t,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
            samples_taken=samples_taken,
            fault_summary=(
                self.faults.summary() if self.faults is not None else None
            ),
        )
