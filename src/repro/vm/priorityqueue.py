"""Priority-ordered compilation queues (extension).

The paper's runtime model — and Jikes RVM's implementation — serves
compile requests FIFO.  Production JITs (e.g. HotSpot) order their
queues instead: first-compiles before recompiles, hotter methods
first.  This module adds a dispatch-policy dimension to the reactive
co-simulation so the question "how much of the reactive gap is *queue
policy* rather than *late discovery*?" can be measured.

Unlike :class:`~repro.vm.runtime.RuntimeSimulator` (which can resolve
FIFO dispatch greedily at enqueue time), priority dispatch must be
simulated event by event: a compiler thread that frees at time ``T``
picks the best *already-arrived* request, and may stay idle until the
next arrival.  There is no preemption.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..core.model import OCSPInstance
from ..core.schedule import CompileTask, Schedule
from .runtime import (
    RuntimeRunResult,
    RuntimeScheme,
    default_sample_period,
    first_tick_after,
)

__all__ = ["PriorityRuntimeSimulator", "PRIORITY_POLICIES", "run_with_policy"]


def _fifo_key(level: int, observed_calls: int, seq: int) -> Tuple:
    return (seq,)


def _first_compiles_key(level: int, observed_calls: int, seq: int) -> Tuple:
    # Blocking first-compiles jump the queue; recompiles stay FIFO.
    return (0 if level == 0 else 1, seq)


def _hotness_key(level: int, observed_calls: int, seq: int) -> Tuple:
    # First-compiles first, then hottest methods, then FIFO.
    return (0 if level == 0 else 1, -observed_calls, seq)


PRIORITY_POLICIES: Dict[str, Callable[[int, int, int], Tuple]] = {
    "fifo": _fifo_key,
    "first_compiles": _first_compiles_key,
    "hotness": _hotness_key,
}


class PriorityRuntimeSimulator:
    """Reactive co-simulation with a priority-ordered compile queue.

    Args:
        instance: the workload.
        scheme: the reactive policy (same hooks as the FIFO simulator).
        policy: one of :data:`PRIORITY_POLICIES` (lower keys dispatch
            first).
        compile_threads: compiler threads.
        sample_period: sampler interval (``None`` → derived).
        tracer: optional :class:`repro.observability.Tracer` (or scope);
            records enqueues, compile spans, calls, bubbles, samples.
        metrics: optional :class:`repro.observability.MetricsRegistry`;
            records ``priorityqueue.enqueued`` / ``deduped`` /
            ``dispatched`` per event, ``priorityqueue.reheapifies``
            for each dispatch that had to fall back to a linear scan of
            the ready pool (multi-thread only; see
            :meth:`_dispatch_one`), and bulk ``priorityqueue.calls`` /
            ``samples`` at the end of :meth:`run`.  ``None`` (the
            default) costs one branch per event and never changes the
            numbers.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        scheme: RuntimeScheme,
        policy: str = "hotness",
        compile_threads: int = 1,
        sample_period: Optional[float] = None,
        tracer=None,
        metrics=None,
    ):
        if policy not in PRIORITY_POLICIES:
            raise ValueError(
                f"policy must be one of {sorted(PRIORITY_POLICIES)}, got {policy!r}"
            )
        if compile_threads < 1:
            raise ValueError("compile_threads must be >= 1")
        self.instance = instance
        self.scheme = scheme
        self.policy = PRIORITY_POLICIES[policy]
        self.compile_threads = compile_threads
        self.sample_period = (
            sample_period
            if sample_period is not None
            else default_sample_period(instance)
        )
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        self.tracer = tracer
        self.metrics = metrics
        self._reset()

    def _reset(self) -> None:
        # (free_time, thread_id) so traced compile spans know their
        # track; timing is unchanged vs a bare float heap.
        self._threads: List[Tuple[float, int]] = [
            (0.0, tid) for tid in range(self.compile_threads)
        ]
        heapq.heapify(self._threads)
        # Pending requests live in two heaps so a dispatch is O(log n)
        # instead of the old O(n) scan + heapify of one flat list:
        # ``_unarrived`` orders by arrival time and feeds ``_ready``
        # (ordered by priority key) as the dispatch clock passes each
        # arrival.  ``_ready_arrivals`` tracks the ready pool's earliest
        # arrival lazily — entries whose seq is in ``_done`` are stale
        # (already dispatched) and skipped at the root.
        self._unarrived: List[Tuple[float, int, Tuple, str, int]] = []
        self._ready: List[Tuple[Tuple, int, float, str, int]] = []
        self._ready_arrivals: List[Tuple[float, int]] = []
        self._done: set = set()
        self._seq = itertools.count()
        self._requested_level: Dict[str, int] = {}
        self._finish_events: Dict[str, List[Tuple[float, int]]] = {}
        self._dispatched: List[CompileTask] = []
        self._enqueue_times: List[float] = []
        self._observed: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # API for schemes (mirrors RuntimeSimulator)
    # ------------------------------------------------------------------
    def enqueue(self, fname: str, level: int, time: float) -> None:
        """Submit a compile request at ``time``."""
        prof = self.instance.profiles[fname]
        if not 0 <= level < prof.num_levels:
            raise ValueError(f"level {level} out of range for {fname!r}")
        prev = self._requested_level.get(fname, -1)
        if level <= prev:
            if self.metrics is not None:
                self.metrics.counter("priorityqueue.deduped").inc()
            return
        self._requested_level[fname] = level
        if self.metrics is not None:
            self.metrics.counter("priorityqueue.enqueued").inc()
        key = self.policy(level, self._observed.get(fname, 0), next(self._seq))
        heapq.heappush(self._unarrived, (time, next(self._seq), key, fname, level))
        self._enqueue_times.append(time)
        if self.tracer is not None:
            self.tracer.instant(
                f"enqueue {fname} L{level}",
                "queue",
                time,
                category="enqueue",
                args={"function": fname, "level": level},
            )

    def requested_level(self, fname: str) -> int:
        return self._requested_level.get(fname, -1)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _dispatch_one(self, horizon: Optional[float]) -> bool:
        """Dispatch a single request if one can start by ``horizon``.

        The dispatch moment is when the earliest thread frees (or the
        earliest pending arrival, if later); the request chosen is the
        highest-priority one arrived by that moment.  No new arrivals
        can occur meanwhile — the execution thread is the only producer
        and it is stalled or between calls while this runs.

        Returns:
            True if a request was dispatched.
        """
        if not self._unarrived and not self._ready:
            return False
        thread_free = self._threads[0][0]
        ready_arrivals = self._ready_arrivals
        done = self._done
        while ready_arrivals and ready_arrivals[0][1] in done:
            heapq.heappop(ready_arrivals)
        earliest_arrival = (
            ready_arrivals[0][0] if ready_arrivals else self._unarrived[0][0]
        )
        if self._unarrived and self._unarrived[0][0] < earliest_arrival:
            earliest_arrival = self._unarrived[0][0]
        dispatch_at = max(thread_free, earliest_arrival)
        if horizon is not None and dispatch_at > horizon:
            return False
        while self._unarrived and self._unarrived[0][0] <= dispatch_at:
            time, seq, key, f, lvl = heapq.heappop(self._unarrived)
            heapq.heappush(self._ready, (key, seq, time, f, lvl))
            heapq.heappush(ready_arrivals, (time, seq))
        # Highest-priority request that has arrived by dispatch_at.  The
        # ready root almost always qualifies (always, with one compiler
        # thread: the dispatch clock only moves forward); with several
        # threads a later dispatch moment can fall before the root's
        # arrival, and only then is the old linear scan + re-heapify
        # needed — ``priorityqueue.reheapifies`` counts exactly those.
        if self._ready[0][2] <= dispatch_at:
            chosen = heapq.heappop(self._ready)
        else:
            arrived = [item for item in self._ready if item[2] <= dispatch_at]
            chosen = min(arrived)
            self._ready.remove(chosen)
            heapq.heapify(self._ready)
            if self.metrics is not None:
                self.metrics.counter("priorityqueue.reheapifies").inc()
        done.add(chosen[1])
        if self.metrics is not None:
            self.metrics.counter("priorityqueue.dispatched").inc()
        _key, _seq, arrival, fname, level = chosen
        _free, tid = heapq.heappop(self._threads)
        c = self.instance.profiles[fname].compile_times[level]
        finish = dispatch_at + c
        heapq.heappush(self._threads, (finish, tid))
        self._dispatched.append(CompileTask(fname, level))
        self._finish_events.setdefault(fname, []).append((finish, level))
        if self.tracer is not None:
            self.tracer.span(
                f"compile {fname} L{level}",
                f"compiler-{tid}",
                dispatch_at,
                finish,
                category="compile",
                args={
                    "function": fname,
                    "level": level,
                    "queue_wait": dispatch_at - arrival,
                },
            )
        return True

    def _dispatch_until(self, horizon: Optional[float]) -> None:
        """Dispatch every request whose moment arrives by ``horizon``."""
        while self._dispatch_one(horizon):
            pass

    def _first_ready(self, fname: str) -> float:
        """Finish time of ``fname``'s earliest compile, dispatching only
        as far as needed (the caller guarantees a request exists)."""
        while fname not in self._finish_events:
            if not self._dispatch_one(None):  # pragma: no cover
                raise RuntimeError(f"no compile request for {fname!r}")
        return min(f for f, _lvl in self._finish_events[fname])

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run(self) -> RuntimeRunResult:
        """Replay the call sequence under the priority queue."""
        self._reset()
        instance = self.instance
        scheme = self.scheme
        period = self.sample_period

        tracer = self.tracer
        invocations: Dict[str, int] = {}
        samples: Dict[str, int] = {}
        samples_taken = 0
        calls_at_level: Dict[int, int] = {}
        total_bubble = 0.0
        total_exec = 0.0
        t = 0.0
        # Index-based sampler ticks; see RuntimeSimulator.run.
        tick = 1

        for fname in instance.calls:
            invocation = invocations.get(fname, 0) + 1
            invocations[fname] = invocation
            self._observed[fname] = invocation
            if invocation == 1:
                self.enqueue(fname, scheme.initial_level(fname), t)
            scheme.on_call_start(self, fname, invocation, t)

            self._dispatch_until(t)
            first_ready = self._first_ready(fname)
            start = t if t >= first_ready else first_ready
            # Dispatch anything whose moment arrives during the bubble.
            self._dispatch_until(start)
            total_bubble += start - t
            best = -1
            for finish_time, level in self._finish_events[fname]:
                if finish_time <= start and level > best:
                    best = level
            exec_time = instance.profiles[fname].exec_times[best]
            finish = start + exec_time
            total_exec += exec_time
            calls_at_level[best] = calls_at_level.get(best, 0) + 1
            if tracer is not None:
                if start > t:
                    tracer.span(
                        "bubble", "execute", t, start,
                        category="bubble",
                        args={"function": fname, "bubble": start - t},
                    )
                    tracer.counter("bubble_total", "bubbles", start, total_bubble)
                tracer.span(
                    fname, "execute", start, finish,
                    category="call",
                    args={"level": best, "invocation": invocation},
                )

            if tick * period <= finish:
                if tick * period <= start:
                    k = first_tick_after(start, period)
                    if k > tick:
                        tick = k
                t_tick = tick * period
                while t_tick <= finish:
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
                    tick += 1
                    t_tick = tick * period
            t = finish

        if self.metrics is not None:
            self.metrics.counter("priorityqueue.calls").inc(
                len(instance.calls)
            )
            self.metrics.counter("priorityqueue.samples").inc(samples_taken)
        return RuntimeRunResult(
            schedule=Schedule(tuple(self._dispatched)),
            enqueue_times=tuple(sorted(self._enqueue_times)),
            makespan=t,
            total_bubble_time=total_bubble,
            total_exec_time=total_exec,
            calls_at_level=calls_at_level,
            samples_taken=samples_taken,
        )


def run_with_policy(
    instance: OCSPInstance,
    scheme: RuntimeScheme,
    policy: str = "hotness",
    compile_threads: int = 1,
    sample_period: Optional[float] = None,
    tracer=None,
    metrics=None,
) -> RuntimeRunResult:
    """Convenience wrapper: replay ``instance`` under ``scheme`` with
    the given queue policy."""
    return PriorityRuntimeSimulator(
        instance,
        scheme,
        policy=policy,
        compile_threads=compile_threads,
        sample_period=sample_period,
        tracer=tracer,
        metrics=metrics,
    ).run()
