"""In-memory spans for the traced run, and the wrappers that record them.

A traced run wraps the public entry points of each ``repro`` layer *where
their callers look them up* (``iar`` inside ``repro.analysis.experiments``
and ``repro.faults.degrade``, ``decode`` inside ``repro.service.server``,
...), so the program's own code is unchanged and the untraced runs pay
nothing.  Every wrapped call becomes one span: name, start, end (both
``time.perf_counter`` seconds), the index of the enclosing span (-1 at
top level) and the unit or request id current when it opened.  Spans
stay in compact arrays until the process ends, then are written once.

Wrapped functions are synchronous and never yield to an event loop
mid-call, so spans nest strictly, even inside the asyncio server, and a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Callable, Dict, List, Optional

# Span name -> the repro layer it belongs to (for the Amdahl table).
LAYER_OF_PREFIX = (
    ("workloads.", "workloads"),
    ("analysis.", "analysis"),
    ("core.", "core"),
    ("vm.", "vm"),
    ("faults.", "faults"),
    ("service.", "service"),
    ("telemetry.", "telemetry"),
)
LAYERS = tuple(layer for _, layer in LAYER_OF_PREFIX)


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class SpanRecorder:
    """Spans plus the exact work counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit: List[object] = []
        self.counts: Dict[str, int] = {}
        self.current_unit: object = ""
        self._stack: List[int] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        unit_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``after(recorder, args, result, exc)`` runs once the span has
        closed (to take counts from arguments or results); ``unit_of(args)``
        names the unit that spans opened inside this call belong to.
        """
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack
            index = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            outer_unit = rec.current_unit
            if unit_of is not None:
                rec.current_unit = unit_of(args)
            rec.unit.append(rec.current_unit)
            rec.start.append(0.0)
            rec.end.append(0.0)
            stack.append(index)
            result = exc = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                rec.end[index] = time.perf_counter()
                rec.start[index] = started
                stack.pop()
                rec.current_unit = outer_unit
                if after is not None:
                    after(rec, args, result, exc)

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` (a module or class) by its traced form."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    # -- reading the spans back ------------------------------------------
    def summary(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> Dict[str, object]:
        """Per-name busy time, self time and call count of the spans
        that opened in ``[since, until)``, plus the recorded counts."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        by_name: Dict[str, Dict[str, float]] = {}
        top_level_s = 0.0
        for i in range(n):
            if not since <= self.start[i] < until:
                continue
            duration = self.end[i] - self.start[i]
            entry = by_name.setdefault(
                self.names[self.name[i]],
                {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0},
            )
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child[i]
            entry["max_s"] = max(entry["max_s"], duration)
            if self.parent[i] < 0:
                top_level_s += duration
        return {
            "spans": dict(sorted(by_name.items())),
            "counts": dict(sorted(self.counts.items())),
            "top_level_s": top_level_s,
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name[i]],
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            self.unit[i],
                        ]
                    )
                )
                fh.write("\n")


def _count_replayed(rec: SpanRecorder, args, result, exc) -> None:
    rec.count("core.makespan.calls_replayed", args[0].num_calls)


def _count_nodes(rec: SpanRecorder, args, result, exc) -> None:
    # A* past its frontier budget raises with the count it reached.
    source = exc if exc is not None else result
    rec.count("core.astar.nodes_expanded", getattr(source, "nodes_expanded", 0))


def _count_plan(rec: SpanRecorder, args, result, exc) -> None:
    if result is not None:
        rec.count("faults.plan.tasks", len(result.tasks))


def _count_draw(rec: SpanRecorder, args, result, exc) -> None:
    rec.count("faults.injector.draws")


def _count_lookup(rec: SpanRecorder, args, result, exc) -> None:
    rec.count("service.cache.lookups")
    if result is not None:
        rec.count("service.cache.hits")


def _install_injector(rec: SpanRecorder) -> None:
    from repro.faults.injector import FaultInjector

    for method in ("compile_fails", "compile_time_factor", "replay_tally"):
        rec.patch(FaultInjector, method, "faults.injector", after=_count_draw)


def install_batch_wrappers(rec: SpanRecorder) -> None:
    """Wrap what ``repro study`` and ``repro faults sweep`` call."""
    from repro.analysis import experiments as ex
    from repro.core import astar as core_astar
    from repro.core import engine as core_engine
    from repro.core.model import OCSPInstance
    from repro.faults import degrade as dg
    from repro.workloads import dacapo

    for owner in (dacapo, ex):
        rec.patch(owner, "generate", "workloads.generate")
    rec.patch(ex, "run_parallel", "analysis.runner")
    for driver, fn in list(ex.PARALLEL_DRIVERS.items()):
        ex.PARALLEL_DRIVERS[driver] = rec.wrap(
            "analysis.unit",
            fn,
            unit_of=lambda args, d=driver: f"{d}/{next(iter(args[0]))}",
        )
    rec.patch(ex, "table1", "analysis.table1")
    rec.patch(ex, "astar_scaling", "analysis.astar_table")
    rec.patch(ex, "project_to_model_levels", "analysis.project")
    for owner in (ex, dg):
        rec.patch(owner, "iar", "core.iar")
        rec.patch(owner, "run_jikes", "vm.jikes")
        rec.patch(owner, "run_v8", "vm.v8")
    for owner in (ex, dg, core_astar):
        rec.patch(owner, "simulate", "core.makespan.simulate", after=_count_replayed)
        rec.patch(owner, "lower_bound", "core.bounds.lower_bound")
    rec.patch(core_engine, "make_simulator", "core.engine.make_simulator")
    rec.patch(OCSPInstance, "restricted_to_levels", "core.model.restrict")
    rec.patch(ex, "astar_schedule", "core.astar", after=_count_nodes)
    rec.patch(dg, "apply_to_schedule", "faults.apply_to_schedule", after=_count_plan)
    _install_injector(rec)


def install_service_wrappers(rec: SpanRecorder) -> None:
    """Wrap what ``repro serve run`` calls per request."""
    from repro.service import server as srv
    from repro.service import state as st
    from repro.telemetry.plane import ServiceTelemetry
    from repro.telemetry.service_metrics import ServiceMetrics

    rec.patch(srv, "decode", "service.codec.decode")
    rec.patch(srv, "encode", "service.codec.encode")
    rec.patch(
        st.DecisionEngine,
        "observe",
        "service.engine",
        unit_of=lambda args: args[1].get("seq", ""),
    )
    rec.patch(st, "promotion_level", "service.engine.promotion")
    rec.patch(st.DecisionCache, "get", "service.cache.get", after=_count_lookup)
    rec.patch(st, "canonical_encode", "service.cache.key")
    for method in ("begin_span", "mark_admitted", "mark_decided", "finish_span"):
        rec.patch(ServiceMetrics, method, "telemetry.spans")
    for method in ("note_decision", "note_latency", "note_cache"):
        rec.patch(ServiceTelemetry, method, f"telemetry.{method}")
    _install_injector(rec)
