"""The telemetry plane: one object bundling metrics, SLOs, and flight data.

``ServiceTelemetry`` is what the CLI attaches to a
:class:`~repro.service.state.DecisionEngine` and its transports when
telemetry is enabled.  It owns one registry of tagged wall-clock series,
which :class:`ServiceMetrics` and the SLO tracker share: the engine's
own deterministic registry keeps the totals, the plane keeps the
per-tenant and per-shard breakdowns.  The two stay strictly separate,
so attaching or detaching the plane never changes an engine counter, a
decision, or a journal byte.

Every ``note_*`` hook is a plain synchronous call that tolerates being
invoked from either the asyncio server or the inproc replay loop, and
the whole object is inert until something calls it: constructing a
plane costs a few small allocations and no threads, files, or sockets.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

from .flight import FlightRecorder
from .service_metrics import ServiceMetrics
from .slo import SloTracker

__all__ = ["ServiceTelemetry"]

_ERROR_LOG_SIZE = 64


class ServiceTelemetry:
    """Wall-clock observability plane for one decision engine + transports."""

    def __init__(
        self,
        shards: int = 8,
        flight_capacity: int = 256,
        flight_dir: Optional[str] = None,
        slo_window_s: float = 60.0,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self.metrics = ServiceMetrics()
        self.slo = SloTracker(
            window_s=slo_window_s, wall=wall, registry=self.metrics.registry
        )
        self.flight = FlightRecorder(
            shards=shards, capacity=flight_capacity, wall=wall
        )
        self.flight_dir = flight_dir
        self.wall = wall
        self.started_wall = wall()
        self.draining = False
        self.errors: Deque[Dict[str, object]] = deque(maxlen=_ERROR_LOG_SIZE)

    # -- engine hooks (called from DecisionEngine when attached) ---------
    def note_decision(
        self,
        event: Dict[str, object],
        record: Dict[str, object],
        shard: int,
        tally: Optional[Dict[str, int]],
    ) -> None:
        """One decision: tagged counters, chain depth, and flight entry."""

        tenant = record["tenant"]
        self.metrics.count("service.decisions.by_tenant", shard=shard, tenant=tenant)
        if record["action"] == "compile":
            self.metrics.count("service.promotions", level=record["level"])
        self.metrics.record("service.fault_chain_depth", record["attempts"])
        # Held by reference: nothing changes a request or its decision
        # record once decided, and the recorder copies the entry it stamps.
        self.flight.record(
            shard,
            {
                "corr": record.get("corr"),
                "request": event,
                "decision": record,
                "faults": tally or {},
            },
        )

    def note_cache(self, tenant: str, shard: int, hit: bool) -> None:
        name = (
            "service.cache.hits.by_tenant" if hit else "service.cache.misses.by_tenant"
        )
        self.metrics.count(name, shard=shard, tenant=tenant)

    # -- transport hooks -------------------------------------------------
    def note_latency(self, tenant: str, latency_ms: float) -> None:
        self.slo.observe_decision(tenant, latency_ms)

    def note_rejection(self, tenant: str) -> None:
        self.slo.observe_rejection(tenant)

    def note_queue_depth(self, depth: int) -> None:
        # Batch sizes and per-request latency already land in the
        # engine's deterministic registry (``service.batch_size``,
        # ``service.latency_ms``) and are rendered alongside on
        # ``/metricsz``; the plane only adds what that registry cannot
        # carry, like this live gauge.
        self.metrics.gauge("service.queue_depth", depth)

    def note_error(self, exc: BaseException, where: str) -> Dict[str, object]:
        """Count and retain a structured error record; return it."""

        record = self.metrics.count_error(exc, where)
        record["wall_ts"] = self.wall()
        self.errors.append(record)
        return record

    # -- views -----------------------------------------------------------
    def uptime_s(self) -> float:
        return max(0.0, self.wall() - self.started_wall)

    def snapshot(self) -> Dict[str, object]:
        """Plain-data snapshot of the plane's registry."""

        return self.metrics.registry.snapshot()

    def dump_flight(self, reason: str) -> Optional[str]:
        """Dump the flight rings if a ``flight_dir`` is configured."""

        if self.flight_dir is None:
            return None
        return self.flight.dump(self.flight_dir, reason)
