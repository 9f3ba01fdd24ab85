"""Per-tenant SLO tracking: decide-latency quantiles and rejection rate.

Two measurement paths, deliberately kept apart:

* **Cumulative** — per-tenant :class:`Histogram` instruments (the
  deterministic reservoir) plus rejection counters, living under tagged
  names (``service.tenant.decide_latency_ms{tenant=...}``,
  ``service.rejected.by_tenant{tenant=...}``) in the registry the
  tracker is given: the telemetry plane's one registry when it runs
  inside :class:`~repro.telemetry.ServiceTelemetry`.  A tenant's
  decision count is its histogram's count.  The *mechanism* is
  deterministic — seeded reservoirs, sorted snapshots — which is what
  lets ``/metricsz`` render from a reproducible structure even though
  latency *values* are wall-clock.
* **Sliding window** — bounded deques of ``(wall_ts, latency_ms)``
  trimmed to the last ``window_s`` seconds, answering "what is the p99
  *right now*" for ``/statusz`` and ``repro top``.

The tracker is fed by the transports (server worker, inproc replay),
never by :class:`~repro.service.state.DecisionEngine` — decisions can
not depend on it.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.observability.metrics import Histogram, MetricsRegistry, _percentile

from .service_metrics import metric_key

__all__ = ["SloTracker"]

_WINDOW_SAMPLES = 4096
_REJECTED = "service.rejected.by_tenant"


class SloTracker:
    """Track per-tenant decide latency and rejection rate."""

    def __init__(
        self,
        window_s: float = 60.0,
        wall: Callable[[], float] = time.time,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = float(window_s)
        self.wall = wall
        self.registry = registry if registry is not None else MetricsRegistry()
        self._latency: Dict[str, Histogram] = {}
        self._window: Dict[str, Deque[Tuple[float, float]]] = {}
        self._window_rejects: Dict[str, Deque[float]] = {}

    # -- feeding ---------------------------------------------------------
    def observe_decision(self, tenant: str, latency_ms: float) -> None:
        histogram = self._latency.get(tenant)
        if histogram is None:
            histogram = self.registry.histogram(
                metric_key("service.tenant.decide_latency_ms", tenant=tenant)
            )
            self._latency[tenant] = histogram
            self._window[tenant] = deque(maxlen=_WINDOW_SAMPLES)
        histogram.record(latency_ms)
        self._window[tenant].append((self.wall(), latency_ms))

    def observe_rejection(self, tenant: str) -> None:
        self.registry.counter(metric_key(_REJECTED, tenant=tenant)).inc()
        window = self._window_rejects.get(tenant)
        if window is None:
            window = self._window_rejects[tenant] = deque(maxlen=_WINDOW_SAMPLES)
        window.append(self.wall())

    # -- reading ---------------------------------------------------------
    def tenants(self):
        return sorted(set(self._latency) | set(self._window_rejects))

    def _trimmed(self, tenant: str, now: float):
        cutoff = now - self.window_s
        window = self._window.get(tenant, ())
        while window and window[0][0] < cutoff:
            window.popleft()
        rejects = self._window_rejects.get(tenant, ())
        while rejects and rejects[0] < cutoff:
            rejects.popleft()
        return window, rejects

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant SLO view: cumulative quantiles, counts, rates, and
        the live sliding-window equivalents under ``"window"``."""

        now = self.wall()
        out: Dict[str, Dict[str, object]] = {}
        for tenant in self.tenants():
            histogram = self._latency.get(tenant)
            decisions = histogram.count if histogram is not None else 0
            rejections = 0
            counter = self.registry.get(metric_key(_REJECTED, tenant=tenant))
            if counter is not None:
                rejections = counter.value
            attempts = decisions + rejections
            window, rejects = self._trimmed(tenant, now)
            latencies = sorted(latency for _, latency in window)
            window_attempts = len(latencies) + len(rejects)
            out[tenant] = {
                "decisions": decisions,
                "rejections": rejections,
                "rejection_rate": (rejections / attempts) if attempts else 0.0,
                "p50_ms": histogram.percentile(50.0) if histogram else None,
                "p99_ms": histogram.percentile(99.0) if histogram else None,
                "window": {
                    "seconds": self.window_s,
                    "decisions": len(latencies),
                    "rejections": len(rejects),
                    "rejection_rate": (
                        (len(rejects) / window_attempts) if window_attempts else 0.0
                    ),
                    "p50_ms": _percentile(latencies, 50.0) if latencies else None,
                    "p99_ms": _percentile(latencies, 99.0) if latencies else None,
                },
            }
        return out
