"""Tagged wall-clock metrics for the live decision service.

Everything in this module lives on the *wall-clock* side of the
observability contract (see ``docs/OBSERVABILITY.md``): it measures the
real server — queue wait, decide latency, batch cadence — and therefore
its *values* are not reproducible across runs.  What **is** deterministic
is the *shape*: which metrics exist, their label sets, and every counter
that tallies decisions rather than seconds.  Nothing here is ever
consulted by :class:`repro.service.state.DecisionEngine`, which is how
decision logs stay bitwise identical with telemetry on or off.

Tags ride inside the metric *name* using a canonical
``base{key=value,...}`` grammar (label keys sorted), so the untyped
:class:`repro.observability.metrics.MetricsRegistry` needs no schema
change and snapshots stay plain sorted dicts.  ``split_metric_key``
undoes the encoding for renderers such as
:func:`repro.telemetry.promtext.render_prometheus`.
"""

from __future__ import annotations

import functools
import traceback
from typing import Dict, Optional, Tuple

from repro.observability.metrics import MetricsRegistry

__all__ = [
    "metric_key",
    "split_metric_key",
    "structured_error",
    "summarize_error",
    "RequestSpan",
    "ServiceMetrics",
]

_TRACEBACK_FRAMES = 3
# Series keys kept memoized (the plane labels up to six series a tenant);
# past the bound the least recently used key is formatted again.
_KEY_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE, typed=True)
def metric_key(name: str, **labels: object) -> str:
    """Encode ``name`` plus ``labels`` into a single registry key.

    Labels are sorted by key so the same logical series always maps to
    the same string: ``metric_key("d", b=1, a=2) == "d{a=2,b=1}"``.
    Label values must not contain ``{``, ``}``, ``,`` or ``=`` (tenant
    ids, shard indices, level numbers and exception type names never
    do), and must be hashable: the service formats each series' key
    once, on its first use, and looks it up afterwards.
    """

    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        if any(ch in value for ch in "{}=,"):
            raise ValueError(f"label value {value!r} contains a reserved character")
        parts.append(f"{key}={value}")
    return f"{name}{{{','.join(parts)}}}"


def split_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`metric_key` into ``(base_name, labels)``."""

    if not key.endswith("}") or "{" not in key:
        return key, {}
    base, _, raw = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in raw.split(","):
        if not part:
            continue
        lkey, sep, lvalue = part.partition("=")
        if not sep or not lkey:
            raise ValueError(f"malformed metric key {key!r}")
        labels[lkey] = lvalue
    return base, labels


def structured_error(exc: BaseException, where: str) -> Dict[str, object]:
    """Render an exception as a structured record instead of a bare string.

    Mirrors the failure records of ``repro.analysis.experiments``: the
    exception type, its message, and the last few stack frames as
    ``"file:line in name"`` strings — enough to debug from a status page
    or a flight-recorder bundle without a full traceback dump.
    """

    frames = traceback.extract_tb(exc.__traceback__)[-_TRACEBACK_FRAMES:]
    return {
        "where": where,
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": [
            f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"
            for frame in frames
        ],
    }


def summarize_error(record: Dict[str, object]) -> str:
    """One-line summary of a :func:`structured_error` record."""

    return f"{record.get('where')}: {record.get('type')}: {record.get('message')}"


class RequestSpan:
    """Wall-clock lifecycle of one request: enqueue→admit→decide→respond.

    The span is created when the server reads the request off the wire
    and is closed when its decision round has written every response
    to the transports: ``service.span.respond_ms`` runs from the
    request's decision to its batch's write, so it includes deciding
    the rest of the batch.  The server reads each instant off
    ``time.perf_counter`` once (the respond instant once per batch) and
    hands it to the span methods; the request's latency uses the same
    reads.  Each stage boundary lands in a histogram
    (``service.span.queue_ms``, ``service.span.decide_ms``,
    ``service.span.respond_ms`` and the per-tenant
    ``service.span.total_ms{tenant=...}``), correlated with the
    decision journal through ``corr``.
    """

    __slots__ = ("corr", "tenant", "enqueued", "admitted", "decided", "responded")

    def __init__(self, corr: str, tenant: str, enqueued: float) -> None:
        self.corr = corr
        self.tenant = tenant
        self.enqueued = enqueued
        self.admitted: Optional[float] = None
        self.decided: Optional[float] = None
        self.responded: Optional[float] = None


class ServiceMetrics:
    """Tagged counters, gauges and histograms for the service hot path.

    A thin facade over :class:`MetricsRegistry`; "lock-free in asyncio"
    because every mutation is a plain synchronous dict operation that
    never awaits, so no two coroutines ever interleave inside an
    update.  The registry maps each encoded key to its instrument.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- instruments -----------------------------------------------------
    def count(self, name: str, amount: int = 1, **labels: object) -> None:
        self.registry.counter(metric_key(name, **labels)).inc(amount)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        self.registry.gauge(metric_key(name, **labels)).set(value)

    def record(self, name: str, value: float, **labels: object) -> None:
        self.registry.histogram(metric_key(name, **labels)).record(value)

    # -- request lifecycle spans ----------------------------------------
    def begin_span(self, corr: str, tenant: str, enqueued: float) -> RequestSpan:
        return RequestSpan(corr, tenant, enqueued)

    def mark_admitted(self, span: RequestSpan, admitted: float) -> None:
        span.admitted = admitted

    def mark_decided(self, span: RequestSpan, decided: float) -> None:
        span.decided = decided

    def finish_span(self, span: RequestSpan, responded: float) -> None:
        """Close the span and record each stage that actually happened."""

        span.responded = responded
        admitted = span.admitted if span.admitted is not None else span.responded
        self.record("service.span.queue_ms", (admitted - span.enqueued) * 1e3)
        if span.decided is not None:
            self.record("service.span.decide_ms", (span.decided - admitted) * 1e3)
            self.record(
                "service.span.respond_ms", (span.responded - span.decided) * 1e3
            )
        self.record(
            "service.span.total_ms",
            (span.responded - span.enqueued) * 1e3,
            tenant=span.tenant,
        )

    # -- structured errors ----------------------------------------------
    def count_error(self, exc: BaseException, where: str) -> Dict[str, object]:
        """Count ``service.errors{type=...}`` and return the structured record."""

        record = structured_error(exc, where)
        self.count("service.errors", type=record["type"])
        return record

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return self.registry.snapshot()
