"""Load driver and deterministic replay (``repro serve replay``).

The driver turns DaCapo call sequences into a multi-tenant event
stream, replays it against a :class:`DecisionEngine` — in process or
through a real socket server — and reports decisions/sec and latency
percentiles through :mod:`repro.perf`.

Determinism contract:

* :func:`generate_events` is a pure function of ``(tenants, events,
  scale, seed)`` — same arguments, same stream, down to the interleave
  (one seeded rng draws which tenant speaks next, weighted by how many
  events each still holds);
* every decision depends only on the owning tenant's event order plus
  the fault seed, so the *decision log* — the replay's canonical
  JSONL output, sorted by global sequence number — is bitwise
  identical across runs, transports, and batch sizes.  Latency lives
  in the report, never in the log.

Kill-and-restart: the decision log doubles as a journal.  A resumed
replay reads it, replays every event through the engine (rebuilding
hotness state deterministically), but emits only the records whose
sequence numbers are not already journaled — no duplicate decisions,
and the completed file is bitwise equal to an uninterrupted run's.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import random

from ..observability.metrics import _percentile
from ..perf.harness import TimingStats, robust_stats
from ..workloads import dacapo
from .protocol import ProtocolError, encode, validate_event
from .server import DecisionServer, ServerConfig
from .state import DecisionEngine

__all__ = [
    "generate_events",
    "write_events",
    "load_events",
    "decision_line",
    "ReplayReport",
    "replay_inproc",
    "replay_socket",
    "run_replay",
]


# ----------------------------------------------------------------------
# Event-stream generation
# ----------------------------------------------------------------------
def generate_events(
    tenants: int = 8,
    events: int = 1000,
    scale: float = 0.02,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """A deterministic multi-tenant event stream from DaCapo traces.

    Tenant ``i`` replays the Table 1 benchmark ``TABLE1[i % 9]`` (its
    own copy, seeded ``seed + i``, so two tenants on the same benchmark
    still differ).  Each tenant contributes ``ceil(events / tenants)``
    call events — profiles are sent lazily before a function's first
    call and do not count against the quota — and one rng interleaves
    the per-tenant streams weighted by remaining length.  Global
    ``seq`` numbers stamp the final order.
    """
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    if events < 1:
        raise ValueError("events must be >= 1")
    names = [info.name for info in dacapo.TABLE1]
    per_tenant = (events + tenants - 1) // tenants
    streams: List[List[Dict[str, object]]] = []
    for i in range(tenants):
        bench = names[i % len(names)]
        instance = dacapo.load(bench, scale=scale, seed=seed + i)
        tenant = f"t{i:03d}-{bench}"
        stream: List[Dict[str, object]] = []
        introduced: Set[str] = set()
        calls = instance.calls
        for k in range(per_tenant):
            fname = calls[k % len(calls)]
            if fname not in introduced:
                introduced.add(fname)
                profile = instance.profiles[fname]
                stream.append(
                    {
                        "op": "profile",
                        "tenant": tenant,
                        "function": fname,
                        "compile_times": list(profile.compile_times),
                        "exec_times": list(profile.exec_times),
                    }
                )
            stream.append(
                {"op": "call", "tenant": tenant, "function": fname}
            )
        streams.append(stream)

    rng = random.Random(seed)
    cursors = [0] * tenants
    remaining = [len(s) for s in streams]
    total = sum(remaining)
    interleaved: List[Dict[str, object]] = []
    for seq in range(total):
        pick = rng.randrange(sum(remaining))
        for i in range(tenants):
            if pick < remaining[i]:
                break
            pick -= remaining[i]
        event = dict(streams[i][cursors[i]])
        event["seq"] = seq
        interleaved.append(event)
        cursors[i] += 1
        remaining[i] -= 1
    return interleaved


def write_events(
    events: Sequence[Dict[str, object]], path: Union[str, Path]
) -> None:
    """Canonical JSONL event file (one event per line, sorted keys)."""
    with open(path, "wb") as fh:
        for event in events:
            fh.write(encode(event))


def load_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse and validate an event file.

    Raises:
        ProtocolError: malformed line (reported with its line number).
    """
    events: List[Dict[str, object]] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
                if not isinstance(doc, dict) or "op" not in doc:
                    raise ProtocolError("not an event object")
                validate_event(doc)
            except (ValueError, KeyError) as exc:
                raise ProtocolError(
                    f"{path}: line {lineno}: {exc}"
                ) from None
            events.append(doc)
    return events


def decision_line(record: Dict[str, object]) -> bytes:
    """One canonical decision-log line (what both runs must agree on)."""
    return encode(record)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayReport:
    """What a replay measured (the log itself stays timing-free).

    ``latency`` is the robust :class:`repro.perf.harness.TimingStats`
    over per-decision latencies (seconds); ``p50_ms``/``p99_ms`` come
    from the deterministic-reservoir ``service.latency_ms`` histogram
    when a metrics registry is attached, else from the raw samples.
    """

    tenants: int
    events: int
    decisions: int
    skipped: int
    wall_s: float
    decisions_per_sec: float
    latency: TimingStats
    p50_ms: float
    p99_ms: float
    summary: Dict[str, object]
    slo: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenants": self.tenants,
            "events": self.events,
            "decisions": self.decisions,
            "skipped": self.skipped,
            "wall_s": self.wall_s,
            "decisions_per_sec": self.decisions_per_sec,
            "latency": self.latency.as_dict(),
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "summary": self.summary,
            "slo": self.slo,
        }


def _percentile_ms(samples_s: List[float], engine: DecisionEngine, q: float) -> float:
    """The ``q``-th latency percentile in ms: the engine's latency
    histogram when it keeps one, else the same rule on ``samples_s``."""
    if engine.metrics is not None:
        value = engine.metrics.histogram("service.latency_ms").percentile(q)
        if value is not None:
            return value
    if not samples_s:
        return 0.0
    return _percentile(sorted(samples_s), q) * 1e3


def _build_report(
    engine: DecisionEngine,
    tenants: int,
    events: int,
    decisions: int,
    skipped: int,
    wall_s: float,
    latencies_s: List[float],
) -> ReplayReport:
    stats = robust_stats(latencies_s or [0.0])
    slo: Dict[str, object] = {}
    if engine.telemetry is not None:
        slo = engine.telemetry.slo.snapshot()
    return ReplayReport(
        tenants=tenants,
        events=events,
        decisions=decisions,
        skipped=skipped,
        wall_s=wall_s,
        decisions_per_sec=decisions / wall_s if wall_s > 0 else 0.0,
        latency=stats,
        p50_ms=_percentile_ms(latencies_s, engine, 50.0),
        p99_ms=_percentile_ms(latencies_s, engine, 99.0),
        summary=engine.summary(),
        slo=slo,
    )


def replay_inproc(
    events: Sequence[Dict[str, object]],
    engine: DecisionEngine,
    decided: Optional[Set[int]] = None,
) -> Tuple[List[Dict[str, object]], ReplayReport]:
    """Replay directly through the engine (no transport).

    ``decided`` is the resume set: events whose ``seq`` is in it are
    still replayed (the hotness state they built must be rebuilt) but
    their records are *not* re-emitted — the journal already has them.
    """
    decided = decided or set()
    records: List[Dict[str, object]] = []
    latencies: List[float] = []
    skipped = 0
    tenants = {str(e.get("tenant", "")) for e in events}
    started = time.perf_counter()
    for event in events:
        t0 = time.perf_counter()
        record = engine.observe(event)
        elapsed = time.perf_counter() - t0
        if record is None:
            continue
        latencies.append(elapsed)
        if engine.metrics is not None:
            engine.metrics.histogram("service.latency_ms").record(
                elapsed * 1e3
            )
        if engine.telemetry is not None:
            engine.telemetry.note_latency(
                str(record["tenant"]), elapsed * 1e3
            )
        if int(record["seq"]) in decided:
            skipped += 1
            continue
        records.append(record)
    wall = time.perf_counter() - started
    report = _build_report(
        engine, len(tenants), len(events), len(records), skipped, wall,
        latencies,
    )
    return records, report


async def _replay_one_tenant(
    host: str,
    port: int,
    events: Sequence[Dict[str, object]],
    window: int,
    telemetry=None,
) -> Tuple[List[Dict[str, object]], List[float]]:
    """One tenant's connection: pipelined sends, in-order receives.

    The server's single decision worker answers a connection's requests
    in arrival order, so a sliding window of ``window`` outstanding
    requests keeps the pipe full without reordering.
    """
    reader, writer = await asyncio.open_connection(host, port)
    records: List[Dict[str, object]] = []
    latencies: List[float] = []
    sent_at: List[Tuple[float, Dict[str, object]]] = []
    try:
        cursor = 0
        outstanding = 0
        while cursor < len(events) or outstanding:
            while cursor < len(events) and outstanding < window:
                event = events[cursor]
                writer.write(encode(event))
                sent_at.append((time.perf_counter(), event))
                cursor += 1
                outstanding += 1
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed mid-replay")
            response = json.loads(line.decode("utf-8"))
            t0, event = sent_at.pop(0)
            outstanding -= 1
            if not response.get("ok"):
                raise RuntimeError(
                    f"server refused {event.get('op')} seq="
                    f"{event.get('seq')}: {response.get('error')}"
                )
            if response.get("op") == "decision":
                latencies.append(time.perf_counter() - t0)
                record = {
                    key: response[key]
                    for key in (
                        "tenant", "seq", "function", "call", "action",
                        "level", "attempts", "corr",
                    )
                }
                records.append(record)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError) as exc:
            if telemetry is not None:
                telemetry.note_error(exc, "replay.close")
    return records, latencies


async def _replay_socket_async(
    events: Sequence[Dict[str, object]],
    engine: DecisionEngine,
    config: ServerConfig,
    window: int,
) -> Tuple[List[Dict[str, object]], List[float], DecisionServer]:
    server = DecisionServer(engine, config)
    await server.start()
    port = server.port
    by_tenant: Dict[str, List[Dict[str, object]]] = {}
    for event in events:
        by_tenant.setdefault(str(event["tenant"]), []).append(event)
    try:
        results = await asyncio.gather(
            *(
                _replay_one_tenant(
                    config.host, port, stream, window,
                    telemetry=engine.telemetry,
                )
                for _, stream in sorted(by_tenant.items())
            )
        )
    except Exception as exc:
        # Surface driver failures as structured error records too, so a
        # soak that dies mid-flight leaves evidence in the telemetry
        # plane (and its flight dump), not just a traceback.
        if engine.telemetry is not None:
            engine.telemetry.note_error(exc, "replay_socket")
        raise
    finally:
        server.stop()
        await server.serve_until_stopped()
    records: List[Dict[str, object]] = []
    latencies: List[float] = []
    for tenant_records, tenant_latencies in results:
        records.extend(tenant_records)
        latencies.extend(tenant_latencies)
    return records, latencies, server


def replay_socket(
    events: Sequence[Dict[str, object]],
    engine: DecisionEngine,
    config: Optional[ServerConfig] = None,
    window: int = 32,
    decided: Optional[Set[int]] = None,
) -> Tuple[List[Dict[str, object]], ReplayReport]:
    """Replay through a real asyncio server on a loopback socket.

    One connection per tenant, each pipelining up to ``window``
    requests; the batched decision worker serves them all.  Records
    come back per tenant and are merged by ``seq`` — which makes the
    output independent of socket scheduling, and bitwise equal to
    :func:`replay_inproc` on the same events.
    """
    decided = decided or set()
    config = config or ServerConfig()
    started = time.perf_counter()
    records, latencies, _server = asyncio.run(
        _replay_socket_async(events, engine, config, window)
    )
    wall = time.perf_counter() - started
    records.sort(key=lambda r: int(r["seq"]))
    skipped = sum(1 for r in records if int(r["seq"]) in decided)
    records = [r for r in records if int(r["seq"]) not in decided]
    tenants = {str(e.get("tenant", "")) for e in events}
    report = _build_report(
        engine, len(tenants), len(events), len(records), skipped, wall,
        latencies,
    )
    return records, report


# ----------------------------------------------------------------------
# Journaled replay (the CLI entry point's engine room)
# ----------------------------------------------------------------------
def load_decision_log(path: Union[str, Path]) -> Dict[int, bytes]:
    """Journaled decisions: ``seq`` → canonical line.  Missing file →
    empty (a fresh run)."""
    decided: Dict[int, bytes] = {}
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return decided
    with fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line.decode("utf-8"))
            decided[int(doc["seq"])] = line
    return decided


def run_replay(
    events: Sequence[Dict[str, object]],
    engine: DecisionEngine,
    decisions_out: Optional[Union[str, Path]] = None,
    mode: str = "inproc",
    resume: bool = False,
    window: int = 32,
    config: Optional[ServerConfig] = None,
) -> ReplayReport:
    """Replay ``events``, journal the decision log, report the rates.

    With ``resume``, previously journaled records (by ``seq``) are kept
    verbatim and not re-emitted; the finished log is bitwise identical
    to an uninterrupted run's because the engine is deterministic.
    """
    if mode not in ("inproc", "socket"):
        raise ValueError(f"unknown replay mode {mode!r}")
    journaled: Dict[int, bytes] = {}
    if resume and decisions_out is not None:
        journaled = load_decision_log(decisions_out)
    decided = set(journaled)
    if mode == "socket":
        records, report = replay_socket(
            events, engine, config=config, window=window, decided=decided
        )
    else:
        records, report = replay_inproc(events, engine, decided=decided)
    if decisions_out is not None:
        merged: List[Tuple[int, bytes]] = [
            (seq, line) for seq, line in journaled.items()
        ]
        merged.extend(
            (int(record["seq"]), decision_line(record))
            for record in records
        )
        merged.sort(key=lambda pair: pair[0])
        with open(decisions_out, "wb") as fh:
            for _, line in merged:
                fh.write(line)
    return report
