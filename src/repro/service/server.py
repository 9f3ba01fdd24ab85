"""The asyncio decision server (``repro serve run``).

Transport and flow control only — every decision is made by the
synchronous :class:`repro.service.DecisionEngine`, so nothing here can
change a decision.  The moving parts:

* **Backpressure** — requests land on one bounded :class:`asyncio.Queue`
  shared by all connections.  When it is full, ``await put`` blocks the
  connection's reader coroutine, which stops reading its socket, which
  fills the kernel buffers, which stalls the client's writes: TCP does
  the rest.  No request is dropped once read.
* **Admission control** — above ``admission_limit`` queued requests the
  server answers ``{"ok": false, "error": "overloaded", "retry": true}``
  instead of queueing: a bounded-latency refusal beats an unbounded
  queue (tallied as ``service.rejected``).
* **Batched decision rounds** — one worker drains up to ``batch_max``
  queued requests per round and runs them through the engine back to
  back, amortizing scheduling overhead.  Each response is encoded on
  its own, but a round's responses to one connection leave in request
  order as one write, and each connection is drained once per round;
  batch size and per-request latency go to ``service.*`` histograms.
* **Graceful shutdown** — a ``shutdown`` op (or :meth:`stop`) stops
  intake, drains the queue, answers everything in flight, then closes
  connections and the listener.
* **Admin plane** — an HTTP request line on the same port (``GET
  /statusz HTTP/1.1``) is detected before JSONL decoding and routed to
  :class:`repro.telemetry.AdminPlane` (``/healthz``, ``/statusz``,
  ``/metricsz``, ``/flightz``), answered, and the connection closed.

When the engine carries a :class:`repro.telemetry.ServiceTelemetry`
plane, the server additionally records wall-clock request spans
(enqueue→admit→decide→respond), per-tenant SLO latency/rejections, the
live queue depth, structured ``service.errors{type=...}`` records for
every exception it would otherwise swallow, and each decision into the
flight recorder — none of which is ever read on the decision path, so
the journal stays bitwise identical with telemetry on or off.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..telemetry.admin import AdminPlane, parse_http_request_line
from .protocol import ProtocolError, decode, encode, error_response
from .state import DecisionEngine

__all__ = ["ServerConfig", "DecisionServer"]


@dataclass
class ServerConfig:
    """Tunables of one server process (transport-side only)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = kernel-assigned (reported by sockets())
    batch_max: int = 64
    queue_limit: int = 1024
    admission_limit: int = 4096


class DecisionServer:
    """One listening decision service around a :class:`DecisionEngine`."""

    def __init__(self, engine: DecisionEngine, config: ServerConfig) -> None:
        if config.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if config.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.engine = engine
        self.config = config
        self.telemetry = engine.telemetry
        self.admin = AdminPlane(self)
        # Created in start(): on Python 3.9 asyncio primitives bind to
        # the running loop at construction time.
        self._queue: Optional["asyncio.Queue"] = None
        self._stopping: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker: Optional[asyncio.Task] = None
        self.rejected = 0
        self.max_batch_seen = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._worker = asyncio.ensure_future(self._decision_worker())

    def sockets(self):
        """The bound sockets (for discovering a kernel-assigned port)."""
        assert self._server is not None, "start() first"
        return self._server.sockets

    @property
    def port(self) -> int:
        return self.sockets()[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`stop`) completes."""
        await self._stopping.wait()
        await self._drain_and_close()

    def stop(self) -> None:
        """Request a graceful stop (drain, answer, close)."""
        assert self._stopping is not None, "start() first"
        if self.telemetry is not None:
            self.telemetry.draining = True
        self._stopping.set()

    async def _drain_and_close(self) -> None:
        # Stop accepting new connections, then let the worker finish
        # everything already queued.
        assert self._server is not None
        if self.telemetry is not None:
            self.telemetry.draining = True
        self._server.close()
        await self._queue.join()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
        await self._server.wait_closed()
        if self.telemetry is not None:
            self.telemetry.dump_flight("drain")

    # ------------------------------------------------------------------
    # Per-connection reader
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lost = False
        try:
            while not self._stopping.is_set():
                line = await reader.readline()
                if not line:
                    break
                http = parse_http_request_line(line)
                if http is not None:
                    await self._handle_admin(reader, writer, *http)
                    break
                try:
                    request = decode(line)
                except ProtocolError as exc:
                    writer.write(encode(error_response(str(exc))))
                    await writer.drain()
                    continue
                op = request["op"]
                if op == "ping":
                    writer.write(encode({"ok": True, "op": "pong"}))
                    await writer.drain()
                    continue
                if op == "stats":
                    writer.write(
                        encode(
                            {
                                "ok": True,
                                "op": "stats",
                                "summary": self.engine.summary(),
                                "rejected": self.rejected,
                            }
                        )
                    )
                    await writer.drain()
                    continue
                if op == "shutdown":
                    writer.write(encode({"ok": True, "op": "shutdown"}))
                    await writer.drain()
                    self.stop()
                    break
                # profile/call: admission control, then backpressure.
                if self._queue.qsize() >= self.config.admission_limit:
                    self.rejected += 1
                    self._count("service.rejected")
                    if self.telemetry is not None:
                        self.telemetry.note_rejection(
                            str(request.get("tenant", ""))
                        )
                    writer.write(
                        encode(
                            error_response(
                                "overloaded",
                                retry=True,
                                seq=request.get("seq"),
                            )
                        )
                    )
                    await writer.drain()
                    continue
                enqueued = time.perf_counter()
                span = None
                if self.telemetry is not None:
                    span = self.telemetry.metrics.begin_span(
                        self._corr_of(request),
                        str(request.get("tenant", "")),
                        enqueued,
                    )
                await self._queue.put((request, writer, enqueued, span))
                if span is not None:
                    self.telemetry.metrics.mark_admitted(span, time.perf_counter())
        except ConnectionError as exc:
            # The peer reset the connection: the one record of its loss
            # (the close below raises the same error again).
            lost = True
            self._note_error(exc, "connection.read")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError) as exc:
                # The peer vanished mid-close: harmless, but visible.
                if not lost:
                    self._note_error(exc, "connection.close")

    @staticmethod
    def _corr_of(request: Dict[str, object]) -> str:
        corr = request.get("corr")
        if corr is not None:
            return str(corr)
        return f"{request.get('tenant', '')}.{request.get('seq', '')}"

    async def _handle_admin(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
    ) -> None:
        """Answer one admin-plane HTTP request, then close the stream."""
        # Consume the (ignored) request headers up to the blank line.
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        writer.write(self.admin.handle(method, path))
        await writer.drain()

    # ------------------------------------------------------------------
    # Batched decision rounds
    # ------------------------------------------------------------------
    async def _decision_worker(self) -> None:
        queue = self._queue
        batch_max = self.config.batch_max
        telemetry = self.telemetry
        while True:
            batch = [await queue.get()]
            while len(batch) < batch_max:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            if len(batch) > self.max_batch_seen:
                self.max_batch_seen = len(batch)
            self._record("service.batch_size", len(batch))
            if telemetry is not None:
                telemetry.note_queue_depth(queue.qsize())
            # Each connection's responses, in request order: written as
            # one chunk per connection once the whole batch is decided.
            lines: Dict[asyncio.StreamWriter, List[bytes]] = {}
            for request, writer, enqueued_at, span in batch:
                try:
                    response = self._answer(request)
                except Exception as exc:
                    # A worker death would silently hang every client;
                    # answer with a structured error instead.
                    record = self._note_error(exc, "decision-worker")
                    detail = "internal error"
                    if record is not None:
                        detail = f"internal error: {record['type']}"
                    response = error_response(detail, seq=request.get("seq"))
                decided = time.perf_counter()
                latency_ms = (decided - enqueued_at) * 1e3
                self._record("service.latency_ms", latency_ms)
                if telemetry is not None:
                    if span is not None:
                        telemetry.metrics.mark_decided(span, decided)
                    if response.get("op") == "decision":
                        telemetry.note_latency(
                            str(response["tenant"]), latency_ms
                        )
                lines.setdefault(writer, []).append(encode(response))
            written = [writer for writer in lines if not writer.is_closing()]
            for writer in written:
                writer.write(b"".join(lines[writer]))
            responded = time.perf_counter()
            for _, _, _, span in batch:
                if span is not None:
                    telemetry.metrics.finish_span(span, responded)
                queue.task_done()
            for writer in written:
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    # The peer is gone.  Its connection's handler records
                    # the loss once, where its read or close sees it.
                    pass

    def _answer(self, request: Dict[str, object]) -> Dict[str, object]:
        try:
            record = self.engine.observe(request)
        except ValueError as exc:
            self._note_error(exc, "engine.observe")
            return error_response(str(exc), seq=request.get("seq"))
        if record is None:  # profile registration
            return {
                "ok": True,
                "op": "profile",
                "tenant": request.get("tenant"),
                "function": request.get("function"),
            }
        response = {"ok": True, "op": "decision"}
        response.update(record)
        return response

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        if self.engine.metrics is not None:
            self.engine.metrics.counter(name).inc()

    def _note_error(self, exc: BaseException, where: str):
        """Structured error record + ``service.errors{type=...}`` count
        (``None`` when no telemetry plane is attached)."""
        if self.telemetry is None:
            return None
        return self.telemetry.note_error(exc, where)

    def _record(self, name: str, value: float) -> None:
        if self.engine.metrics is not None:
            self.engine.metrics.histogram(name).record(value)
