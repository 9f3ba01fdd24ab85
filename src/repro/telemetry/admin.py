"""The admin plane: ``/healthz``, ``/statusz``, ``/metricsz``, ``/flightz``.

The decision server speaks JSONL, but operators speak ``curl``.  Rather
than opening a second port, the server sniffs the first bytes of each
connection line: an HTTP request line (``GET /statusz HTTP/1.1``) is
routed here, answered with a minimal ``Connection: close`` HTTP/1.0
response, and the connection ends — JSONL clients never notice.  The
plane is read-only except for ``/flightz/dump``, which triggers a
flight-recorder bundle exactly like SIGUSR1 does.

Endpoints:

* ``/healthz`` — liveness: ``{"ok": true}`` (503 once draining).
* ``/statusz`` — JSON: uptime, queue/admission state, engine summary,
  shard occupancy, drain state, per-tenant SLOs, recent errors.
* ``/metricsz`` — Prometheus text exposition rendered from the engine's
  deterministic registry (the totals) plus the telemetry plane's one
  registry (the per-tenant and per-shard breakdowns).
* ``/flightz`` — flight-recorder ring snapshot; ``/flightz/dump``
  dumps a bundle and returns its path.

No HTTP library is used (or available): :func:`http_get` is the
matching ~30-line client for ``repro top`` and the CI smoke job.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional, Tuple

from .promtext import render_prometheus

__all__ = ["AdminPlane", "parse_http_request_line", "http_response", "http_get"]

_STATUS_TEXT = {
    200: "OK",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    503: "Service Unavailable",
}
_HTTP_METHODS = ("GET", "HEAD", "POST")

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


def parse_http_request_line(line: bytes) -> Optional[Tuple[str, str]]:
    """``(method, path)`` if ``line`` is an HTTP request line, else ``None``."""

    try:
        text = line.decode("ascii").strip()
    except UnicodeDecodeError:
        return None
    parts = text.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        return None
    method, path = parts[0], parts[1]
    if method not in _HTTP_METHODS or not path.startswith("/"):
        return None
    return method, path


def http_response(status: int, content_type: str, body: bytes) -> bytes:
    """A complete minimal HTTP/1.0 response, connection-close."""

    head = (
        f"HTTP/1.0 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


class AdminPlane:
    """Route admin HTTP requests against a live :class:`DecisionServer`."""

    def __init__(self, server) -> None:
        self.server = server

    # -- endpoint bodies -------------------------------------------------
    def _draining(self) -> bool:
        telemetry = self.server.telemetry
        if telemetry is not None and telemetry.draining:
            return True
        stopping = self.server._stopping
        return bool(stopping is not None and stopping.is_set())

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        draining = self._draining()
        status = 503 if draining else 200
        return status, {"ok": not draining, "draining": draining}

    def statusz(self) -> Dict[str, object]:
        server = self.server
        engine = server.engine
        telemetry = server.telemetry
        queue = server._queue
        doc: Dict[str, object] = {
            "ok": True,
            "draining": self._draining(),
            "queue": {
                "depth": queue.qsize() if queue is not None else 0,
                "limit": server.config.queue_limit,
                "admission_limit": server.config.admission_limit,
                "batch_max": server.config.batch_max,
                "max_batch_seen": server.max_batch_seen,
            },
            "rejected": server.rejected,
            "summary": engine.summary(),
            "shard_occupancy": [len(shard) for shard in engine.shards],
            "telemetry": {"enabled": telemetry is not None},
        }
        if telemetry is not None:
            doc["uptime_s"] = telemetry.uptime_s()
            doc["slo"] = telemetry.slo.snapshot()
            doc["flight"] = telemetry.flight.snapshot()
            doc["errors"] = list(telemetry.errors)
            doc["telemetry"]["flight_dir"] = telemetry.flight_dir
        return doc

    def metricsz(self) -> str:
        registries = []
        if self.server.engine.metrics is not None:
            registries.append(self.server.engine.metrics)
        telemetry = self.server.telemetry
        if telemetry is not None:
            registries.append(telemetry.metrics.registry)
        return render_prometheus(*registries)

    def flightz(self) -> Tuple[int, Dict[str, object]]:
        telemetry = self.server.telemetry
        if telemetry is None:
            return 409, {"ok": False, "error": "telemetry disabled"}
        return 200, {"ok": True, "flight": telemetry.flight.snapshot()}

    def flightz_dump(self) -> Tuple[int, Dict[str, object]]:
        telemetry = self.server.telemetry
        if telemetry is None:
            return 409, {"ok": False, "error": "telemetry disabled"}
        if telemetry.flight_dir is None:
            return 409, {"ok": False, "error": "no --flight-dir configured"}
        path = telemetry.dump_flight("admin")
        return 200, {"ok": True, "path": path}

    # -- dispatch --------------------------------------------------------
    def handle(self, method: str, path: str) -> bytes:
        """Answer one admin request as raw HTTP response bytes."""

        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "POST" and path != "/flightz/dump":
            body = {"ok": False, "error": "POST only allowed on /flightz/dump"}
            return self._json(405, body, method)
        if path == "/healthz":
            status, doc = self.healthz()
            return self._json(status, doc, method)
        if path == "/statusz":
            return self._json(200, self.statusz(), method)
        if path == "/metricsz":
            body = self.metricsz().encode("utf-8")
            if method == "HEAD":
                body = b""
            return http_response(200, PROM_CONTENT_TYPE, body)
        if path == "/flightz":
            status, doc = self.flightz()
            return self._json(status, doc, method)
        if path == "/flightz/dump":
            status, doc = self.flightz_dump()
            return self._json(status, doc, method)
        return self._json(404, {"ok": False, "error": f"no such path {path}"}, method)

    @staticmethod
    def _json(status: int, doc: Dict[str, object], method: str = "GET") -> bytes:
        if method == "HEAD":
            body = b""
        else:
            body = json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n"
        return http_response(status, JSON_CONTENT_TYPE, body)


def http_get(
    host: str, port: int, path: str, timeout: float = 5.0
) -> Tuple[int, bytes]:
    """Minimal HTTP GET against the admin plane: ``(status, body)``."""

    with socket.create_connection((host, port), timeout=timeout) as sock:
        request = f"GET {path} HTTP/1.0\r\nHost: {host}\r\nConnection: close\r\n\r\n"
        sock.sendall(request.encode("ascii"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("ascii", "replace")
    parts = status_line.split(" ")
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"malformed HTTP response: {status_line!r}")
    return int(parts[1]), body
