"""The telemetry plane on a live server: admin endpoints, spans, SLOs,
structured errors, and the drain-time flight dump.

Same style as ``test_service_server.py``: a real loopback listener, raw
stream clients, plus :func:`repro.telemetry.http_get` for the HTTP side
— the tests pin the admin wire format, not internals.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.observability import MetricsRegistry
from repro.service import (
    DecisionCache,
    DecisionEngine,
    DecisionServer,
    ServerConfig,
    encode,
    generate_events,
    replay_inproc,
)
from repro.telemetry import (
    ServiceTelemetry,
    parse_http_request_line,
    read_flight_bundle,
    validate_exposition,
)
from repro.telemetry.admin import http_response

PROFILE = {
    "op": "profile",
    "tenant": "t0",
    "function": "f",
    "compile_times": [1.0, 5.0],
    "exec_times": [10.0, 1.0],
}


def _run(coro):
    return asyncio.run(coro)


async def _start(flight_dir=None, **config_kwargs) -> DecisionServer:
    telemetry = ServiceTelemetry(shards=8, flight_dir=flight_dir)
    engine = DecisionEngine(telemetry=telemetry)
    server = DecisionServer(engine, ServerConfig(**config_kwargs))
    await server.start()
    return server


async def _ask(reader, writer, message):
    writer.write(encode(message))
    await writer.drain()
    line = await reader.readline()
    return json.loads(line.decode())


async def _admin(server, method, path):
    """One admin request over a fresh connection: (status, body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


async def _drive_decisions(server, count=5):
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    await _ask(reader, writer, PROFILE)
    for _ in range(count):
        response = await _ask(
            reader, writer, {"op": "call", "tenant": "t0", "function": "f"}
        )
        assert response["op"] == "decision"
    writer.close()
    await writer.wait_closed()
    return response


class TestHttpSniffing:
    def test_request_line_parser(self):
        assert parse_http_request_line(b"GET /statusz HTTP/1.1\r\n") == (
            "GET",
            "/statusz",
        )
        assert parse_http_request_line(b"POST /flightz/dump HTTP/1.0\n") == (
            "POST",
            "/flightz/dump",
        )
        for line in (
            b'{"op": "ping"}\n',  # JSONL stays JSONL
            b"DELETE /x HTTP/1.1\n",  # unsupported method
            b"GET nopath HTTP/1.1\n",
            b"GET /x NOTHTTP\n",
            b"\xff\xfe binary\n",
        ):
            assert parse_http_request_line(line) is None

    def test_http_response_shape(self):
        raw = http_response(200, "text/plain", b"hi")
        assert raw.startswith(b"HTTP/1.0 200 OK\r\n")
        assert b"Content-Length: 2\r\n" in raw
        assert raw.endswith(b"\r\n\r\nhi")


class TestAdminEndpoints:
    def test_healthz_statusz_metricsz(self):
        async def scenario():
            server = await _start()
            await _drive_decisions(server)

            status, body = await _admin(server, "GET", "/healthz")
            assert status == 200
            assert json.loads(body) == {"ok": True, "draining": False}

            status, body = await _admin(server, "GET", "/statusz")
            assert status == 200
            doc = json.loads(body)
            assert doc["summary"]["decisions"] == 5
            assert doc["telemetry"]["enabled"] is True
            assert len(doc["shard_occupancy"]) == len(server.engine.shards)
            assert "t0" in doc["slo"]
            assert doc["slo"]["t0"]["decisions"] == 5
            assert doc["flight"]["recorded"] == 5
            assert doc["uptime_s"] >= 0.0

            status, body = await _admin(server, "GET", "/metricsz")
            assert status == 200
            text = body.decode()
            assert validate_exposition(text) > 0
            assert 'service_tenant_decide_latency_ms{quantile="0.99"' in text
            # 6 spans: the profile registration rides the queue too.
            assert 'service_span_total_ms_count{tenant="t0"} 6' in text
            assert "service_decisions_by_tenant_total{" in text

            status, body = await _admin(server, "GET", "/nope")
            assert status == 404

            status, body = await _admin(server, "HEAD", "/metricsz")
            assert status == 200 and body == b""

            server.stop()
            await server.serve_until_stopped()

        _run(scenario())

    def test_post_only_on_flight_dump(self):
        async def scenario():
            server = await _start()
            status, _ = await _admin(server, "POST", "/statusz")
            assert status == 405
            # No flight_dir configured: dump is refused, not crashed.
            status, body = await _admin(server, "POST", "/flightz/dump")
            assert status == 409
            assert b"flight-dir" in body
            server.stop()
            await server.serve_until_stopped()

        _run(scenario())

    def test_flightz_and_dump(self, tmp_path):
        async def scenario():
            server = await _start(flight_dir=str(tmp_path))
            await _drive_decisions(server, count=3)
            status, body = await _admin(server, "GET", "/flightz")
            assert status == 200
            assert json.loads(body)["flight"]["recorded"] == 3
            status, body = await _admin(server, "POST", "/flightz/dump")
            assert status == 200
            path = json.loads(body)["path"]
            server.stop()
            await server.serve_until_stopped()
            return path

        path = _run(scenario())
        header, entries = read_flight_bundle(path)
        assert header["reason"] == "admin"
        assert len(entries) == 3
        assert all("decision" in entry for entry in entries)

    def test_jsonl_unaffected_by_admin_traffic(self):
        async def scenario():
            server = await _start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await _admin(server, "GET", "/healthz")
            assert await _ask(reader, writer, {"op": "ping"}) == {
                "ok": True,
                "op": "pong",
            }
            server.stop()
            await server.serve_until_stopped()

        _run(scenario())


class TestTelemetrySignals:
    def test_spans_and_slo_after_decisions(self):
        async def scenario():
            server = await _start()
            await _drive_decisions(server, count=4)
            telemetry = server.telemetry
            snap = telemetry.metrics.snapshot()
            # 5 spans: 4 decisions plus the profile registration.
            assert snap["service.span.queue_ms"]["count"] == 5
            assert snap["service.span.total_ms{tenant=t0}"]["count"] == 5
            slo = telemetry.slo.snapshot()["t0"]
            assert slo["decisions"] == 4
            assert slo["p99_ms"] is not None
            flight = list(telemetry.flight.entries())
            assert len(flight) == 4
            # seq counts the profile op too, so the first decision is .2;
            # the flight corr must match the journaled one exactly.
            assert flight[0]["corr"] == "t0.2"
            assert flight[0]["decision"]["corr"] == "t0.2"
            server.stop()
            await server.serve_until_stopped()

        _run(scenario())

    def test_rejection_feeds_slo_and_counter(self):
        async def scenario():
            server = await _start(admission_limit=0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            response = await _ask(
                reader, writer, {"op": "call", "tenant": "t9", "function": "f"}
            )
            assert response["ok"] is False
            assert response["error"] == "overloaded"
            telemetry = server.telemetry
            assert telemetry.slo.snapshot()["t9"]["rejections"] == 1
            snap = telemetry.metrics.snapshot()
            assert snap["service.rejected.by_tenant{tenant=t9}"] == 1
            server.stop()
            await server.serve_until_stopped()

        _run(scenario())

    def test_engine_error_becomes_structured_record(self):
        async def scenario():
            server = await _start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # A call for an unprofiled function raises ValueError in the
            # engine; the response is an error, the record is structured.
            response = await _ask(
                reader,
                writer,
                {"op": "call", "tenant": "t0", "function": "ghost"},
            )
            assert response["ok"] is False
            telemetry = server.telemetry
            assert len(telemetry.errors) == 1
            record = telemetry.errors[0]
            assert record["type"] == "ValueError"
            assert record["where"] == "engine.observe"
            assert telemetry.metrics.snapshot()[
                "service.errors{type=ValueError}"
            ] == 1
            server.stop()
            await server.serve_until_stopped()

        _run(scenario())

    def test_flight_dump_carries_each_decisions_request_and_record(
        self, tmp_path
    ):
        events = generate_events(tenants=2, events=60, scale=0.002, seed=0)
        records, _ = replay_inproc(events, DecisionEngine())

        async def scenario():
            server = await _start(flight_dir=str(tmp_path))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for event in events:
                assert (await _ask(reader, writer, event))["ok"]
            writer.close()
            await writer.wait_closed()
            server.stop()
            await server.serve_until_stopped()

        _run(scenario())
        [bundle] = tmp_path.glob("flight-*-drain.jsonl")
        _, entries = read_flight_bundle(str(bundle))
        calls = [event for event in events if event["op"] == "call"]
        assert [entry["request"] for entry in entries] == calls
        assert [entry["decision"] for entry in entries] == records
        assert [entry["corr"] for entry in entries] == [
            record["corr"] for record in records
        ]

    def test_drain_dumps_flight_and_healthz_goes_503(self, tmp_path):
        async def scenario():
            server = await _start(flight_dir=str(tmp_path))
            await _drive_decisions(server, count=2)
            server.stop()
            # Once draining, readers stop serving new requests, so probe
            # the handler directly: liveness must flip to 503.
            raw = server.admin.handle("GET", "/healthz")
            assert raw.startswith(b"HTTP/1.0 503 ")
            assert b'"draining": true' in raw
            await server.serve_until_stopped()

        _run(scenario())
        bundles = list(tmp_path.glob("flight-*-drain.jsonl"))
        assert len(bundles) == 1
        header, entries = read_flight_bundle(str(bundles[0]))
        assert header["reason"] == "drain"
        assert len(entries) == 2


def _tenant_counters(text, tenant, word):
    """``{sample: value}`` of the exposition's counters that count
    ``word`` for ``tenant``: by a ``tenant`` label or by a metric name
    that embeds the tenant id."""
    found = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        sample, _, value = line.rpartition(" ")
        name = sample.partition("{")[0]
        if not name.endswith("_total") or word not in name:
            continue
        if f'tenant="{tenant}"' in sample or f"_{tenant}_" in name:
            found[sample] = float(value)
    return found


def _counter_families(text):
    """``{family: label sets}`` of the exposition's counter samples; an
    unlabelled sample's label set is ``""``."""
    counters = set()
    families = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            if kind == "counter":
                counters.add(family)
        elif line and not line.startswith("#"):
            name, _, labels = line.rpartition(" ")[0].partition("{")
            if name in counters:
                families.setdefault(name, set()).add(labels)
    return families


class TestOneRecordPerFact:
    def test_no_counter_family_holds_a_total_and_a_breakdown(self):
        events = generate_events(tenants=2, events=100, scale=0.002, seed=0)

        async def scenario():
            telemetry = ServiceTelemetry(shards=8)
            engine = DecisionEngine(
                metrics=MetricsRegistry(),
                telemetry=telemetry,
                cache=DecisionCache(),
            )
            server = DecisionServer(engine, ServerConfig())
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for event in events:
                assert (await _ask(reader, writer, event))["ok"]
            server.config.admission_limit = 0
            call = next(event for event in events if event["op"] == "call")
            assert (await _ask(reader, writer, call))["error"] == "overloaded"
            writer.close()
            await writer.wait_closed()
            _, body = await _admin(server, "GET", "/metricsz")
            server.stop()
            await server.serve_until_stopped()
            return body.decode()

        families = _counter_families(_run(scenario()))
        # A Prometheus sum() over a family must count each event once.
        assert [
            family
            for family, labels in sorted(families.items())
            if "" in labels and len(labels) > 1
        ] == []
        for count in ("decisions", "cache_misses", "rejected"):
            assert families[f"service_{count}_total"] == {""}
            breakdown = families[f"service_{count}_by_tenant_total"]
            assert breakdown and "" not in breakdown


    def test_each_per_tenant_count_is_recorded_once(self):
        decisions, rejections = 7, 3

        async def scenario():
            telemetry = ServiceTelemetry(shards=8)
            engine = DecisionEngine(metrics=MetricsRegistry(), telemetry=telemetry)
            server = DecisionServer(engine, ServerConfig())
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            call = {"op": "call", "tenant": "acme", "function": "f"}
            await _ask(reader, writer, dict(PROFILE, tenant="acme"))
            for _ in range(decisions):
                assert (await _ask(reader, writer, call))["op"] == "decision"
            server.config.admission_limit = 0
            for _ in range(rejections):
                assert (await _ask(reader, writer, call))["error"] == "overloaded"
            writer.close()
            await writer.wait_closed()
            _, body = await _admin(server, "GET", "/metricsz")
            _, status = await _admin(server, "GET", "/statusz")
            server.stop()
            await server.serve_until_stopped()
            return body.decode(), json.loads(status)

        text, status = _run(scenario())
        assert list(_tenant_counters(text, "acme", "decision").values()) == [
            decisions
        ]
        assert list(_tenant_counters(text, "acme", "reject").values()) == [
            rejections
        ]
        slo = status["slo"]["acme"]
        assert (slo["decisions"], slo["rejections"]) == (decisions, rejections)
        assert status["summary"]["decisions"] == decisions
        assert status["rejected"] == rejections


class TestTelemetryOffParity:
    def test_server_without_telemetry_still_serves_admin_surface(self):
        async def scenario():
            engine = DecisionEngine()  # no telemetry plane
            server = DecisionServer(engine, ServerConfig())
            await server.start()
            status, body = await _admin(server, "GET", "/healthz")
            assert status == 200
            status, body = await _admin(server, "GET", "/statusz")
            doc = json.loads(body)
            assert doc["telemetry"] == {"enabled": False}
            assert "slo" not in doc
            status, body = await _admin(server, "GET", "/metricsz")
            assert status == 200
            validate_exposition(body.decode())
            status, body = await _admin(server, "GET", "/flightz")
            assert status == 409
            server.stop()
            await server.serve_until_stopped()

        _run(scenario())
