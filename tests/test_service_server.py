"""The asyncio server: protocol surface, backpressure, admission.

Everything runs against a real loopback listener on a kernel-assigned
port; clients are raw stream readers/writers so the tests pin the wire
format, not the driver's conveniences.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.observability import MetricsRegistry
from repro.service import (
    DecisionEngine,
    DecisionServer,
    ServerConfig,
    encode,
    generate_events,
    replay_inproc,
)
from repro.telemetry import ServiceTelemetry

PROFILE = {
    "op": "profile",
    "tenant": "t0",
    "function": "f",
    "compile_times": [1.0, 5.0],
    "exec_times": [10.0, 1.0],
}


def _run(coro):
    return asyncio.run(coro)


async def _start(engine=None, **config_kwargs) -> DecisionServer:
    server = DecisionServer(
        engine or DecisionEngine(), ServerConfig(**config_kwargs)
    )
    await server.start()
    return server


async def _ask(reader, writer, message):
    writer.write(encode(message))
    await writer.drain()
    line = await reader.readline()
    return json.loads(line.decode())


async def _shutdown(server, reader=None, writer=None):
    if writer is not None:
        response = await _ask(reader, writer, {"op": "shutdown"})
        assert response == {"ok": True, "op": "shutdown"}
    else:
        server.stop()
    await server.serve_until_stopped()


def test_ping_stats_shutdown():
    async def scenario():
        server = await _start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        assert await _ask(reader, writer, {"op": "ping"}) == {
            "ok": True,
            "op": "pong",
        }
        await _ask(reader, writer, PROFILE)
        decision = await _ask(
            reader, writer, {"op": "call", "tenant": "t0", "function": "f"}
        )
        assert decision["ok"] and decision["op"] == "decision"
        assert decision["action"] == "compile" and decision["level"] == 0
        stats = await _ask(reader, writer, {"op": "stats"})
        assert stats["summary"]["decisions"] == 1
        assert stats["rejected"] == 0
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_malformed_lines_get_error_responses_not_disconnects():
    async def scenario():
        server = await _start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b"garbage\n")
        await writer.drain()
        response = json.loads((await reader.readline()).decode())
        assert response["ok"] is False and "JSON" in response["error"]
        # connection is still usable afterwards
        assert (await _ask(reader, writer, {"op": "ping"}))["ok"]
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_engine_value_errors_become_error_responses():
    async def scenario():
        server = await _start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        response = await _ask(
            reader,
            writer,
            {"op": "call", "tenant": "t0", "function": "ghost", "seq": 9},
        )
        assert response["ok"] is False
        assert "unregistered function" in response["error"]
        assert response["seq"] == 9
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_admission_control_rejects_above_the_limit():
    async def scenario():
        metrics = MetricsRegistry()
        engine = DecisionEngine(metrics=metrics)
        server = await _start(
            engine, queue_limit=64, admission_limit=2, batch_max=64
        )
        # Freeze the decision worker so the queue genuinely backs up.
        server._worker.cancel()
        try:
            await server._worker
        except asyncio.CancelledError:
            pass
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        for seq in range(5):
            writer.write(
                encode(
                    {
                        "op": "call",
                        "tenant": "t0",
                        "function": "f",
                        "seq": seq,
                    }
                )
            )
        await writer.drain()
        # Queue takes 2; the rest are refused immediately with a
        # retryable error while the accepted ones sit queued.
        rejected = []
        for _ in range(3):
            rejected.append(json.loads((await reader.readline()).decode()))
        for response in rejected:
            assert response["ok"] is False
            assert response["error"] == "overloaded"
            assert response["retry"] is True
        assert server.rejected == 3
        assert metrics.counter("service.rejected").value == 3
        # Thaw the worker; the queued two drain and answer.
        server._worker = asyncio.ensure_future(server._decision_worker())
        answered = []
        for _ in range(2):
            answered.append(json.loads((await reader.readline()).decode()))
        assert [a["seq"] for a in answered] == [0, 1]
        assert all(not a["ok"] for a in answered)  # 'f' never profiled
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_backpressure_bounds_the_queue_without_dropping():
    async def scenario():
        engine = DecisionEngine()
        # admission limit far above the queue bound: the only flow
        # control in play is the blocking put (backpressure).
        server = await _start(
            engine, queue_limit=4, admission_limit=4096, batch_max=2
        )
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        await _ask(reader, writer, PROFILE)
        total = 200

        async def pump():
            for seq in range(total):
                writer.write(
                    encode(
                        {
                            "op": "call",
                            "tenant": "t0",
                            "function": "f",
                            "seq": seq,
                        }
                    )
                )
                await writer.drain()

        async def collect():
            out = []
            for _ in range(total):
                out.append(json.loads((await reader.readline()).decode()))
            return out

        _, responses = await asyncio.gather(pump(), collect())
        # tiny queue, no rejections, nothing dropped, order preserved
        assert server.rejected == 0
        assert [r["seq"] for r in responses] == list(range(total))
        assert all(r["ok"] for r in responses)
        assert engine.decisions == total
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_batching_is_bounded_and_observed():
    async def scenario():
        metrics = MetricsRegistry()
        engine = DecisionEngine(metrics=metrics)
        server = await _start(engine, batch_max=8)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        await _ask(reader, writer, PROFILE)
        for seq in range(50):
            writer.write(
                encode(
                    {
                        "op": "call",
                        "tenant": "t0",
                        "function": "f",
                        "seq": seq,
                    }
                )
            )
        await writer.drain()
        for _ in range(50):
            await reader.readline()
        assert 1 <= server.max_batch_seen <= 8
        snap = metrics.snapshot()
        assert snap["service.batch_size"]["count"] >= 1
        assert snap["service.latency_ms"]["count"] == 51  # profile + calls
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_config_validation():
    with pytest.raises(ValueError, match="batch_max"):
        DecisionServer(DecisionEngine(), ServerConfig(batch_max=0))
    with pytest.raises(ValueError, match="queue_limit"):
        DecisionServer(DecisionEngine(), ServerConfig(queue_limit=0))


# ---------------------------------------------------------------------------
# Batched writes: one write per connection per decision round
# ---------------------------------------------------------------------------


def _answer_line(event, decided):
    """The server's answer to ``event``: ``encode`` of the in-process
    replay's record for a call, the registration echo for a profile."""
    if event["op"] == "call":
        return encode({"ok": True, "op": "decision", **decided[event["seq"]]})
    return encode(
        {
            "ok": True,
            "op": "profile",
            "tenant": event["tenant"],
            "function": event["function"],
        }
    )


@pytest.fixture(scope="module")
def burst():
    """Two connections' payloads and expected answers: 4 tenants, each
    pinned to one connection (so each sees its tenants in stream order),
    over 200 requests a connection."""
    events = generate_events(tenants=4, events=800, scale=0.002, seed=0)
    records, _ = replay_inproc(events, DecisionEngine())
    decided = {record["seq"]: record for record in records}
    tenants = sorted({event["tenant"] for event in events})
    connections = []
    for pinned in (tenants[0::2], tenants[1::2]):
        stream = [event for event in events if event["tenant"] in pinned]
        assert len(stream) >= 200
        payload = b"".join(encode(event) for event in stream)
        connections.append((payload, [_answer_line(e, decided) for e in stream]))
    return connections


async def _send_burst(port, payload, answers):
    """Send ``payload`` in one ``sendall`` and read until ``answers``
    lines came back (or the server closed); then close."""
    loop = asyncio.get_running_loop()
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setblocking(False)
    try:
        await loop.sock_sendall(sock, payload)
        data = b""
        while data.count(b"\n") < answers:
            chunk = await loop.sock_recv(sock, 65536)
            if not chunk:
                break
            data += chunk
    finally:
        sock.close()
    return data.splitlines(keepends=True)


def test_pipelined_bursts_get_ordered_answers_in_few_writes(burst, monkeypatch):
    # Each server-side write, as the number of lines it sent (the
    # clients write through raw sockets).
    writes = []
    real_write = asyncio.StreamWriter.write

    def counting_write(self, data):
        writes.append(data.count(b"\n"))
        return real_write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
    metrics = MetricsRegistry()
    telemetry = ServiceTelemetry()
    engine = DecisionEngine(metrics=metrics, telemetry=telemetry)
    requests = sum(len(expected) for _, expected in burst)

    async def scenario():
        server = await _start(engine)
        try:
            return await asyncio.wait_for(
                asyncio.gather(
                    *(
                        _send_burst(server.port, payload, len(expected))
                        for payload, expected in burst
                    )
                ),
                timeout=60.0,
            )
        finally:
            await _shutdown(server)

    received = _run(scenario())
    for lines, (_, expected) in zip(received, burst):
        assert lines == expected
    # One write per connection per round, never one per response.
    assert sum(writes) == requests
    assert len(writes) < requests
    assert len(writes) <= 2 * metrics.histogram("service.batch_size").count
    # Every request's span is closed at its round's write.
    respond = telemetry.metrics.snapshot()["service.span.respond_ms"]
    assert respond["count"] == engine.events == requests


def test_connection_closed_mid_burst_does_not_stop_the_other(burst):
    (payload, expected), (dropped_payload, dropped_expected) = burst

    async def scenario():
        # A queue of one round's size makes the worker wait for input
        # between rounds, so the clients run while answers are pending.
        server = await _start(
            DecisionEngine(telemetry=ServiceTelemetry()), queue_limit=64
        )
        try:
            # The second connection hangs up after its first answers,
            # with the rest of its burst still to be answered.
            kept, dropped = await asyncio.wait_for(
                asyncio.gather(
                    _send_burst(server.port, payload, len(expected)),
                    _send_burst(server.port, dropped_payload, 1),
                ),
                timeout=60.0,
            )
        finally:
            await _shutdown(server)
        return kept, dropped

    kept, dropped = _run(scenario())
    assert 0 < len(dropped) < len(dropped_expected)
    assert kept == expected
