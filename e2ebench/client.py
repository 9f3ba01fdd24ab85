"""Load generator for the serve workloads: one thread, two connections.

Each tenant is pinned to one connection, so the server, which answers a
connection in order, sees every tenant's events in stream order, and the
decision log cannot depend on how the two connections interleave.

* :func:`open_loop` sends request ``k`` at ``start + k / rate`` whether or
  not earlier ones were answered, and times each decision from when it was
  *due*, so a stall also charges the requests queued behind it.  How late
  the generator itself sent (its lag) is recorded per request.
* :func:`closed_loop` keeps ``window`` requests in flight per connection,
  enough that the server's batched worker never idles.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

CONNECTIONS = 2
RECORD_KEYS = ("tenant", "seq", "function", "call", "action", "level", "attempts", "corr")
# Give up on a phase when the server stays silent this long.
SILENCE_S = 10.0


def _line(message: Dict[str, object]) -> bytes:
    return json.dumps(message, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def fleet_events(
    tenants: int, events: int, scale: float, seed: int, trace_seed: int, benchmark: str = "pmd"
) -> List[Dict[str, object]]:
    """A fleet of identical VMs: every tenant replays the same trace.

    The stream has the shape of ``repro.service.generate_events`` (each
    tenant replays its trace from the first call, sends a function's
    profile just before its first call, and makes ``ceil(events /
    tenants)`` calls; an rng seeded with ``seed`` interleaves the tenants
    by remaining length), but every tenant runs ``benchmark`` generated
    with ``trace_seed``.
    """
    from repro.workloads import dacapo

    instance = dacapo.load(benchmark, scale=scale, seed=trace_seed)
    per_tenant = -(-events // tenants)
    calls = instance.calls
    streams = []
    for i in range(tenants):
        tenant = f"t{i:03d}-{benchmark}"
        stream, introduced = [], set()
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
            stream.append({"op": "call", "tenant": tenant, "function": fname})
        streams.append(stream)
    rng = random.Random(seed)
    cursors = [0] * tenants
    remaining = [len(s) for s in streams]
    out = []
    for seq in range(sum(remaining)):
        pick = rng.randrange(sum(remaining))
        for i in range(tenants):
            if pick < remaining[i]:
                break
            pick -= remaining[i]
        event = dict(streams[i][cursors[i]])
        event["seq"] = seq
        out.append(event)
        cursors[i] += 1
        remaining[i] -= 1
    return out


class Stream:
    """A request stream ready to send, with what the client expects back."""

    def __init__(self, events: List[Dict[str, object]]) -> None:
        tenants = sorted({str(e["tenant"]) for e in events})
        conn_of = {t: i % CONNECTIONS for i, t in enumerate(tenants)}
        self.payloads = [_line(e) for e in events]
        self.conn = [conn_of[str(e["tenant"])] for e in events]
        # The client's own count of calls per (tenant, function), at
        # each call's seq: what the decision's ``call`` field must say.
        self.expected_call: Dict[int, int] = {}
        seen: Dict[tuple, int] = {}
        for e in events:
            if e["op"] == "call":
                key = (e["tenant"], e["function"])
                seen[key] = seen.get(key, 0) + 1
                self.expected_call[int(e["seq"])] = seen[key]

    def __len__(self) -> int:
        return len(self.payloads)


@dataclass
class PhaseResult:
    records: List[Dict[str, object]] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    lags_s: List[float] = field(default_factory=list)
    sent: int = 0
    refused: int = 0
    errored: int = 0
    unanswered: int = 0
    start: float = 0.0  # time.perf_counter() when the phase began
    wall_s: float = 0.0
    client_cpu_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.refused + self.errored + self.unanswered


class _Connections:
    """The client's sockets plus per-connection in-order bookkeeping."""

    def __init__(self, host: str, port: int) -> None:
        self.socks = []
        # select(2) takes a microsecond timeout; epoll and poll round up
        # to whole milliseconds, which would show up as generator lag.
        self.selector = selectors.SelectSelector()
        try:
            for c in range(CONNECTIONS):
                sock = socket.create_connection((host, port), timeout=SILENCE_S)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.socks.append(sock)
                self.selector.register(sock, selectors.EVENT_READ, c)
        except OSError:
            self.close()
            raise
        self.pending = [deque() for _ in range(CONNECTIONS)]
        self.partial = [b""] * CONNECTIONS

    def send(self, c: int, indices: List[int], payloads: List[bytes]) -> None:
        self.pending[c].extend(indices)
        self.socks[c].sendall(b"".join(payloads[i] for i in indices))

    def receive(self, timeout: float):
        """``(arrival time, request index, response line)`` triples."""
        out = []
        for key, _ in self.selector.select(timeout):
            c = key.data
            data = self.socks[c].recv(1 << 16)
            now = time.perf_counter()
            if not data:
                raise ConnectionError("server closed the connection")
            lines = (self.partial[c] + data).split(b"\n")
            self.partial[c] = lines.pop()
            for line in lines:
                out.append((now, self.pending[c].popleft(), line))
        return out

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()


@contextlib.contextmanager
def _quiet_gc():
    """No cyclic-GC pass during a phase: a full pass over the stream's
    objects stalls the generator for milliseconds.  The loops make no
    reference cycles, so nothing accumulates meanwhile."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _take(result: PhaseResult, answers) -> None:
    """Parse ``(latency, response line)`` pairs once the phase is over,
    so the client spends as little CPU as it can while measuring."""
    for latency_s, line in answers:
        response = json.loads(line)
        if not response.get("ok"):
            if response.get("retry"):
                result.refused += 1
            else:
                result.errored += 1
        elif response.get("op") == "decision":
            result.records.append({key: response[key] for key in RECORD_KEYS})
            result.latencies_s.append(latency_s)


def open_loop(host: str, port: int, stream: Stream, rate: float) -> PhaseResult:
    """Send at a fixed ``rate``; time decisions from when they were due."""
    result = PhaseResult(sent=len(stream))
    n, interval = len(stream), 1.0 / rate
    sent = answered = 0
    answers = []
    conns = _Connections(host, port)
    with _quiet_gc():
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            while answered < n:
                now = time.perf_counter()
                batch = [[] for _ in range(CONNECTIONS)]
                while sent < n and start + sent * interval <= now:
                    batch[stream.conn[sent]].append(sent)
                    result.lags_s.append(now - (start + sent * interval))
                    sent += 1
                for c, indices in enumerate(batch):
                    if indices:
                        conns.send(c, indices, stream.payloads)
                wait = SILENCE_S
                if sent < n:
                    wait = max(0.0, start + sent * interval - time.perf_counter())
                arrived = conns.receive(wait)
                if not arrived and sent == n:
                    break  # the server went silent
                for at, index, line in arrived:
                    answers.append((at - (start + index * interval), line))
                answered += len(arrived)
        finally:
            conns.close()
        result.start = start
        result.wall_s = time.perf_counter() - start
        result.client_cpu_s = time.thread_time() - cpu0
    _take(result, answers)
    result.unanswered = n - answered
    return result


def closed_loop(host: str, port: int, stream: Stream, window: int) -> PhaseResult:
    """Keep ``window`` requests in flight per connection until all are answered.

    The client does as little as it can per request while the phase
    runs: it counts the newlines it receives and sends the next payloads
    in blocks of ``window // 4``, and splits the answers into lines only
    afterwards.  So the server, not the client, sets the pace.
    """
    result = PhaseResult(sent=len(stream))
    n = len(stream)
    order = [[i for i in range(n) if stream.conn[i] == c] for c in range(CONNECTIONS)]
    block = max(1, window // 4)
    cursor = [0] * CONNECTIONS
    in_flight = [0] * CONNECTIONS
    received = [[] for _ in range(CONNECTIONS)]
    answered = 0
    conns = _Connections(host, port)

    def refill(c: int) -> None:
        take = min(window - in_flight[c], len(order[c]) - cursor[c])
        if take > 0:
            indices = order[c][cursor[c]:cursor[c] + take]
            conns.socks[c].sendall(b"".join(stream.payloads[i] for i in indices))
            cursor[c] += take
            in_flight[c] += take

    with _quiet_gc():
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            for c in range(CONNECTIONS):
                refill(c)
            while answered < n:
                ready = conns.selector.select(SILENCE_S)
                if not ready:
                    break  # the server went silent
                for key, _ in ready:
                    c = key.data
                    data = conns.socks[c].recv(1 << 18)
                    if not data:
                        raise ConnectionError("server closed the connection")
                    received[c].append(data)
                    count = data.count(b"\n")
                    in_flight[c] -= count
                    answered += count
                    if window - in_flight[c] >= block:
                        refill(c)
        finally:
            conns.close()
        result.start = start
        result.wall_s = time.perf_counter() - start
        result.client_cpu_s = time.thread_time() - cpu0
    answers = []
    for c in range(CONNECTIONS):
        lines = b"".join(received[c]).split(b"\n")[:-1]
        answers.extend((0.0, line) for line in lines)
    _take(result, answers)
    result.unanswered = n - answered
    return result


def request(host: str, port: int, message: Dict[str, object]) -> Dict[str, object]:
    """One request on a fresh connection (ping, stats, shutdown)."""
    with socket.create_connection((host, port), timeout=SILENCE_S) as sock:
        sock.sendall(_line(message))
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    return json.loads(data)


def scrape(host: str, port: int, path: str = "/metricsz") -> str:
    """GET an admin-plane page served on the JSONL port."""
    with socket.create_connection((host, port), timeout=SILENCE_S) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0] + b" ":
        raise RuntimeError(f"GET {path} failed: {head[:80]!r}")
    return body.decode("utf-8")
