"""The serve workloads: ``repro serve run`` over loopback.

``serve-mixed`` replays the ``repro.service.generate_events`` stream
against the default server (telemetry and decision cache on, 8 shards, no
faults): 8 tenants, each a different DaCapo program with its own seed.
``serve-fleet`` runs the same server with ``--faults
compile_fail=0.1,seed=3`` and a stream in which all 8 tenants replay
one ``pmd`` trace, like a fleet of identical VMs; ``--seed`` sets how
the tenants interleave.

A run replays one stream of ``calls`` calls (``SATURATION_CALLS`` by
default) in two phases, each on a fresh server:

1. open loop at ``RATE`` requests/s over the stream's first ``RATE *
   --seconds`` requests, each decision timed from when it was due
   (``p50_ms``, ``p99_ms``, and the generator's own lag);
2. closed-loop saturation over the whole stream, ``SATURATION_RUNS``
   times, which gives ``decisions_per_s`` and the server's CPU per
   request.

The stream is longer than the open-loop prefix because ``pmd`` warms up
slowly: its first 2,000 calls touch 4 functions, so only a stream well
past them exercises the decision cache and the fault chain.

Set-up times and the saturation phases are reported at the reference
speed of the host samples taken on the server's CPU meanwhile
(``speed.py``).
"""

from __future__ import annotations

import json
import re
import statistics
from typing import Dict, List, Optional

from checks import check_serve, digest_key, expected_digests
from client import PhaseResult, Stream, closed_loop, fleet_events, open_loop, request, scrape
from proc import OUT_DIR, PROGRAM_CPUS, Child, HostSteal
from result import Result, percentile
from speed import Sampler

HOST = "127.0.0.1"
TENANTS = 8
SCALE = 0.01
# Open-loop rate: about a sixth of the server's saturated throughput.
RATE = 2000.0
# Requests in flight per connection in the saturation phase: several of
# the server's 64-request batches, so its worker never waits for input.
WINDOW = 256
SATURATION_RUNS = 3
# Calls in the stream (4,000 per tenant): the saturation phases replay
# all of it, the open loop a prefix.
SATURATION_CALLS = 32_000
# Servers started only to time their set-up, on top of the run's four.
SETUP_ONLY = 2
# ``repro serve replay`` streams default to seed 0.
DEFAULT_SEED = 0
# The fleet's trace: ``pmd`` generated with the default seed, whatever
# ``--seed`` says (which then only interleaves the tenants).  The first
# 4,000 calls of a ``pmd`` trace touch 7 to 16 functions, so the trace's
# seed decides what the fleet exercises: on this one, 11,176 cache
# lookups and 11,120 injected compile failures; on others (seed 101),
# 64 lookups and 16 failures, or (seed 404) an engine 3.3 times as
# costly per call.  A fleet that changed trace with ``--seed`` would
# measure a different workload on every seed.
FLEET_TRACE_SEED = DEFAULT_SEED
# Open-loop phase length when ``--seconds`` is not given (the value in
# BENCHMARK.json).
DEFAULT_SECONDS = 5
# The generator has fallen behind, and the open-loop phase is invalid,
# when its 99th-percentile send lag exceeds this; the phase then runs
# again on a fresh server.  On a 2-vCPU VM a bare select() loop already
# shows 4-6 ms p99 lag from vCPU preemption, and more while neighbours
# are busy, so the limit sits well above that jitter and well below the
# backlog of a generator that cannot keep up.
LAG_LIMIT_MS = 25.0
OPEN_LOOP_ATTEMPTS = 3

FAULTS = {"serve-mixed": None, "serve-fleet": "compile_fail=0.1,seed=3"}


def events_for(workload: str, seed: int, calls: int) -> List[Dict[str, object]]:
    if workload == "serve-mixed":
        from repro.service import generate_events

        return generate_events(tenants=TENANTS, events=calls, scale=SCALE, seed=seed)
    return fleet_events(TENANTS, calls, SCALE, seed, FLEET_TRACE_SEED)


class Server:
    """One ``repro serve run`` process, ready once it answered a ping."""

    def __init__(self, workload: str, trace_dir: Optional[str] = None) -> None:
        args = ["--trace", trace_dir] if trace_dir else []
        args += ["--", "serve", "run", "--port", "0"]
        if FAULTS[workload]:
            args += ["--faults", FAULTS[workload]]
        self.child = Child("serve_launcher.py", args)
        try:
            line = self.child.expect("repro serve: listening on")
            self.port = int(re.search(r":(\d+) ", line).group(1))
            if request(HOST, self.port, {"op": "ping"}).get("op") != "pong":
                raise RuntimeError("server did not answer ping")
        except BaseException:
            self.child.kill()
            raise
        self.setup_s = self.child.elapsed()

    @property
    def setup_window(self):
        return self.child.started, self.child.started + self.setup_s

    def stop(self) -> None:
        try:
            self.peak_rss_mb = self.child.peak_rss_mb()
            request(HOST, self.port, {"op": "shutdown"})
            code = self.child.wait(timeout=30.0)
            if code != 0:
                raise RuntimeError(f"server exited with code {code}")
        finally:
            self.child.kill()


def _metricsz(port: int) -> Dict[str, float]:
    """Batch size and server-side latency quantiles from ``/metricsz``."""
    values = {}
    for line in scrape(HOST, port).splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    count = values.get("service_batch_size_count", 0.0)
    return {
        "batch_mean": values.get("service_batch_size_sum", 0.0) / count if count else 0.0,
        "latency_p50": values.get('service_latency_ms{quantile="0.5"}', 0.0),
        "latency_p99": values.get('service_latency_ms{quantile="0.99"}', 0.0),
    }


def _open_loop(workload: str, stream: Stream, result: Result):
    for attempt in range(1, OPEN_LOOP_ATTEMPTS + 1):
        server = Server(workload)
        try:
            phase = open_loop(HOST, server.port, stream, RATE)
            scraped = _metricsz(server.port)
        finally:
            server.stop()
        lag_p99_ms = percentile(sorted(phase.lags_s), 99) * 1e3
        if lag_p99_ms <= LAG_LIMIT_MS:
            return server, phase, scraped
        result.note(
            f"open-loop attempt {attempt} invalid: generator lag p99 "
            f"{lag_p99_ms:.2f} ms > {LAG_LIMIT_MS} ms"
        )
    result.problem("open-loop generator ran late on every attempt: the run is invalid")
    return server, phase, scraped


def _saturate(workload: str, stream: Stream, trace_dir: Optional[str] = None, inspect=False):
    """One saturation phase; with ``inspect``, also the server's stats
    and ``/metricsz`` once the phase is over."""
    server = Server(workload, trace_dir)
    stats = scraped = None
    try:
        cpu0 = server.child.cpu_s()
        phase = closed_loop(HOST, server.port, stream, WINDOW)
        cpu_s = server.child.cpu_s() - cpu0
        if inspect:
            stats = request(HOST, server.port, {"op": "stats"})["summary"]
            scraped = _metricsz(server.port)
    finally:
        server.stop()
    return server, phase, cpu_s, stats, scraped


def run(
    workload: str, seed: int, seconds: int, trace: bool, calls: int = SATURATION_CALLS
) -> Result:
    OUT_DIR.mkdir(exist_ok=True)
    result = Result(workload, seed)
    events = events_for(workload, seed, calls)
    stream = Stream(events)
    opening = Stream(events[: int(RATE * seconds)])
    n = len(stream)
    host = HostSteal()

    with Sampler(OUT_DIR / f"{workload}-{seed}-speed.bin", PROGRAM_CPUS) as speed:
        open_server, opened, scraped_open = _open_loop(workload, opening, result)
        servers, phases = [open_server], {"open-loop": opened}
        saturated = []
        for i in range(1 if trace else SATURATION_RUNS):
            server, phase, cpu_s, _, scraped = _saturate(workload, stream, inspect=i == 0)
            slowdown = speed.slowdown(phase.start, phase.start + phase.wall_s)
            servers.append(server)
            phases[f"saturation-{i + 1}"] = phase
            saturated.append((phase, cpu_s, scraped, slowdown))
        setup_only = []
        for _ in range(0 if trace else SETUP_ONLY):
            server = Server(workload)
            server.stop()
            setup_only.append(server)
        setups = [s.setup_s / speed.slowdown(*s.setup_window) for s in servers + setup_only]
        if trace:
            _traced(workload, stream, result, phases, saturated[0], speed)
        samples = speed.samples()
    result.note(f"host speed sampled {samples} times ({speed.mode} priority)")

    key = digest_key(workload, seed, calls)
    want = expected_digests().get(key) if seed == DEFAULT_SEED else None
    if want is None:
        result.note(f"no expected decision-log digest for {key}: invariant checks only")
    else:
        result.note(f"decision log compared with the expected digest for {key}")
    for problem in check_serve(_logs(phases), stream.expected_call, want):
        result.problem(problem)

    result.attempted += sum(p.sent for p in phases.values())
    result.failed += sum(p.failed for p in phases.values())
    latencies_ms = sorted(s * 1e3 for s in opened.latencies_s)
    rates = [len(p.records) / p.wall_s * slow for p, _, _, slow in saturated]
    cpus = [cpu / n * 1e6 / slow for _, cpu, _, slow in saturated]
    rss = [s.peak_rss_mb for s in servers]
    result.put("setup_s", statistics.median(setups), "s", samples=setups)
    result.put("run_s", opened.wall_s, "s", note="open-loop phase")
    result.put("peak_rss_mb", statistics.median(rss), "MB", samples=rss)
    measured = " ".join(f"{len(p.records) / p.wall_s:.4g}" for p, _, _, _ in saturated)
    result.put("decisions_per_s", statistics.median(rates), "1/s", samples=rates,
               note=f"measured {measured}")
    measured = " ".join(f"{cpu / n * 1e6:.4g}" for _, cpu, _, _ in saturated)
    result.put("cpu_us_per_request", statistics.median(cpus), "us", samples=cpus,
               note=f"measured {measured}")
    result.put("p50_ms", percentile(latencies_ms, 50), "ms", samples=len(latencies_ms))
    result.put("p99_ms", percentile(latencies_ms, 99), "ms", samples=len(latencies_ms))
    lags_ms = sorted(s * 1e3 for s in opened.lags_s)
    result.put("client.lag_p99_ms", percentile(lags_ms, 99), "ms", samples=len(lags_ms))
    result.put("client.lag_max_ms", lags_ms[-1], "ms")
    result.put("client.cpu_s", opened.client_cpu_s, "s")
    result.put("failed_frac", result.failed / result.attempted, "ratio")
    result.put("host.steal_frac", host.frac(), "ratio")
    slowdowns = [slow for _, _, _, slow in saturated]
    result.put("host.slowdown", statistics.median(slowdowns), "ratio", samples=slowdowns)
    result.put("service.batch_size.mean", scraped_open["batch_mean"], "count")
    result.put("service.batch_size.saturated_mean", saturated[0][2]["batch_mean"], "count")
    result.put("service.server_latency_ms.p50", scraped_open["latency_p50"], "ms")
    result.put("service.server_latency_ms.p99", scraped_open["latency_p99"], "ms")
    return result


def _logs(phases: Dict[str, PhaseResult]):
    return {name: (p.sent, p.records) for name, p in phases.items()}


def _traced(workload, stream, result, phases, plain, speed: Sampler) -> None:
    trace_dir = OUT_DIR / f"{workload}-{result.seed}-spans"
    trace_dir.mkdir(exist_ok=True)
    _, phase, cpu_s, stats, _ = _saturate(workload, stream, str(trace_dir), inspect=True)
    slowdown = speed.slowdown(phase.start, phase.start + phase.wall_s)
    logs = _logs(phases)
    logs["traced saturation"] = (phase.sent, phase.records)
    for problem in check_serve(logs, stream.expected_call, None):
        result.problem(problem)
    result.attempted += phase.sent
    result.failed += phase.failed
    n = len(stream)
    doc = json.loads((trace_dir / "summary.json").read_text(encoding="utf-8"))
    spans, counts = doc["spans"], doc["counts"]

    def busy(name: str) -> float:
        return spans.get(name, {}).get("busy_s", 0.0)

    engine_self = spans.get("service.engine", {}).get("self_s", 0.0)
    result.put("service.engine.self_us_per_request", engine_self / n * 1e6, "us")
    result.put("service.engine.promotion_s", busy("service.engine.promotion"), "s")
    result.put("service.codec.decode_s", busy("service.codec.decode"), "s")
    result.put("service.codec.encode_s", busy("service.codec.encode"), "s")
    transport_self = max(0.0, cpu_s - doc["top_level_s"])
    result.put("service.transport.self_s", transport_self, "s")
    lookups = counts.get("service.cache.lookups", 0)
    hits = counts.get("service.cache.hits", 0)
    result.put("service.cache.lookups", lookups, "count")
    result.put("service.cache.hits", hits, "count")
    result.put("service.cache.hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    result.put("service.cache.key_s", busy("service.cache.key"), "s")
    telemetry = {
        "spans": busy("telemetry.spans"),
        "note_decision": busy("telemetry.note_decision"),
        "note_latency": busy("telemetry.note_latency"),
        "note_cache": busy("telemetry.note_cache"),
    }
    for name, seconds in telemetry.items():
        result.put(f"telemetry.{name}_s", seconds, "s")
    result.put("telemetry.us_per_request", sum(telemetry.values()) / n * 1e6, "us")
    result.put("faults.injector.busy_s", busy("faults.injector"), "s")
    result.put("faults.injector.draws", counts.get("faults.injector.draws", 0), "count")
    tally = stats.get("faults", {})
    for key in ("compile_failures", "retries", "fallbacks", "forced_installs"):
        result.put(f"faults.{key}", tally.get(key, 0), "count")
    result.layer_shares(spans, cpu_s, extra={"service": transport_self})
    _, plain_cpu_s, _, plain_slowdown = plain
    result.put(
        "trace.overhead_frac", (cpu_s / slowdown) / (plain_cpu_s / plain_slowdown) - 1.0, "ratio"
    )
