"""Determinism battery: reservoirs, and the telemetry on/off contract.

Two layers of the same promise:

* The :class:`repro.observability.metrics.Histogram` reservoir is
  seeded from its *name*, so the same name fed the same values yields
  the same quantiles in any registry, any process, any order of
  unrelated registrations — which is what makes engine metric snapshots
  comparable across runs at all.
* Attaching a :class:`repro.telemetry.ServiceTelemetry` plane must not
  change a single byte of the decision log, the engine summary, or the
  engine's deterministic metric snapshot — clean or under a nonzero
  fault spec, in-process or over a real socket.
"""

from __future__ import annotations

import json

import pytest

from repro.observability import MetricsRegistry
from repro.observability.metrics import Histogram
from repro.service import (
    DecisionCache,
    DecisionEngine,
    generate_events,
    run_replay,
)
from repro.telemetry import ServiceTelemetry

FAULTS = "compile_fail=0.1,retries=1,seed=3"
TENANTS = 6
EVENTS = 400


@pytest.fixture(scope="module")
def events():
    return generate_events(tenants=TENANTS, events=EVENTS, scale=0.02, seed=0)


# ---------------------------------------------------------------------------
# Reservoir determinism
# ---------------------------------------------------------------------------
class TestReservoirDeterminism:
    VALUES = [float((i * 37) % 101) for i in range(5000)]

    def _summary(self, histogram: Histogram):
        return (
            histogram.count,
            histogram.total,
            histogram.percentile(50.0),
            histogram.percentile(90.0),
            histogram.percentile(99.0),
        )

    def test_same_name_same_values_same_quantiles(self):
        a, b = Histogram("service.latency_ms"), Histogram("service.latency_ms")
        for value in self.VALUES:
            a.record(value)
            b.record(value)
        assert self._summary(a) == self._summary(b)

    def test_registry_independent(self):
        ra, rb = MetricsRegistry(), MetricsRegistry()
        rb.counter("unrelated.noise").inc()  # extra registrations
        rb.histogram("other.first")  # and creation-order changes
        ha = ra.histogram("service.latency_ms")
        hb = rb.histogram("service.latency_ms")
        for value in self.VALUES:
            ha.record(value)
            hb.record(value)
        assert self._summary(ha) == self._summary(hb)

    def test_different_names_sample_differently(self):
        # The CRC-of-name seed means distinct series keep independent
        # reservoirs; with >1024 values the kept subsets should differ.
        a, b = Histogram("series.a"), Histogram("series.b")
        for value in self.VALUES:
            a.record(value)
            b.record(value)
        assert (a.count, a.total) == (b.count, b.total)
        assert sorted(a._samples) != sorted(b._samples)

    def test_snapshot_render_stable_across_repeats(self):
        def build():
            registry = MetricsRegistry()
            histogram = registry.histogram("service.latency_ms")
            for value in self.VALUES:
                histogram.record(value)
            registry.counter("service.decisions").inc(7)
            return registry

        first, second = build(), build()
        assert first.snapshot() == second.snapshot()
        assert first.render() == second.render()


# ---------------------------------------------------------------------------
# Telemetry on/off parity
# ---------------------------------------------------------------------------
def _journal(events, tmp_path, name, mode, faults=None, telemetry=False):
    engine = DecisionEngine(
        faults=faults,
        cache=DecisionCache(),
        metrics=MetricsRegistry(),
        telemetry=ServiceTelemetry(shards=8) if telemetry else None,
    )
    out = tmp_path / name
    report = run_replay(events, engine, decisions_out=out, mode=mode)
    return out.read_bytes(), engine, report


class TestTelemetryOnOffParity:
    @pytest.mark.parametrize("mode", ["inproc", "socket"])
    @pytest.mark.parametrize("faults", [None, FAULTS])
    def test_journal_and_engine_state_bitwise_equal(
        self, events, tmp_path, mode, faults
    ):
        tag = f"{mode}-{'faults' if faults else 'clean'}"
        off_log, off_engine, off_report = _journal(
            events, tmp_path, f"off-{tag}.jsonl", mode, faults, telemetry=False
        )
        on_log, on_engine, on_report = _journal(
            events, tmp_path, f"on-{tag}.jsonl", mode, faults, telemetry=True
        )
        assert on_log == off_log  # the acceptance bar: bitwise identity
        assert on_engine.summary() == off_engine.summary()
        # The engine's own deterministic registry must also be
        # byte-identical: telemetry data lives in separate registries.
        on_snap = {
            k: v
            for k, v in on_engine.metrics.snapshot().items()
            if not k.startswith("service.latency_ms")
            and not k.startswith("service.batch_size")
        }
        off_snap = {
            k: v
            for k, v in off_engine.metrics.snapshot().items()
            if not k.startswith("service.latency_ms")
            and not k.startswith("service.batch_size")
        }
        assert on_snap == off_snap
        assert on_report.decisions == off_report.decisions

    def test_corr_is_stamped_identically(self, events, tmp_path):
        off_log, _, _ = _journal(
            events, tmp_path, "corr-off.jsonl", "inproc", telemetry=False
        )
        records = [
            json.loads(line) for line in off_log.splitlines() if line.strip()
        ]
        assert records, "journal is empty"
        for record in records:
            assert record["corr"] == f"{record['tenant']}.{record['seq']}"

    def test_telemetry_plane_observed_the_run(self, events, tmp_path):
        _, engine, report = _journal(
            events, tmp_path, "observed.jsonl", "inproc", FAULTS, telemetry=True
        )
        telemetry = engine.telemetry
        snap = telemetry.snapshot()
        decisions = sum(
            value
            for key, value in snap.items()
            if key.startswith("service.decisions.by_tenant{")
        )
        assert decisions == engine.decisions
        assert telemetry.flight.recorded == engine.decisions
        assert report.slo  # the report carries the SLO view
        assert set(report.slo) == {
            str(e["tenant"]) for e in events if e["op"] == "call"
        }

    def test_resume_with_telemetry_matches_uninterrupted(
        self, events, tmp_path
    ):
        full_log, _, _ = _journal(
            events, tmp_path, "full.jsonl", "inproc", FAULTS, telemetry=True
        )
        # Journal only the first half, then resume with telemetry on.
        half = events[: len(events) // 2]
        out = tmp_path / "resumed.jsonl"
        engine = DecisionEngine(
            faults=FAULTS, cache=DecisionCache(),
            telemetry=ServiceTelemetry(shards=8),
        )
        run_replay(half, engine, decisions_out=out, mode="inproc")
        engine = DecisionEngine(
            faults=FAULTS, cache=DecisionCache(),
            telemetry=ServiceTelemetry(shards=8),
        )
        run_replay(
            events, engine, decisions_out=out, mode="inproc", resume=True
        )
        assert out.read_bytes() == full_log
