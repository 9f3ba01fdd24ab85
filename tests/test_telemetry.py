"""Unit tests for ``repro.telemetry``: tagged metrics, spans, errors,
Prometheus rendering/validation, and SLO tracking."""

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.telemetry import (
    ServiceMetrics,
    ServiceTelemetry,
    SloTracker,
    metric_key,
    render_prometheus,
    split_metric_key,
    structured_error,
    summarize_error,
    validate_exposition,
)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestMetricKey:
    def test_no_labels_is_identity(self):
        assert metric_key("service.decisions") == "service.decisions"
        assert split_metric_key("service.decisions") == ("service.decisions", {})

    def test_labels_sorted_and_round_trip(self):
        key = metric_key("d", b=1, a="x")
        assert key == "d{a=x,b=1}"
        assert split_metric_key(key) == ("d", {"a": "x", "b": "1"})

    def test_same_logical_series_same_key(self):
        assert metric_key("d", shard=2, tenant="t") == metric_key(
            "d", tenant="t", shard=2
        )

    def test_reserved_characters_rejected(self):
        for bad in ("a{b", "a}b", "a,b", "a=b"):
            with pytest.raises(ValueError, match="reserved"):
                metric_key("d", tenant=bad)

    def test_memoized_keys_keep_equal_values_of_other_types_apart(self):
        # 1, 1.0 and True are equal dict keys but different labels.
        assert [metric_key("d", level=v) for v in (1, 1.0, True)] == [
            "d{level=1}",
            "d{level=1.0}",
            "d{level=True}",
        ]

    def test_malformed_key_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            split_metric_key("d{nolabel}")


class TestStructuredError:
    def _boom(self):
        raise RuntimeError("kaput")

    def test_record_shape(self):
        try:
            self._boom()
        except RuntimeError as exc:
            record = structured_error(exc, "unit-test")
        assert record["where"] == "unit-test"
        assert record["type"] == "RuntimeError"
        assert record["message"] == "kaput"
        assert any("in _boom" in frame for frame in record["traceback"])
        assert len(record["traceback"]) <= 3
        assert summarize_error(record) == "unit-test: RuntimeError: kaput"


class TestServiceMetrics:
    def test_tagged_counter_and_snapshot(self):
        metrics = ServiceMetrics()
        metrics.count("service.decisions", shard=0, tenant="t1")
        metrics.count("service.decisions", shard=0, tenant="t1")
        metrics.count("service.decisions", shard=1, tenant="t2")
        snap = metrics.snapshot()
        assert snap["service.decisions{shard=0,tenant=t1}"] == 2
        assert snap["service.decisions{shard=1,tenant=t2}"] == 1

    def test_span_lifecycle_records_stages(self):
        metrics = ServiceMetrics()
        span = metrics.begin_span("t1.1", "t1", 0.0)
        metrics.mark_admitted(span, 0.010)
        metrics.mark_decided(span, 0.030)
        metrics.finish_span(span, 0.035)
        snap = metrics.snapshot()
        assert snap["service.span.queue_ms"]["count"] == 1
        assert snap["service.span.queue_ms"]["total"] == pytest.approx(10.0)
        assert snap["service.span.decide_ms"]["total"] == pytest.approx(20.0)
        assert snap["service.span.respond_ms"]["total"] == pytest.approx(5.0)
        assert snap["service.span.total_ms{tenant=t1}"]["total"] == pytest.approx(
            35.0
        )

    def test_span_without_decision_skips_decide_stage(self):
        metrics = ServiceMetrics()
        span = metrics.begin_span("t1.1", "t1", 0.0)
        metrics.finish_span(span, 0.010)
        snap = metrics.snapshot()
        assert "service.span.decide_ms" not in snap
        assert snap["service.span.total_ms{tenant=t1}"]["count"] == 1

    def test_count_error(self):
        metrics = ServiceMetrics()
        record = metrics.count_error(ValueError("bad"), "worker")
        assert record["type"] == "ValueError"
        snap = metrics.snapshot()
        assert snap["service.errors{type=ValueError}"] == 1


class TestPromText:
    def test_render_and_validate_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("service.decisions{shard=0,tenant=t1}").inc(4)
        registry.gauge("service.queue_depth").set(7)
        hist = registry.histogram("service.latency_ms")
        for value in range(100):
            hist.record(float(value))
        text = render_prometheus(registry)
        count = validate_exposition(text)
        assert count >= 5
        assert 'service_decisions_total{shard="0",tenant="t1"} 4' in text
        assert "# TYPE service_decisions_total counter" in text
        assert "# TYPE service_latency_ms summary" in text
        assert 'service_latency_ms{quantile="0.99"}' in text
        assert "service_latency_ms_count 100" in text

    def test_multiple_registries_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("service.decisions{tenant=t1}").inc()
        b.counter("service.decisions{tenant=t2}").inc()
        text = render_prometheus(a, b)
        assert text.count("# TYPE service_decisions_total counter") == 1
        assert validate_exposition(text) == 2

    def test_duplicate_sample_across_registries_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("service.decisions").inc()
        b.counter("service.decisions").inc(2)
        with pytest.raises(ValueError, match="duplicate sample"):
            render_prometheus(a, b)

    def test_kind_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("service.depth_total").inc()
        b.gauge("service.depth_total").set(1)
        with pytest.raises(ValueError, match="rendered as both"):
            render_prometheus(a, b)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert validate_exposition("") == 0

    def test_validator_rejects_garbage(self):
        cases = [
            ("no trailing newline", "a_total 1"),
            ("malformed sample", "not a sample!!\n"),
            ("bad value", "a_total xyz\n"),
            ("empty label set", "a_total{} 1\n"),
            (
                "duplicate sample",
                "a_total 1\na_total 2\n",
            ),
            (
                "duplicate TYPE",
                "# TYPE a counter\n# TYPE a counter\na 1\n",
            ),
            (
                "TYPE after samples",
                "a 1\n# TYPE a counter\n",
            ),
            (
                "duplicate label",
                'a{x="1",x="2"} 1\n',
            ),
            (
                "unterminated label value",
                'a{x="1} 1\n',
            ),
        ]
        for name, text in cases:
            with pytest.raises(ValueError):
                validate_exposition(text), name

    def test_validator_accepts_escaped_label_values(self):
        text = 'a_total{msg="he said \\"hi\\", then left"} 1\n'
        assert validate_exposition(text) == 1


class TestSloTracker:
    def test_quantiles_and_rates(self):
        wall = FakeClock(1000.0)
        tracker = SloTracker(window_s=60.0, wall=wall)
        for i in range(100):
            tracker.observe_decision("t1", float(i))
        tracker.observe_rejection("t1")
        snap = tracker.snapshot()["t1"]
        assert snap["decisions"] == 100
        assert snap["rejections"] == 1
        assert snap["rejection_rate"] == pytest.approx(1 / 101)
        assert snap["p50_ms"] is not None
        assert snap["window"]["decisions"] == 100
        assert snap["window"]["p99_ms"] == pytest.approx(98.01)

    def test_window_trims_old_samples(self):
        wall = FakeClock(0.0)
        tracker = SloTracker(window_s=10.0, wall=wall)
        tracker.observe_decision("t1", 5.0)
        wall.advance(100.0)
        tracker.observe_decision("t1", 7.0)
        snap = tracker.snapshot()["t1"]
        # Cumulative view keeps both; the window only sees the recent one.
        assert snap["decisions"] == 2
        assert snap["window"]["decisions"] == 1
        assert snap["window"]["p50_ms"] == pytest.approx(7.0)

    def test_rejection_only_tenant_appears(self):
        tracker = SloTracker(wall=FakeClock())
        tracker.observe_rejection("ghost")
        snap = tracker.snapshot()["ghost"]
        assert snap["decisions"] == 0
        assert snap["rejections"] == 1
        assert snap["rejection_rate"] == 1.0
        assert snap["p50_ms"] is None

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SloTracker(window_s=0.0)


class TestServiceTelemetry:
    def test_plane_is_inert_until_poked(self):
        plane = ServiceTelemetry()
        assert plane.snapshot() == {}
        assert plane.dump_flight("noop") is None  # no flight_dir configured

    def test_note_decision_feeds_metrics_and_flight(self):
        plane = ServiceTelemetry(shards=2)
        event = {"op": "call", "tenant": "t1", "function": "f", "seq": 1}
        record = {
            "tenant": "t1",
            "seq": 1,
            "function": "f",
            "action": "compile",
            "level": 2,
            "attempts": 1,
            "corr": "t1.1",
        }
        plane.note_decision(event, record, shard=1, tally={"compile_fail": 1})
        snap = plane.snapshot()
        assert snap["service.decisions.by_tenant{shard=1,tenant=t1}"] == 1
        assert snap["service.promotions{level=2}"] == 1
        entries = list(plane.flight.entries())
        assert len(entries) == 1
        assert entries[0]["corr"] == "t1.1"
        assert entries[0]["faults"] == {"compile_fail": 1}
        assert entries[0]["shard"] == 1

    def test_note_error_retains_record(self):
        plane = ServiceTelemetry()
        record = plane.note_error(KeyError("missing"), "unit")
        assert record["type"] == "KeyError"
        assert list(plane.errors) == [record]
        assert "wall_ts" in record

    def test_registries_render_as_valid_exposition(self):
        plane = ServiceTelemetry()
        plane.note_latency("t1", 4.0)
        plane.note_rejection("t1")
        plane.note_queue_depth(3)
        text = render_prometheus(plane.metrics.registry)
        assert validate_exposition(text) > 0
        assert 'service_tenant_decide_latency_ms_count{tenant="t1"} 1' in text
        assert 'service_rejected_by_tenant_total{tenant="t1"} 1' in text
