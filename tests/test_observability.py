"""Unit tests for the observability layer (tracer, metrics, export)."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.observability import (
    MetricsRegistry,
    TraceError,
    Tracer,
    TraceValidationError,
    iter_jsonl,
    to_chrome_trace,
    trace_makespan_result,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


class TestTracer:
    def test_span_records_event(self):
        tracer = Tracer()
        tracer.span("work", "t0", 1.0, 3.0, args={"x": 1})
        (event,) = tracer.events
        assert event.kind == "span"
        assert event.name == "work"
        assert event.track == "t0"
        assert event.duration == 2.0
        assert event.args == {"x": 1}

    def test_span_rejects_negative_duration(self):
        with pytest.raises(TraceError, match="end"):
            Tracer().span("bad", "t0", 5.0, 4.0)

    def test_begin_end_pairs(self):
        tracer = Tracer()
        tracer.begin("outer", "t0", 0.0)
        tracer.begin("inner", "t0", 1.0)
        tracer.end("t0", 2.0)
        tracer.end("t0", 3.0)
        spans = [e for e in tracer.events if e.kind == "span"]
        assert [(s.name, s.start, s.end) for s in spans] == [
            ("inner", 1.0, 2.0),
            ("outer", 0.0, 3.0),
        ]
        tracer.assert_closed()

    def test_end_without_begin_raises(self):
        with pytest.raises(TraceError):
            Tracer().end("t0", 1.0)

    def test_assert_closed_reports_open_spans(self):
        tracer = Tracer()
        tracer.begin("leak", "t0", 0.0)
        assert tracer.open_spans() == 1
        with pytest.raises(TraceError, match="t0"):
            tracer.assert_closed()

    def test_instant_and_counter(self):
        tracer = Tracer()
        tracer.instant("tick", "s", 2.5)
        tracer.counter("total", "c", 3.0, 7.0)
        instant, counter = tracer.events
        assert instant.kind == "instant"
        assert instant.start == instant.end == 2.5
        assert counter.kind == "counter"
        assert counter.value == 7.0

    def test_len_and_clear(self):
        tracer = Tracer()
        tracer.instant("a", "t", 0.0)
        assert len(tracer) == 1
        tracer.clear()
        assert len(tracer) == 0

    def test_scope_prefixes_tracks(self):
        tracer = Tracer()
        scope = tracer.scope("iar")
        scope.span("work", "execute", 0.0, 1.0)
        (event,) = tracer.events
        assert event.track == "iar/execute"

    def test_nested_scope(self):
        tracer = Tracer()
        inner = tracer.scope("run").scope("iar")
        inner.instant("x", "t", 0.0)
        assert tracer.events[0].track == "run-iar/t"

    def test_scope_rejects_bad_process(self):
        tracer = Tracer()
        with pytest.raises(TraceError):
            tracer.scope("")
        with pytest.raises(TraceError):
            tracer.scope("a/b")


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(4)
        assert reg.snapshot()["hits"] == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3.5)
        reg.gauge("depth").set(2.0)
        assert reg.snapshot()["depth"] == 2.0

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("gain")
        for v in (1.0, 3.0, 2.0):
            h.record(v)
        snap = reg.snapshot()["gain"]
        assert snap["count"] == 3
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ValueError, match="n"):
            reg.gauge("n")

    def test_contains_and_len(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        assert "a" in reg and "b" in reg and "c" not in reg
        assert len(reg) == 2

    def test_render_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc(2)
        reg.histogram("gain").record(1.5)
        text = reg.render()
        assert "steps" in text
        assert "gain" in text


class TestHistogramPercentiles:
    def test_exact_below_reservoir_size(self):
        h = MetricsRegistry().histogram("lat")
        for v in range(1, 101):  # 1..100
            h.record(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_snapshot_includes_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.record(v)
        snap = reg.snapshot()["lat"]
        assert snap["p50"] == pytest.approx(2.5)
        assert snap["p90"] == pytest.approx(3.7)
        assert snap["p99"] == pytest.approx(3.97)

    def test_empty_histogram_has_none_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("lat")
        snap = reg.snapshot()["lat"]
        assert snap["p50"] is None and snap["p99"] is None
        assert reg.histogram("lat").percentile(50) is None

    def test_percentile_range_validated(self):
        h = MetricsRegistry().histogram("lat")
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_reservoir_estimates_are_deterministic(self):
        # Beyond the reservoir the quantiles are sampled — but the RNG
        # seeds from the name, so two identical streams agree exactly.
        def run():
            h = MetricsRegistry().histogram("lat")
            for v in range(5000):
                h.record(float(v))
            return h.percentile(50), h.percentile(90), h.percentile(99)

        a, b = run(), run()
        assert a == b
        # And the estimate lands near the true quantile.
        assert a[0] == pytest.approx(2500, rel=0.15)
        assert a[2] == pytest.approx(4950, rel=0.15)

    def test_reservoir_memory_is_bounded(self):
        from repro.observability.metrics import _RESERVOIR_SIZE

        h = MetricsRegistry().histogram("lat")
        for v in range(3 * _RESERVOIR_SIZE):
            h.record(float(v))
        assert len(h._samples) == _RESERVOIR_SIZE
        assert h.count == 3 * _RESERVOIR_SIZE


def _histogram_body(ordered, q):
    """``Histogram.percentile``'s interpolation before it became the one rule."""
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _slo_window_body(values, q):
    """The SLO tracker's former ``_window_percentile``."""
    if not values:
        return None
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _harness_body(ordered, q):
    """The benchmark harness's former ``_quantile`` (``q`` in [0, 1])."""
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


_SAMPLES = st.lists(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(samples=_SAMPLES, q=st.floats(min_value=0.0, max_value=100.0))
def test_one_percentile_rule_is_each_old_body(samples, q):
    from repro.observability.metrics import _percentile

    ordered = sorted(samples)
    value = _percentile(ordered, q)
    assert value == _histogram_body(ordered, q)
    assert value == _slo_window_body(samples, q)
    for quantile in (0.25, 0.5, 0.75):  # the harness's quartiles
        assert _percentile(ordered, 100 * quantile) == _harness_body(
            ordered, quantile
        )


class TestChromeExport:
    def _small_trace(self):
        tracer = Tracer()
        tracer.span("compile f L1", "compiler-0", 0.0, 10.0, category="compile")
        tracer.span("f", "execute", 10.0, 12.0, category="call")
        tracer.instant("sample f", "sampler", 11.0)
        tracer.counter("bubble_total", "bubbles", 10.0, 10.0)
        return tracer

    def test_roundtrip_is_valid(self):
        data = to_chrome_trace(self._small_trace())
        assert validate_chrome_trace(data) == 4
        # Serializable and stable under a JSON round trip.
        assert validate_chrome_trace(json.dumps(data)) == 4

    def test_metadata_names_tracks(self):
        data = to_chrome_trace(self._small_trace())
        names = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"compiler-0", "execute", "sampler", "bubbles"} <= names

    def test_scoped_tracks_become_processes(self):
        tracer = Tracer()
        tracer.scope("iar").span("a", "execute", 0.0, 1.0)
        tracer.scope("jikes").span("b", "execute", 0.0, 1.0)
        data = to_chrome_trace(tracer)
        procs = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs == {"iar", "jikes"}
        pids = {e["pid"] for e in data["traceEvents"]}
        assert len(pids) == 2

    def test_open_span_blocks_export(self):
        tracer = Tracer()
        tracer.begin("leak", "t", 0.0)
        with pytest.raises(TraceError):
            to_chrome_trace(tracer)

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "out.trace.json"
        count = write_chrome_trace(self._small_trace(), str(path))
        assert count == 4
        assert validate_chrome_trace(path.read_text()) == 4

    def test_write_and_iter_jsonl(self, tmp_path):
        tracer = self._small_trace()
        path = tmp_path / "out.jsonl"
        count = write_jsonl(tracer, str(path))
        assert count == 4
        lines = path.read_text().splitlines()
        assert lines == list(iter_jsonl(tracer))
        rows = [json.loads(line) for line in lines]
        assert rows[0]["kind"] == "span"
        assert rows[-1]["value"] == 10.0

    def test_validator_rejects_overlap(self):
        events = [
            {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0.0, "dur": 5.0},
            {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 3.0, "dur": 1.0},
        ]
        with pytest.raises(TraceValidationError, match="overlap"):
            validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_non_monotone(self):
        events = [
            {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 5.0, "s": "t"},
            {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 3.0, "s": "t"},
        ]
        with pytest.raises(TraceValidationError):
            validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_nonfinite_ts(self):
        events = [
            {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": math.inf, "s": "t"}
        ]
        with pytest.raises(TraceValidationError):
            validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_non_list(self):
        with pytest.raises(TraceValidationError):
            validate_chrome_trace({"traceEvents": "nope"})


class TestInstrument:
    def test_trace_makespan_result_requires_timeline(self):
        from repro.core import Schedule, simulate
        from repro.core.model import FunctionProfile, OCSPInstance

        profiles = {"f": FunctionProfile("f", (1.0, 4.0), (3.0, 1.0))}
        inst = OCSPInstance(profiles, ("f", "f"), name="tiny")
        result = simulate(inst, Schedule.of(("f", 0)))
        with pytest.raises(TraceError):
            trace_makespan_result(Tracer(), result)

    def test_trace_makespan_result_emits_tracks(self):
        from repro.core import Schedule, simulate
        from repro.core.model import FunctionProfile, OCSPInstance

        profiles = {
            "f": FunctionProfile("f", (1.0, 4.0), (3.0, 1.0)),
            "g": FunctionProfile("g", (1.0,), (2.0,)),
        }
        inst = OCSPInstance(profiles, ("f", "g", "f"), name="tiny")
        sched = Schedule.of(("f", 0), ("g", 0), ("f", 1))
        result = simulate(inst, sched, record_timeline=True)
        tracer = Tracer()
        trace_makespan_result(tracer, result)
        tracks = {e.track for e in tracer.events}
        assert "compiler-0" in tracks
        assert "execute" in tracks
        # The whole trace exports cleanly.
        validate_chrome_trace(to_chrome_trace(tracer))
