"""The load driver and the deterministic-replay contract.

The acceptance bar for the service: a fixed seed and event stream
produce a bitwise-identical decision log across runs, transports
(in-process vs a real socket server), and kill-and-restart resumes —
including under a nonzero fault spec — while decisions/sec and latency
percentiles flow through ``repro.perf``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf.harness import TimingStats
from repro.service import (
    DecisionCache,
    DecisionEngine,
    ProtocolError,
    generate_events,
    load_events,
    replay_inproc,
    run_replay,
    write_events,
)
from repro.observability.metrics import _percentile
from repro.service.driver import _build_report, load_decision_log

FAULTS = "compile_fail=0.1,retries=1,seed=3"
SOAK_TENANTS = 8
SOAK_EVENTS = 1000


def _engine(faults=FAULTS):
    return DecisionEngine(faults=faults, cache=DecisionCache())


@pytest.fixture(scope="module")
def soak_events():
    return generate_events(
        tenants=SOAK_TENANTS, events=SOAK_EVENTS, scale=0.02, seed=0
    )


# ---------------------------------------------------------------------------
# Event-stream generation
# ---------------------------------------------------------------------------
class TestGenerateEvents:
    def test_same_seed_same_stream(self, soak_events):
        again = generate_events(
            tenants=SOAK_TENANTS, events=SOAK_EVENTS, scale=0.02, seed=0
        )
        assert again == soak_events

    def test_different_seed_different_interleave(self, soak_events):
        other = generate_events(
            tenants=SOAK_TENANTS, events=SOAK_EVENTS, scale=0.02, seed=1
        )
        assert other != soak_events

    def test_quota_and_seq_stamping(self, soak_events):
        calls = [e for e in soak_events if e["op"] == "call"]
        assert len(calls) >= SOAK_EVENTS
        assert [e["seq"] for e in soak_events] == list(
            range(len(soak_events))
        )
        tenants = {e["tenant"] for e in soak_events}
        assert len(tenants) == SOAK_TENANTS

    def test_profiles_precede_first_call(self, soak_events):
        seen = set()
        for event in soak_events:
            key = (event["tenant"], event["function"])
            if event["op"] == "profile":
                seen.add(key)
            else:
                assert key in seen

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            generate_events(tenants=0)
        with pytest.raises(ValueError):
            generate_events(events=0)


class TestEventFiles:
    def test_roundtrip(self, soak_events, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(soak_events, path)
        assert load_events(path) == soak_events

    def test_malformed_line_is_reported_with_its_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"op":"ping"}\nnot json\n')
        with pytest.raises(ProtocolError, match="line 2"):
            load_events(path)

    def test_unknown_op_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"op":"evil"}\n')
        with pytest.raises(ProtocolError, match="line 1"):
            load_events(path)


# ---------------------------------------------------------------------------
# Satellite 4: the soak — bitwise determinism across runs and transports
# ---------------------------------------------------------------------------
class TestSoakDeterminism:
    def _log(self, tmp_path, name, **kwargs):
        out = tmp_path / name
        events = kwargs.pop("events")
        report = run_replay(
            events, _engine(), decisions_out=out, **kwargs
        )
        return out.read_bytes(), report

    def test_two_inproc_runs_are_bitwise_identical(
        self, soak_events, tmp_path
    ):
        log1, report1 = self._log(tmp_path, "a.jsonl", events=soak_events)
        log2, report2 = self._log(tmp_path, "b.jsonl", events=soak_events)
        assert log1 == log2
        assert report1.decisions == report2.decisions >= SOAK_EVENTS
        assert report1.tenants == SOAK_TENANTS

    def test_socket_log_equals_inproc_log(self, soak_events, tmp_path):
        inproc, _ = self._log(tmp_path, "i.jsonl", events=soak_events)
        socket_log, report = self._log(
            tmp_path, "s.jsonl", events=soak_events, mode="socket"
        )
        assert socket_log == inproc
        assert report.decisions >= SOAK_EVENTS

    def test_report_flows_through_repro_perf(self, soak_events):
        _, report = replay_inproc(soak_events, _engine())
        assert isinstance(report.latency, TimingStats)
        assert report.decisions_per_sec > 0
        assert report.p99_ms >= report.p50_ms >= 0
        doc = report.as_dict()
        assert doc["latency"]["median_s"] == report.latency.median_s

    @pytest.mark.parametrize("cut", [1, 100, 999])
    def test_kill_and_restart_resume_is_exact(
        self, soak_events, tmp_path, cut
    ):
        full = tmp_path / "full.jsonl"
        run_replay(soak_events, _engine(), decisions_out=full)
        reference = full.read_bytes()
        # simulate a crash: keep only the first `cut` journal lines
        partial = tmp_path / "partial.jsonl"
        lines = reference.splitlines(keepends=True)
        partial.write_bytes(b"".join(lines[:cut]))
        report = run_replay(
            soak_events, _engine(), decisions_out=partial, resume=True
        )
        assert report.skipped == cut
        assert report.decisions == len(lines) - cut
        assert partial.read_bytes() == reference

    def test_resume_emits_no_duplicate_seqs(self, soak_events, tmp_path):
        out = tmp_path / "log.jsonl"
        run_replay(soak_events, _engine(), decisions_out=out)
        run_replay(soak_events, _engine(), decisions_out=out, resume=True)
        seqs = [
            json.loads(line)["seq"]
            for line in out.read_bytes().splitlines()
        ]
        assert len(seqs) == len(set(seqs))

    def test_unknown_mode_raises(self, soak_events):
        with pytest.raises(ValueError, match="unknown replay mode"):
            run_replay(soak_events[:5], _engine(), mode="carrier-pigeon")

    def test_load_decision_log_missing_file_is_fresh(self, tmp_path):
        assert load_decision_log(tmp_path / "nope.jsonl") == {}


# ---------------------------------------------------------------------------
# The CLI surface (`repro serve replay`)
# ---------------------------------------------------------------------------
class TestServeReplayCli:
    ARGS = [
        "serve", "replay",
        "--tenants", str(SOAK_TENANTS),
        "--events", str(SOAK_EVENTS),
        "--seed", "0",
        "--faults", FAULTS,
    ]

    def test_acceptance_run_is_bitwise_reproducible(self, tmp_path, capsys):
        out1, out2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        assert main(self.ARGS + ["--decisions-out", str(out1)]) == 0
        text = capsys.readouterr().out
        assert main(self.ARGS + ["--decisions-out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert "decisions/sec" in text
        assert "p99" in text
        assert "via repro.perf" in text

    def test_json_report_and_saved_events(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        events_path = tmp_path / "events.jsonl"
        code = main(
            self.ARGS
            + [
                "--json-out", str(report_path),
                "--save-events", str(events_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["tenants"] == SOAK_TENANTS
        assert doc["decisions"] >= SOAK_EVENTS
        assert doc["p99_ms"] >= 0
        assert len(load_events(events_path)) == doc["events"]

    def test_bad_fault_spec_exits_2(self, tmp_path, capsys):
        assert main(["serve", "replay", "--faults", "bogus=1"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_malformed_events_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main(["serve", "replay", "--events-file", str(bad)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err


def test_report_without_a_registry_uses_the_one_percentile_rule():
    """An engine without a metrics registry reports its latency
    percentiles by the repo's one rule (linear between closest ranks),
    not by a nearest-rank pick, which would say 3.0 and 10.0 ms here."""
    latencies = [0.010, 0.001, 0.003, 0.002]
    report = _build_report(
        DecisionEngine(), 1, 4, 4, 0, 1.0, latencies
    )
    ordered = sorted(latencies)
    assert report.p50_ms == _percentile(ordered, 50.0) * 1e3
    assert report.p99_ms == _percentile(ordered, 99.0) * 1e3
    assert report.p50_ms == pytest.approx(2.5)
    assert report.p99_ms == pytest.approx(9.79)
