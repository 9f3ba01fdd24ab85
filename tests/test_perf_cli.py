"""End-to-end tests for ``repro bench`` and the perf regression gate."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import compare_doc, result_doc, run_benchmark
from repro.perf.suites import REGISTRY

SCALE = "0.002"


@pytest.fixture(scope="module")
def bench_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    baselines = root / "baselines"
    results = root / "results"
    code = main(
        [
            "bench", "run",
            "--suite", "quick",
            "--scale", SCALE,
            "--repeats", "2",
            "--warmups", "0",
            "--update-baselines",
            "--baseline-dir", str(baselines),
        ]
    )
    assert code == 0
    return baselines, results


class TestBenchRun:
    def test_writes_one_document_per_benchmark(self, bench_dirs, capsys):
        baselines, _ = bench_dirs
        files = sorted(p.name for p in baselines.glob("BENCH_*.json"))
        assert len(files) == len(REGISTRY)
        doc = json.loads((baselines / files[0]).read_text())
        assert doc["kind"] == "perf"
        assert doc["scale"] == float(SCALE)
        assert doc["counters"]
        assert doc["timing"]["repeats"] == 2

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "run", "--suite", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite" in err
        assert "'quick'" in err and "'astar_search'" in err

    def test_one_benchmark_rewrites_only_its_baseline(self, tmp_path):
        code = main(
            [
                "bench", "run",
                "--suite", "astar_search",
                "--scale", SCALE,
                "--repeats", "1",
                "--warmups", "0",
                "--update-baselines",
                "--baseline-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_astar_search.json"]


class TestBenchCompare:
    def test_unchanged_tree_round_trips_to_exit_0(self, bench_dirs, capsys):
        baselines, results = bench_dirs
        code = main(
            [
                "bench", "run",
                "--suite", "quick",
                "--scale", SCALE,
                "--repeats", "2",
                "--warmups", "0",
                "--out", str(results),
            ]
        )
        assert code == 0
        code = main(
            [
                "bench", "compare",
                "--results", str(results),
                "--baselines", str(baselines),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        # Same machine, same code: counters exact-match everywhere.
        assert "fail" not in out.splitlines()[-1]

    def test_counter_regression_fails_the_gate(
        self, bench_dirs, tmp_path, capsys
    ):
        baselines, _ = bench_dirs
        doctored = tmp_path / "doctored"
        doctored.mkdir()
        for path in baselines.glob("BENCH_*.json"):
            doc = json.loads(path.read_text())
            (doctored / path.name).write_text(json.dumps(doc))
        # Inflate one counter in one result: the code "did more work".
        victim = next(iter(sorted(doctored.glob("BENCH_*.json"))))
        doc = json.loads(victim.read_text())
        key = next(iter(doc["counters"]))
        doc["counters"][key] += 1
        victim.write_text(json.dumps(doc))
        code = main(
            [
                "bench", "compare",
                "--results", str(doctored),
                "--baselines", str(baselines),
            ]
        )
        assert code == 1
        assert "counter regression" in capsys.readouterr().out

    def test_report_never_gates(self, bench_dirs, tmp_path, capsys):
        baselines, _ = bench_dirs
        empty = tmp_path / "empty"
        code = main(
            [
                "bench", "report",
                "--results", str(empty),
                "--baselines", str(baselines),
                "--markdown", "-",
            ]
        )
        assert code == 0
        assert "Overall: **skip**" in capsys.readouterr().out

    def test_json_report_written(self, bench_dirs, tmp_path, capsys):
        baselines, _ = bench_dirs
        out = tmp_path / "report.json"
        code = main(
            [
                "bench", "compare",
                "--results", str(baselines),  # compare against itself
                "--baselines", str(baselines),
                "--json", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["overall"] == "pass"
        assert len(report["comparisons"]) == len(REGISTRY)


class TestInjectedRegressionIsCaught:
    def test_extra_replay_pass_trips_the_counter_gate(self, monkeypatch):
        """The acceptance scenario: a deliberate extra O(n) pass through
        the vector engine's chunked replay changes no output, barely
        moves wall time at tiny scale — and the counter gate still
        catches it exactly."""
        from repro.core.vecsim import VectorSimulator

        spec = REGISTRY["localsearch_moves"]
        baseline = result_doc(
            run_benchmark(spec.name, spec.make, scale=0.001, repeats=2)
        )

        original = VectorSimulator._walk

        def with_extra_pass(self, *args, **kwargs):
            original(self, *args)  # wasted work
            return original(self, *args, **kwargs)

        monkeypatch.setattr(VectorSimulator, "_walk", with_extra_pass)
        current = result_doc(
            run_benchmark(spec.name, spec.make, scale=0.001, repeats=2)
        )
        comparison = compare_doc(current, baseline)
        assert comparison.status == "fail"
        regressed = {
            d.counter for d in comparison.counter_diffs if d.regressed
        }
        assert regressed == {"vecsim.chunks"}


class TestDiagnoseJson:
    @pytest.fixture()
    def trace_and_schedule(self, tmp_path):
        trace = tmp_path / "trace.json"
        schedule = tmp_path / "schedule.json"
        assert main(
            [
                "generate",
                "--functions", "15",
                "--calls", "600",
                "--seed", "3",
                "-o", str(trace),
            ]
        ) == 0
        assert main(
            ["schedule", str(trace), "--algorithm", "iar", "-o", str(schedule)]
        ) == 0
        return trace, schedule

    def test_json_to_file(self, trace_and_schedule, tmp_path, capsys):
        trace, schedule = trace_and_schedule
        out = tmp_path / "gap.json"
        code = main(
            [
                "diagnose", str(trace), str(schedule),
                "--intervals", "4",
                "--json", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["makespan"] == pytest.approx(
            doc["lower_bound"] + doc["bubbles"]
            + doc["excess_before_upgrade"] + doc["excess_never_upgraded"]
        )
        assert doc["gap"] == pytest.approx(doc["makespan"] - doc["lower_bound"])
        assert len(doc["per_interval"]) == 4
        assert doc["per_function"]  # full split, not just --top

    def test_json_to_stdout_suppresses_tables(self, trace_and_schedule, capsys):
        trace, schedule = trace_and_schedule
        code = main(["diagnose", str(trace), str(schedule), "--json", "-"])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # the whole stdout is one JSON document
        assert "per_function" in doc
