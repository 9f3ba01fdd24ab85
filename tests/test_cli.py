"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workloads import traces


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    code = main(
        [
            "generate",
            "--functions", "20",
            "--calls", "800",
            "--seed", "7",
            "-o", str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestGenerate:
    def test_synthetic(self, trace_file):
        inst = traces.load(trace_file)
        assert inst.num_calls == 800
        assert inst.num_functions == 20

    def test_benchmark_preset(self, tmp_path, capsys):
        path = tmp_path / "fop.json"
        code = main(
            ["generate", "--benchmark", "fop", "--scale", "0.002", "-o", str(path)]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        inst = traces.load(path)
        assert inst.name == "fop"


class TestScheduleEvaluateDiagnose:
    @pytest.mark.parametrize(
        "algorithm", ["iar", "base", "opt", "hotness", "budget", "ondemand", "jikes", "v8"]
    )
    def test_all_algorithms(self, trace_file, tmp_path, algorithm):
        out = tmp_path / f"{algorithm}.json"
        assert main(
            ["schedule", str(trace_file), "--algorithm", algorithm, "-o", str(out)]
        ) == 0
        schedule = traces.load_schedule(out)
        instance = traces.load(trace_file)
        schedule.validate(instance)

    def test_evaluate(self, trace_file, tmp_path, capsys):
        out = tmp_path / "iar.json"
        main(["schedule", str(trace_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["evaluate", str(trace_file), str(out)]) == 0
        text = capsys.readouterr().out
        assert "make-span" in text
        assert "normalized" in text

    def test_evaluate_with_threads(self, trace_file, tmp_path, capsys):
        out = tmp_path / "iar.json"
        main(["schedule", str(trace_file), "-o", str(out)])
        assert main(
            ["evaluate", str(trace_file), str(out), "--threads", "4"]
        ) == 0

    def test_diagnose(self, trace_file, tmp_path, capsys):
        out = tmp_path / "base.json"
        main(["schedule", str(trace_file), "--algorithm", "base", "-o", str(out)])
        capsys.readouterr()
        assert main(["diagnose", str(trace_file), str(out), "--top", "3"]) == 0
        text = capsys.readouterr().out
        assert "worst offenders" in text
        assert "never-upgraded" in text


class TestStudyAndWalkthrough:
    def test_study_table1(self, capsys):
        assert main(["study", "--figure", "table1", "--scale", "0.002"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_study_fig5(self, capsys):
        assert main(["study", "--figure", "fig5", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "average" in out

    def test_walkthrough(self, capsys):
        assert main(["walkthrough"]) == 0
        out = capsys.readouterr().out
        assert "make-span: 10.0" in out  # scheme s3
        assert "make-span: 11.0" in out  # scheme s1


class TestStudyJsonOut:
    def test_table1_section_is_written(self, tmp_path, capsys):
        from repro.analysis import table1

        out = tmp_path / "table1.json"
        args = ["study", "--figure", "table1", "--scale", "0.002"]
        assert main(args + ["--json-out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"table1": table1(scale=0.002)}

    def test_astar_section_is_written(self, tmp_path, capsys):
        out = tmp_path / "astar.json"
        assert main(["study", "--figure", "astar", "--json-out", str(out)]) == 0
        rows = json.loads(out.read_text())["astar"]
        assert [row["functions"] for row in rows] == [2, 3, 4, 5, 6, 7]
        assert [row["nodes_expanded"] for row in rows] == [
            16, 47, 159, 392, 3365, 27968,
        ]
        assert rows[-1]["status"] == "out-of-memory"


class TestScheduleRoundTrip:
    def test_schedule_json_roundtrip(self, trace_file, tmp_path):
        out = tmp_path / "sched.json"
        main(["schedule", str(trace_file), "-o", str(out)])
        doc = json.loads(out.read_text())
        assert doc["version"] == 1
        schedule = traces.schedule_from_json(out.read_text())
        assert traces.schedule_to_json(schedule) == out.read_text()

    def test_bad_schedule_version(self):
        with pytest.raises(ValueError, match="version"):
            traces.schedule_from_json('{"version": 9, "tasks": []}')


class TestStudyAllFigures:
    @pytest.mark.parametrize("figure", ["fig6", "fig7", "fig8", "table2"])
    def test_each_figure_runs(self, capsys, figure):
        assert main(["study", "--figure", figure, "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert ("Figure" in out) or ("Table" in out)


class TestImportTrace:
    def test_import_and_schedule(self, tmp_path, capsys):
        log = tmp_path / "calls.log"
        costs = tmp_path / "costs.csv"
        log.write_text("alpha\nbeta\nalpha\n")
        costs.write_text("name,c0,c1,e0,e1\nalpha,10,100,5,1\nbeta,12,90,4,2\n")
        out = tmp_path / "trace.json"
        assert main(
            ["import-trace", str(log), str(costs), "-o", str(out)]
        ) == 0
        sched = tmp_path / "sched.json"
        assert main(["schedule", str(out), "-o", str(sched)]) == 0
        capsys.readouterr()
        assert main(["evaluate", str(out), str(sched)]) == 0
        assert "normalized" in capsys.readouterr().out


class TestTraceCommand:
    def test_chrome_trace_is_valid(self, tmp_path, capsys):
        from repro.observability import validate_chrome_trace

        out = tmp_path / "antlr.trace.json"
        code = main(
            [
                "trace", "antlr",
                "--scheme", "jikes",
                "--scale", "0.002",
                "-o", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "make-span" in text
        assert "execute" in text  # the per-track summary
        assert validate_chrome_trace(out.read_text()) > 0

    @pytest.mark.parametrize("scheme", ["iar", "v8"])
    def test_other_schemes(self, tmp_path, scheme):
        out = tmp_path / f"{scheme}.trace.json"
        assert main(
            [
                "trace", "fop",
                "--scheme", scheme,
                "--scale", "0.002",
                "-o", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "antlr.jsonl"
        assert main(
            [
                "trace", "antlr",
                "--scheme", "iar",
                "--scale", "0.002",
                "--format", "jsonl",
                "-o", str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["kind"] for line in lines)

    def test_unknown_benchmark_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "nope", "-o", str(tmp_path / "x.json")]
            )


class TestDiagnoseIntervals:
    def test_interval_table_printed(self, trace_file, tmp_path, capsys):
        out = tmp_path / "base.json"
        main(["schedule", str(trace_file), "--algorithm", "base", "-o", str(out)])
        capsys.readouterr()
        assert main(
            ["diagnose", str(trace_file), str(out), "--intervals", "4"]
        ) == 0
        text = capsys.readouterr().out
        assert "gap by interval" in text

    def test_no_interval_table_by_default(self, trace_file, tmp_path, capsys):
        out = tmp_path / "base.json"
        main(["schedule", str(trace_file), "--algorithm", "base", "-o", str(out)])
        capsys.readouterr()
        assert main(["diagnose", str(trace_file), str(out)]) == 0
        assert "gap by interval" not in capsys.readouterr().out


class TestStudyTraceDir:
    def test_fig8_dumps_traces(self, tmp_path, capsys):
        from repro.observability import validate_chrome_trace

        trace_dir = tmp_path / "traces"
        assert main(
            [
                "study", "--figure", "fig8",
                "--scale", "0.002",
                "--trace-dir", str(trace_dir),
            ]
        ) == 0
        files = sorted(trace_dir.glob("figure8-*.trace.json"))
        assert len(files) == 9
        validate_chrome_trace(files[0].read_text())


class TestSeedContract:
    """One seed rule everywhere: omitted = stable per-benchmark default,
    an explicit integer — including 0 — is always honored."""

    def _load(self, tmp_path, *argv):
        path = tmp_path / "out.json"
        assert main(["generate", *argv, "-o", str(path)]) == 0
        return traces.load(path)

    def test_explicit_zero_is_not_treated_as_omitted(self, tmp_path):
        from repro.workloads import dacapo

        seeded = self._load(
            tmp_path, "--benchmark", "fop", "--scale", "0.002", "--seed", "0"
        )
        default = self._load(tmp_path, "--benchmark", "fop", "--scale", "0.002")
        assert seeded.calls != default.calls, (
            "--seed 0 must mean seed 0, not the per-benchmark default"
        )
        assert default.calls == dacapo.load("fop", scale=0.002).calls
        assert seeded.calls == dacapo.load("fop", scale=0.002, seed=0).calls

    def test_omitted_seed_is_stable_across_invocations(self, tmp_path):
        a = self._load(tmp_path, "--benchmark", "fop", "--scale", "0.002")
        b = self._load(tmp_path, "--benchmark", "fop", "--scale", "0.002")
        assert a.calls == b.calls

    def test_synthetic_defaults_to_seed_zero(self, tmp_path):
        omitted = self._load(tmp_path, "--functions", "10", "--calls", "50")
        explicit = self._load(
            tmp_path, "--functions", "10", "--calls", "50", "--seed", "0"
        )
        assert omitted.calls == explicit.calls

    def test_trace_and_generate_share_the_default(self, tmp_path, capsys):
        # Both commands must sample the same instance when the seed is
        # omitted (they historically disagreed: None vs 0).
        gen = self._load(tmp_path, "--benchmark", "antlr", "--scale", "0.002")
        trace_path = tmp_path / "antlr.trace.json"
        assert main(
            ["trace", "antlr", "--scale", "0.002", "-o", str(trace_path)]
        ) == 0
        capsys.readouterr()
        from repro.workloads import dacapo

        assert gen.calls == dacapo.load("antlr", scale=0.002).calls


class TestStudyCache:
    def test_warm_run_is_all_hits_and_identical(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        base = [
            "study", "--figure", "fig5", "--scale", "0.002",
            "--cache-dir", store, "--strict",
        ]
        assert main(base + ["--json-out", str(cold_json)]) == 0
        cold_out = capsys.readouterr().out
        assert "cache: 0 hits / 9 misses" in cold_out

        assert main(base + ["--json-out", str(warm_json)]) == 0
        warm_out = capsys.readouterr().out
        assert "cache: 9 hits / 0 misses" in warm_out
        assert "9 cached" in warm_out

        cold = json.loads(cold_json.read_text())
        warm = json.loads(warm_json.read_text())
        assert cold["rows"] == warm["rows"]
        assert warm["cache_misses"] == 0
        assert set(warm["statuses"].values()) == {"cached"}

    def test_resume_flag_accepts_existing_checkpoint(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = [
            "study", "--figure", "fig5", "--scale", "0.002",
            "--cache-dir", store, "--resume",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cache: 9 hits / 0 misses" in capsys.readouterr().out


class TestCacheCommand:
    def _populate(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            [
                "study", "--figure", "fig5", "--scale", "0.002",
                "--cache-dir", store,
            ]
        ) == 0
        capsys.readouterr()
        return store

    def test_stats(self, tmp_path, capsys):
        store = self._populate(tmp_path, capsys)
        assert main(["cache", "stats", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "entries:     9" in out
        assert "figure5: 9" in out

    def test_gc_current_code_keeps_fresh_entries(self, tmp_path, capsys):
        store = self._populate(tmp_path, capsys)
        assert main(
            [
                "cache", "gc", "--cache-dir", store,
                "--current-code-only", "--max-age-days", "30",
            ]
        ) == 0
        assert "removed 0 file(s)" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        store = self._populate(tmp_path, capsys)
        assert main(["cache", "clear", "--cache-dir", store]) == 0
        assert "removed 9" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", store]) == 0
        assert "entries:     0" in capsys.readouterr().out
