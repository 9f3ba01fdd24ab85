"""Degradation-curve sweeps and the ``repro faults sweep`` CLI."""

import json

import pytest

from repro.analysis.experiments import PARALLEL_DRIVERS, scheme_comparison
from repro.cli import main
from repro.faults import DEFAULT_RATES, FaultSpecError, fault_sweep_rows, degradation_curves
from repro.faults.sweep import SERIES
from repro.vm.costbenefit import EstimatedModel
from repro.workloads import WorkloadSpec, generate


@pytest.fixture(scope="module")
def suite():
    return {
        name: generate(
            WorkloadSpec(
                name=name, num_functions=6, num_calls=120, num_levels=3
            ),
            seed=seed,
        )
        for name, seed in (("alpha", 1), ("beta", 2))
    }


class TestSweepRows:
    def test_row_shape_and_order(self, suite):
        rows = fault_sweep_rows(suite, rates=(0.0, 0.3))
        assert len(rows) == 4
        assert [(r["benchmark"], r["fault_rate"]) for r in rows] == [
            ("alpha", 0.0), ("alpha", 0.3), ("beta", 0.0), ("beta", 0.3),
        ]
        for row in rows:
            assert row["dimension"] == "compile_fail"
            for key in SERIES:
                assert key in row
            assert "faults" in row

    def test_zero_rate_bitwise_equals_clean(self, suite):
        rows = fault_sweep_rows(suite, rates=(0.0,), model_seed=0)
        for row in rows:
            clean = scheme_comparison(
                suite[row["benchmark"]], model=EstimatedModel, model_seed=0
            )
            for key in SERIES:
                assert row[key] == clean[key]
            assert row["faults"]["compile_failures"] == 0

    def test_deterministic(self, suite):
        runs = [
            fault_sweep_rows(suite, spec="seed=7", rates=(0.0, 0.2, 0.4))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_degradation_is_monotone_ish(self, suite):
        # Not a theorem, but at these rates the faulted points must sit
        # at or above the clean origin for the schemes faults touch.
        rows = fault_sweep_rows(suite, rates=(0.0, 0.4))
        by_bench = {}
        for row in rows:
            by_bench.setdefault(row["benchmark"], []).append(row)
        for points in by_bench.values():
            origin, faulted = points
            assert faulted["faults"]["compile_failures"] > 0
            assert faulted["default"] >= 1.0
            assert origin["lower_bound"] == faulted["lower_bound"] == 1.0

    @pytest.mark.parametrize("dimension", ["stall", "mispredict", "ticks"])
    def test_other_dimensions(self, suite, dimension):
        rows = fault_sweep_rows(
            suite, rates=(0.0, 0.5), dimension=dimension
        )
        assert all(row["dimension"] == dimension for row in rows)
        faulted = [row for row in rows if row["fault_rate"] == 0.5]
        if dimension == "stall":
            assert any(r["faults"]["stalls"] > 0 for r in faulted)
        elif dimension == "ticks":
            assert any(
                r["faults"]["ticks_dropped"] + r["faults"]["ticks_duplicated"]
                > 0
                for r in faulted
            )

    def test_unknown_dimension(self, suite):
        with pytest.raises(FaultSpecError, match="dimension"):
            fault_sweep_rows(suite, dimension="entropy")

    def test_default_rates_start_at_zero(self):
        assert DEFAULT_RATES[0] == 0.0
        assert list(DEFAULT_RATES) == sorted(DEFAULT_RATES)


class TestCurves:
    def test_geomean_per_rate(self, suite):
        rows = fault_sweep_rows(suite, rates=(0.0, 0.3))
        curves = degradation_curves(rows)
        assert [c["fault_rate"] for c in curves] == [0.0, 0.3]
        for point in curves:
            assert point["lower_bound"] == pytest.approx(1.0)
            for key in SERIES:
                assert point[key] is not None

    def test_single_benchmark_passthrough(self, suite):
        rows = fault_sweep_rows(
            {"alpha": suite["alpha"]}, rates=(0.2,)
        )
        curves = degradation_curves(rows)
        assert curves[0]["iar"] == pytest.approx(rows[0]["iar"])


class TestDriverRegistration:
    def test_faults_sweep_is_a_parallel_driver(self):
        assert "faults_sweep" in PARALLEL_DRIVERS


class TestCLI:
    def _sweep(self, tmp_path, name):
        out = tmp_path / f"{name}.json"
        code = main(
            [
                "faults", "sweep",
                "--scale", "0.002",
                "--rates", "0,0.3",
                "--seed", "0",
                "--json-out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_json_out_deterministic(self, tmp_path, capsys):
        first = self._sweep(tmp_path, "a").read_bytes()
        second = self._sweep(tmp_path, "b").read_bytes()
        assert first == second  # the acceptance criterion, verbatim
        doc = json.loads(first)
        assert doc["dimension"] == "compile_fail"
        assert doc["rates"] == [0.0, 0.3]
        assert len(doc["curves"]) == 2
        assert doc["curves"][0]["fault_rate"] == 0.0
        out = capsys.readouterr().out
        assert "degradation vs compile_fail" in out

    def test_rejects_bad_rates(self, capsys):
        code = main(["faults", "sweep", "--scale", "0.002", "--rates", "zero"])
        assert code == 2
        assert "repro: error: fault spec:" in capsys.readouterr().err

    def test_rejects_out_of_range_rate(self, capsys):
        code = main(["faults", "sweep", "--scale", "0.002", "--rates", "0,2"])
        assert code == 2
        assert "fault spec" in capsys.readouterr().err

    def test_rejects_bad_spec(self, capsys):
        code = main(
            ["faults", "sweep", "--scale", "0.002", "--spec", "warp=1"]
        )
        assert code == 2
        assert "unknown key" in capsys.readouterr().err
