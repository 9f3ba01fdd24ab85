"""Tests for synthetic workload generation and the DaCapo presets."""

import pytest

from repro.workloads import WorkloadSpec, generate
from repro.workloads.dacapo import (
    BENCHMARKS,
    TABLE1,
    _spec_for,
    load,
    load_suite,
    table1_rows,
)


class TestWorkloadSpec:
    def test_defaults_valid(self):
        WorkloadSpec()

    def test_rejects_zero_functions(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_functions=0)

    def test_rejects_fewer_calls_than_functions(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_functions=10, num_calls=5)

    def test_rejects_missing_level_factors(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_levels=5, level_compile_factors=(1.0, 2.0))

    def test_rejects_bad_warmup_fraction(self):
        with pytest.raises(ValueError):
            WorkloadSpec(warmup_fraction=0.0)

    def test_rejects_bad_speedup_range(self):
        with pytest.raises(ValueError):
            WorkloadSpec(max_speedup_range=(0.5, 2.0))
        with pytest.raises(ValueError):
            WorkloadSpec(max_speedup_range=(4.0, 2.0))


class TestGenerate:
    def _spec(self, **kw):
        defaults = dict(
            name="g", num_functions=30, num_calls=2000, num_levels=4
        )
        defaults.update(kw)
        return WorkloadSpec(**defaults)

    def test_deterministic(self):
        a = generate(self._spec(), seed=5)
        b = generate(self._spec(), seed=5)
        assert a.calls == b.calls
        assert a.profiles == b.profiles

    def test_seed_changes_output(self):
        a = generate(self._spec(), seed=5)
        b = generate(self._spec(), seed=6)
        assert a.calls != b.calls

    def test_shape(self):
        inst = generate(self._spec(), seed=1)
        assert inst.num_calls == 2000
        assert inst.num_functions == 30  # every function appears

    def test_profiles_satisfy_definition1(self):
        inst = generate(self._spec(), seed=2)
        # FunctionProfile raises ModelError if violated; re-validate
        # explicitly for clarity.
        from repro.core.model import validate_monotone_levels

        for prof in inst.profiles.values():
            validate_monotone_levels(prof.compile_times, prof.exec_times)

    def test_hotness_is_skewed(self):
        inst = generate(self._spec(num_calls=20_000, zipf_s=1.4), seed=3)
        counts = sorted(
            (inst.call_count(f) for f in inst.called_functions), reverse=True
        )
        assert counts[0] > 5 * counts[len(counts) // 2]

    def test_first_appearances_in_warmup_window(self):
        spec = self._spec(num_calls=10_000, warmup_fraction=0.3)
        inst = generate(spec, seed=4)
        window = int(10_000 * 0.3)
        late = [
            f
            for f in inst.called_functions
            if inst.first_call_index(f) > window + spec.num_functions
        ]
        assert not late

    def test_single_level(self):
        inst = generate(
            self._spec(num_levels=1, level_compile_factors=(1.0,)), seed=1
        )
        assert all(p.num_levels == 1 for p in inst.profiles.values())

    def test_tiny_trace(self):
        inst = generate(self._spec(num_functions=5, num_calls=5), seed=0)
        assert inst.num_calls == 5
        assert inst.num_functions == 5


class TestDacapoPresets:
    def test_table1_has_nine_benchmarks(self):
        assert len(TABLE1) == 9
        assert set(BENCHMARKS) == {
            "antlr", "bloat", "eclipse", "fop", "hsqldb",
            "jython", "luindex", "lusearch", "pmd",
        }

    def test_full_scale_spec_matches_table1(self):
        for info in TABLE1:
            spec = _spec_for(info, 1.0)
            assert spec.num_functions == info.num_functions
            assert spec.num_calls == info.call_seq_length

    def test_scaled_load(self):
        inst = load("antlr", scale=0.002)
        info = BENCHMARKS["antlr"]
        assert inst.num_calls == int(info.call_seq_length * 0.002)
        assert inst.name == "antlr"

    def test_load_deterministic(self):
        assert load("fop", scale=0.002).calls == load("fop", scale=0.002).calls

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            load("nosuch")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            load("antlr", scale=0.0)
        with pytest.raises(ValueError):
            load("antlr", scale=2.0)

    def test_load_suite(self):
        suite = load_suite(scale=0.002)
        assert len(suite) == 9
        assert all(inst.num_calls > 0 for inst in suite.values())

    def test_load_suite_seed_is_per_benchmark(self):
        """Regression: a shared seed used to reach every benchmark
        verbatim, generating correlated traces across the suite."""
        suite = load_suite(scale=0.002, seed=7)
        assert suite["antlr"].calls == load("antlr", scale=0.002, seed=7).calls
        # Benchmark i gets seed + i, not the shared seed.
        assert suite["bloat"].calls == load("bloat", scale=0.002, seed=8).calls
        assert suite["bloat"].calls != load("bloat", scale=0.002, seed=7).calls

    def test_load_suite_seeded_traces_are_decorrelated(self):
        suite = load_suite(scale=0.002, seed=3)
        # Same function-count presets would previously draw identical
        # call patterns; with per-benchmark seeds they must differ.
        a, b = suite["antlr"], suite["fop"]
        n = min(a.num_calls, b.num_calls)
        assert a.calls[:n] != b.calls[:n]

    def test_load_suite_default_seeds_unchanged(self):
        suite = load_suite(scale=0.002)
        assert suite["antlr"].calls == load("antlr", scale=0.002).calls
        assert suite["pmd"].calls == load("pmd", scale=0.002).calls

    def test_table1_rows(self):
        rows = table1_rows(scale=0.002)
        assert len(rows) == 9
        first = rows[0]
        assert first["program"] == "antlr"
        assert first["paper_functions"] == 1187
        assert first["generated_calls"] > 0

    @pytest.mark.parametrize("scale", [0.002, 0.01])
    def test_table1_counts_are_the_generated_instances(self, scale):
        """``table1_rows`` reads its generated columns from the preset's
        spec; they are the counts of the trace ``load`` generates."""
        rows = {row["program"]: row for row in table1_rows(scale=scale)}
        for info in TABLE1:
            inst = load(info.name, scale=scale)
            assert rows[info.name]["generated_functions"] == inst.num_functions
            assert rows[info.name]["generated_calls"] == inst.num_calls

    def test_parallel_flags(self):
        assert BENCHMARKS["hsqldb"].parallel
        assert BENCHMARKS["lusearch"].parallel
        assert not BENCHMARKS["antlr"].parallel


class TestPhases:
    def _phased(self, churn, seed=5):
        spec = WorkloadSpec(
            name="phased",
            num_functions=30,
            num_calls=9000,
            zipf_s=1.3,
            num_phases=3,
            phase_churn=churn,
        )
        return generate(spec, seed=seed)

    def test_phase_parameters_validated(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_phases=0)
        with pytest.raises(ValueError):
            WorkloadSpec(phase_churn=1.5)

    def test_single_phase_unchanged_by_churn_knob(self):
        a = generate(WorkloadSpec(num_functions=20, num_calls=2000), seed=3)
        b = generate(
            WorkloadSpec(num_functions=20, num_calls=2000, phase_churn=0.9),
            seed=3,
        )
        assert a.calls == b.calls

    def test_churn_rotates_hot_set(self):
        from collections import Counter

        inst = self._phased(churn=0.9)
        third = inst.num_calls // 3
        tops = []
        for k in range(3):
            seg = inst.calls[k * third : (k + 1) * third]
            tops.append({f for f, _ in Counter(seg).most_common(3)})
        # At high churn, at least one phase's top-3 differs.
        assert tops[0] != tops[1] or tops[1] != tops[2]

    def test_zero_churn_keeps_phases_alike(self):
        from collections import Counter

        inst = self._phased(churn=0.0)
        third = inst.num_calls // 3
        top1 = {f for f, _ in Counter(inst.calls[third : 2 * third]).most_common(1)}
        top2 = {f for f, _ in Counter(inst.calls[2 * third :]).most_common(1)}
        assert top1 == top2

    def test_all_functions_still_appear(self):
        inst = self._phased(churn=0.8)
        assert inst.num_functions == 30
