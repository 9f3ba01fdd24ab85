"""Tests for baselines and the noise-aware comparator (repro.perf)."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    SCHEMA_VERSION,
    BaselineError,
    baseline_path,
    compare_dirs,
    compare_doc,
    load_baseline,
    load_baseline_dir,
    machine_fingerprint,
    render_markdown,
    render_text,
    report_json,
    worst_status,
    write_doc,
)
from repro.perf.compare import Comparison


def doc(
    name="bench",
    median=1.0,
    iqr=0.1,
    counters=None,
    machine=None,
    scale=0.01,
    schema=SCHEMA_VERSION,
    kind="perf",
    params=None,
):
    """A minimal comparator-ready result/baseline document."""
    return {
        "schema_version": schema,
        "kind": kind,
        "name": name,
        "scale": scale,
        "params": params or {},
        "machine": machine or machine_fingerprint(),
        "timing": {"median_s": median, "iqr_s": iqr},
        "counters": dict(counters or {"work": 100}),
    }


class TestCompareDoc:
    def test_identical_docs_pass(self):
        base = doc()
        result = compare_doc(doc(), base)
        assert result.status == "pass"
        assert result.time_compared

    def test_missing_baseline_skips(self):
        result = compare_doc(doc(), None)
        assert result.status == "skip"
        assert "no baseline" in result.notes[0]

    def test_schema_version_mismatch_skips(self):
        result = compare_doc(doc(), doc(schema=SCHEMA_VERSION + 1))
        assert result.status == "skip"
        assert "schema_version" in result.notes[0]

    def test_scale_mismatch_skips(self):
        result = compare_doc(doc(scale=0.01), doc(scale=1.0))
        assert result.status == "skip"
        assert "scale" in result.notes[0]

    def test_params_mismatch_skips(self):
        result = compare_doc(doc(params={"threads": 2}), doc())
        assert result.status == "skip"

    def test_non_perf_kind_not_gated(self):
        result = compare_doc(doc(kind="notes"), doc(kind="notes"))
        assert result.status == "skip"
        assert "is not gated" in result.notes[0]

    def test_counter_regression_fails_even_with_unchanged_wall_time(self):
        # The dual-signal point: identical timing, more work — a real
        # algorithmic regression that wall clocks alone would miss.
        base = doc(counters={"work": 100})
        cur = doc(counters={"work": 150})
        result = compare_doc(cur, base)
        assert result.status == "fail"
        assert any("counter regression" in n for n in result.notes)
        assert result.counter_diffs[0].regressed

    def test_counter_improvement_warns_until_refresh(self):
        result = compare_doc(doc(counters={"work": 80}), doc())
        assert result.status == "warn"
        assert any("refresh" in n for n in result.notes)

    def test_counter_set_change_warns(self):
        result = compare_doc(doc(counters={"work": 100, "new": 1}), doc())
        assert result.status == "warn"
        assert any("counter set changed" in n for n in result.notes)

    def test_zero_iqr_uses_relative_floor(self):
        # IQR 0 must not turn scheduler jitter into alarms: the
        # threshold falls back to median * (1 + REL_FLOOR).
        base = doc(median=1.0, iqr=0.0)
        within = compare_doc(doc(median=1.10, iqr=0.0), base)
        assert within.status == "pass"
        beyond = compare_doc(doc(median=1.30, iqr=0.0), base)
        assert beyond.status == "warn"
        assert any("drift" in n for n in beyond.notes)

    def test_noisy_baseline_widens_the_threshold(self):
        base = doc(median=1.0, iqr=0.2)  # threshold 1 + 3*0.2 = 1.6
        assert compare_doc(doc(median=1.5), base).status == "pass"
        assert compare_doc(doc(median=1.7), base).status == "warn"

    def test_timing_drift_never_fails(self):
        result = compare_doc(doc(median=100.0), doc(median=1.0))
        assert result.status == "warn"

    def test_fingerprint_mismatch_warns_and_skips_timing(self):
        other = dict(machine_fingerprint(), platform="other-os")
        result = compare_doc(doc(median=100.0), doc(machine=other))
        assert result.status == "warn"
        assert not result.time_compared
        assert any("fingerprint" in n for n in result.notes)

    HOST = {
        "platform": "Linux-6.18.44-fc-v130-x86_64-with-glibc2.36",
        "machine": "x86_64",
        "python": "3.11.7",
        "implementation": "CPython",
        "cpu_count": 2,
    }

    def test_kernel_update_still_compares_time(self):
        updated = dict(
            self.HOST, platform="Linux-6.18.44-fc-v139-x86_64-with-glibc2.36"
        )
        result = compare_doc(
            doc(median=100.0, machine=updated), doc(machine=self.HOST)
        )
        assert result.time_compared
        assert any("drift" in n for n in result.notes)

    @pytest.mark.parametrize(
        "change",
        [
            {
                "platform": "Linux-6.18.44-fc-v139-aarch64-with-glibc2.36",
                "machine": "aarch64",
            },
            {"platform": "Linux-6.18.44-fc-v139-x86_64-with-glibc2.39"},
            {"python": "3.12.1"},
            {"cpu_count": 1},
        ],
        ids=["machine", "libc", "python", "cpu_count"],
    )
    def test_other_host_skips_timing_across_a_kernel_update(self, change):
        other = dict(self.HOST, **change)
        result = compare_doc(doc(median=100.0, machine=other), doc(machine=self.HOST))
        assert not result.time_compared
        assert any("fingerprint" in n for n in result.notes)

    def test_fingerprint_mismatch_still_gates_counters(self):
        other = dict(machine_fingerprint(), platform="other-os")
        result = compare_doc(
            doc(counters={"work": 150}), doc(machine=other)
        )
        assert result.status == "fail"


class TestBaselineStore:
    def test_write_and_load_round_trip(self, tmp_path):
        path = write_doc(baseline_path(tmp_path, "x"), doc(name="x"))
        assert path.name == "BENCH_x.json"
        assert load_baseline(path)["name"] == "x"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BaselineError, match="no baseline"):
            load_baseline(tmp_path / "BENCH_nope.json")

    def test_corrupt_file_raises_but_dir_scan_skips_it(self, tmp_path):
        write_doc(baseline_path(tmp_path, "good"), doc(name="good"))
        bad = baseline_path(tmp_path, "bad")
        bad.write_text("{not json")
        with pytest.raises(BaselineError, match="unreadable"):
            load_baseline(bad)
        assert set(load_baseline_dir(tmp_path)) == {"good"}

    def test_missing_dir_is_empty_not_error(self, tmp_path):
        assert load_baseline_dir(tmp_path / "absent") == {}


class TestCompareDirs:
    def test_pairs_results_with_baselines(self, tmp_path):
        base_dir = tmp_path / "base"
        res_dir = tmp_path / "res"
        write_doc(baseline_path(base_dir, "a"), doc(name="a"))
        write_doc(baseline_path(res_dir, "a"), doc(name="a"))
        write_doc(baseline_path(res_dir, "b"), doc(name="b"))  # new
        write_doc(baseline_path(base_dir, "c"), doc(name="c"))  # stale
        comps = {c.name: c for c in compare_dirs(res_dir, base_dir)}
        assert comps["a"].status == "pass"
        assert comps["b"].status == "skip"  # no baseline yet
        assert comps["c"].status == "skip"  # no fresh result
        assert "no fresh result" in comps["c"].notes[0]

    def test_worst_status_orders_severity(self):
        def mk(s):
            return Comparison(name="x", status=s, notes=())
        assert worst_status([]) == "pass"
        assert worst_status([mk("pass"), mk("skip")]) == "skip"
        assert worst_status([mk("warn"), mk("skip")]) == "warn"
        assert worst_status([mk("warn"), mk("fail")]) == "fail"


class TestReports:
    def _comps(self):
        base = doc(counters={"work": 100})
        return [
            compare_doc(doc(), base),
            compare_doc(doc(name="worse", counters={"work": 150}), base),
        ]

    def test_markdown_leads_with_the_worst(self):
        text = render_markdown(self._comps())
        assert "Overall: **fail**" in text
        assert text.index("worse") < text.index("| bench |")
        assert "counter regression" in text

    def test_text_summary_has_overall_line(self):
        text = render_text(self._comps())
        assert "overall: fail" in text

    def test_json_report_is_serializable_and_counts(self):
        report = report_json(self._comps())
        assert report["overall"] == "fail"
        assert report["status_counts"] == {"pass": 1, "fail": 1}
        json.dumps(report)  # no stray non-JSON types
