"""Continuous-performance observability: measure, baseline, gate.

The reproduction's credibility rests on its own hot paths staying fast
(``simulate``/``VectorSimulator``, IAR, the study grid), yet free-form
benchmark text under ``benchmarks/output/`` cannot be regression-gated.
This package closes the loop:

* :mod:`repro.perf.harness` — the dual-signal measurement harness:
  robust wall-time stats (min/median/IQR over repeats) *plus*
  deterministic work counters from the instrumented engines, so "slower
  because more work" is distinguishable from "slower per unit of work"
  (and both from machine noise);
* :mod:`repro.perf.suites` — registered benchmarks and named suites
  (``quick`` covers every instrumented hot path);
* :mod:`repro.perf.baseline` — schema-versioned ``BENCH_<name>.json``
  baseline files (machine fingerprint, scale, git revision, stats,
  counters), written atomically;
* :mod:`repro.perf.compare` — the noise-aware comparator: counters
  compare exactly (an increase fails, a decrease warns until the
  baseline is refreshed), wall time against an IQR-derived threshold
  (drift warns, never fails), cross-machine timing is not compared;
* :mod:`repro.perf.report` — Markdown/JSON rendering of a comparison.

Driven by ``repro bench {run,compare,report}``; see
``docs/BENCHMARKS.md`` for the workflow, including how to refresh
baselines after an intentional change.
"""

from .baseline import (
    SCHEMA_VERSION,
    BaselineError,
    baseline_path,
    git_revision,
    legacy_doc,
    load_baseline,
    load_baseline_dir,
    machine_fingerprint,
    result_doc,
    write_baseline,
    write_doc,
    write_legacy_sidecar,
)
from .compare import (
    IQR_SCALE,
    REL_FLOOR,
    Comparison,
    CounterDiff,
    compare_dirs,
    compare_doc,
    worst_status,
)
from .harness import (
    BenchResult,
    HarnessError,
    TimingStats,
    counters_of,
    paired_ratio,
    robust_stats,
    run_benchmark,
)
from .report import render_markdown, render_text, report_json, to_json_text
from .suites import (
    DEFAULT_SCALE,
    REGISTRY,
    BenchSpec,
    get_suite,
    register,
    run_suite,
    suite_names,
)

__all__ = [
    "SCHEMA_VERSION",
    "BaselineError",
    "baseline_path",
    "git_revision",
    "legacy_doc",
    "load_baseline",
    "load_baseline_dir",
    "machine_fingerprint",
    "result_doc",
    "write_baseline",
    "write_doc",
    "write_legacy_sidecar",
    "IQR_SCALE",
    "REL_FLOOR",
    "Comparison",
    "CounterDiff",
    "compare_dirs",
    "compare_doc",
    "worst_status",
    "BenchResult",
    "HarnessError",
    "TimingStats",
    "counters_of",
    "paired_ratio",
    "robust_stats",
    "run_benchmark",
    "render_markdown",
    "render_text",
    "report_json",
    "to_json_text",
    "DEFAULT_SCALE",
    "REGISTRY",
    "BenchSpec",
    "get_suite",
    "register",
    "run_suite",
    "suite_names",
]
