"""The batch workloads: the paper's limit study and the fault sweep.

``study`` runs what ``repro study`` runs at its defaults (Table 1,
Figures 5-8, Table 2, the A* table) and ``faults-sweep`` what ``repro
faults sweep --rates 0.1,0.4`` runs, both on the nine DaCapo traces at
scale 0.01 with ``--jobs 1``.  A run measures whole studies, so its
length is set by the study, not by ``--seconds``: one ``study`` (about
30 s) or two ``faults-sweep`` studies (about 10 s each), whose mean
is reported.  Times are reported at the reference speed of the host
samples taken on the child's CPU while it ran (``speed.py``).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

from checks import check_batch, load_expected
from proc import OUT_DIR, PROGRAM_CPUS, Child, HostSteal
from result import Result
from speed import Sampler

# ``load_suite(seed=S)`` gives benchmark i the seed S + i; the CLI's
# ``load_suite()`` uses 0xDACA90 + i, so this seed reproduces its inputs.
DEFAULT_SEED = 0xDACA90
# ``repro study`` and ``repro faults sweep`` default to this scale.
SCALE = 0.01
# Studies per run: one ``study`` (about 30 s), two ``faults-sweep``
# (about 10 s each), whose mean is reported.
REPEATS = {"study": 1, "faults-sweep": 2}
# Set-up is short and noisy: measure it this many times per run, the
# studies' own set-ups included.
SETUP_SAMPLES = 5


@dataclass
class BatchRun:
    """One study; ``setup_s``, ``run_s`` and ``cpu_s`` are at the reference
    speed, ``measured_run_s`` is the wall time as measured."""

    setup_s: float
    run_s: float
    measured_run_s: float
    cpu_s: float
    peak_rss_mb: float
    steal_frac: float
    slowdown: float
    doc: Dict[str, object]


def _child_args(workload: str, seed: int, scale: float) -> List[str]:
    return ["--workload", workload, "--seed", str(seed), "--scale", repr(scale)]


def _stamp(line: str) -> float:
    """The child's ``time.perf_counter()`` reading printed after its marker."""
    return float(line.split()[1])


def setup_only(workload: str, seed: int, scale: float, speed: Sampler) -> float:
    """One set-up, at the reference speed."""
    child = Child("batch_child.py", _child_args(workload, seed, scale) + ["--setup-only"])
    try:
        ready = _stamp(child.expect("READY"))
        child.wait(timeout=30.0)
    finally:
        child.kill()
    return (ready - child.started) / speed.slowdown(child.started, ready)


def one_run(
    workload: str, seed: int, scale: float, speed: Sampler, trace_dir: Optional[str] = None
) -> BatchRun:
    tag = "traced" if trace_dir else "plain"
    out = OUT_DIR / f"{workload}-{seed}-{tag}.json"
    args = _child_args(workload, seed, scale) + ["--out", str(out)]
    if trace_dir is not None:
        args += ["--trace", trace_dir]
    child = Child("batch_child.py", args)
    try:
        ready = _stamp(child.expect("READY"))
        cpu_ready = child.cpu_s()
        host = HostSteal()
        done = _stamp(child.expect("ROWS"))
        cpu_s = child.cpu_s() - cpu_ready
        steal = host.frac()
        peak_rss_mb = child.peak_rss_mb()
        code = child.wait(timeout=120.0)
        if code != 0:
            raise RuntimeError(f"batch_child.py exited with code {code}")
    finally:
        child.kill()
    doc = json.loads(out.read_text(encoding="utf-8"))
    setup_s = (ready - child.started) / speed.slowdown(child.started, ready)
    slowdown = speed.slowdown(ready, done)
    return BatchRun(
        setup_s, (done - ready) / slowdown, done - ready, cpu_s / slowdown, peak_rss_mb, steal,
        slowdown, doc,
    )


def rows(workload: str, seed: int, scale: float) -> Dict[str, object]:
    """The output of one study, for tools that check rows, not times."""
    with Sampler(OUT_DIR / f"{workload}-{seed}-speed.bin", PROGRAM_CPUS) as speed:
        return one_run(workload, seed, scale, speed).doc


def run(workload: str, seed: int, seconds: int, trace: bool, scale: float = SCALE) -> Result:
    OUT_DIR.mkdir(exist_ok=True)
    result = Result(workload, seed)
    repeats = REPEATS[workload]
    with Sampler(OUT_DIR / f"{workload}-{seed}-speed.bin", PROGRAM_CPUS) as speed:
        setups = [] if trace else [
            setup_only(workload, seed, scale, speed) for _ in range(SETUP_SAMPLES - repeats)
        ]
        runs = [one_run(workload, seed, scale, speed) for _ in range(repeats)]
        traced = None
        if trace:
            trace_dir = OUT_DIR / f"{workload}-{seed}-spans"
            trace_dir.mkdir(exist_ok=True)
            traced = one_run(workload, seed, scale, speed, str(trace_dir))
        samples = speed.samples()
    result.note(f"host speed sampled {samples} times ({speed.mode} priority)")
    setups += [r.setup_s for r in runs]
    expected = load_expected(workload) if (seed, scale) == (DEFAULT_SEED, SCALE) else None
    if expected is None:
        result.note("rows checked against the invariants only (no expected rows for this seed)")
    else:
        result.note("rows compared with the expected rows and the invariants")
    for r in runs:
        _check(result, r.doc, expected)
    units = runs[0].doc["units"]
    result.attempted = units * repeats
    result.failed = sum(r.doc["failed_units"] for r in runs)
    run_s = [r.run_s for r in runs]
    cpu_us = [r.cpu_s / units * 1e6 for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    measured = " ".join(f"{r.measured_run_s:.4g}" for r in runs)
    result.put("setup_s", statistics.median(setups), "s", samples=setups)
    result.put("run_s", statistics.fmean(run_s), "s", samples=run_s, stat="mean",
               note=f"measured {measured} s")
    result.put("peak_rss_mb", statistics.median(rss), "MB", samples=rss)
    result.put("decisions_per_s", units / statistics.fmean(run_s), "1/s", note="units per second")
    result.put("cpu_us_per_request", statistics.fmean(cpu_us), "us", samples=cpu_us,
               note="CPU per unit", stat="mean")
    result.put("failed_frac", result.failed / result.attempted, "ratio")
    result.put("host.steal_frac", statistics.median(r.steal_frac for r in runs), "ratio")
    slowdowns = [r.slowdown for r in runs]
    result.put("host.slowdown", statistics.fmean(slowdowns), "ratio", samples=slowdowns,
               stat="mean")
    if traced is not None:
        _check(result, traced.doc, expected)
        _layers(result, traced, statistics.fmean(run_s))
    return result


def _check(result: Result, doc: Dict[str, object], expected) -> None:
    for problem in check_batch(doc, expected):
        result.problem(problem)


def _layers(result: Result, traced: BatchRun, plain_run_s: float) -> None:
    trace = traced.doc["trace"]
    spans, counts = trace["spans"], trace["counts"]
    window = trace["run_window_s"]

    def busy(name: str) -> float:
        return spans.get(name, {}).get("busy_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    result.put("workloads.generate_s", busy("workloads.generate"), "s")
    result.put("workloads.generate.calls", calls("workloads.generate"), "count")
    result.put(
        "workloads.generate.setup_s",
        trace["setup"].get("workloads.generate", {}).get("busy_s", 0.0),
        "s",
    )
    result.put("analysis.runner.self_s", self_s("analysis.runner"), "s")
    result.put("analysis.unit.max_s", spans.get("analysis.unit", {}).get("max_s", 0.0), "s")
    result.put("analysis.project.self_s", self_s("analysis.project"), "s")
    result.put(
        "analysis.drivers.self_s",
        sum(self_s(n) for n in ("analysis.unit", "analysis.table1", "analysis.astar_table")),
        "s",
    )
    for name in ("core.iar", "core.makespan.simulate", "vm.jikes"):
        result.put(f"{name}.busy_s", busy(name), "s")
        result.put(f"{name}.calls", calls(name), "count")
    for name in (
        "core.engine.make_simulator",
        "core.model.restrict",
        "core.bounds.lower_bound",
        "core.astar",
        "vm.v8",
        "faults.apply_to_schedule",
        "faults.injector",
    ):
        result.put(f"{name}.busy_s", busy(name), "s")
    for key in (
        "core.makespan.calls_replayed",
        "core.astar.nodes_expanded",
        "faults.plan.tasks",
        "faults.injector.draws",
    ):
        result.put(key, counts.get(key, 0), "count")
    tallies = {"compile_failures": 0, "retries": 0, "fallbacks": 0, "forced_installs": 0}
    for row in traced.doc["rows"].get("faults_sweep", []):
        for key in tallies:
            tallies[key] += row["faults"][key]
    for key, value in tallies.items():
        result.put(f"faults.{key}", value, "count")
    result.layer_shares(spans, window)
    result.put("trace.overhead_frac", traced.run_s / plain_run_s - 1.0, "ratio")
