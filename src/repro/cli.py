"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's workflow:

* ``generate`` — produce a trace file (a Table-1 preset or a custom
  synthetic spec);
* ``schedule`` — run a scheduling algorithm on a trace, writing the
  schedule;
* ``evaluate`` — simulate a schedule against a trace (make-span,
  bubbles, normalized gap);
* ``diagnose`` — decompose a schedule's gap above the lower bound;
* ``trace`` — record a scheme's run as a Chrome trace-event JSON file
  (open it at https://ui.perfetto.dev or ``chrome://tracing``);
* ``study`` — regenerate the paper's tables and figures, optionally
  through the content-addressed result cache (``--cache-dir``) with
  crash-resume (``--resume``), per-unit timeouts, and bounded retries;
* ``cache`` — inspect and maintain a result cache
  (``stats``/``gc``/``clear``);
* ``bench`` — the continuous-performance harness: ``run`` a benchmark
  suite (wall time + deterministic work counters), ``compare`` fresh
  results against committed ``BENCH_*.json`` baselines (counters gate
  exactly, timing drift warns), ``report`` renders Markdown/JSON;
* ``faults`` — fault-injection studies: ``sweep`` produces degradation
  curves (make-span vs fault rate per scheme; see
  ``docs/ROBUSTNESS.md``), and ``--faults SPEC`` on
  ``evaluate``/``diagnose``/``study`` runs those commands degraded;
* ``serve`` — the multi-tenant online decision service: ``run``
  starts the asyncio JSONL server (with the wall-clock telemetry plane
  and ``/healthz``/``/statusz``/``/metricsz``/``/flightz`` admin
  endpoints on the same port), ``replay`` load-drives it with
  interleaved DaCapo traces and reports decisions/sec + p99 latency
  (deterministic decision logs, bitwise identical with telemetry on or
  off; see ``docs/SERVICE.md``);
* ``top`` — one-shot or ``--interval`` terminal view of a live
  server's ``/statusz``: uptime, queue depth, per-tenant SLOs;
* ``telemetry`` — ``inspect`` reads a flight-recorder bundle (the
  black-box dump a server writes on crash, SIGUSR1, ``/flightz/dump``,
  or drain);
* ``instances`` — the versioned on-disk instance format:
  ``export`` writes a trace/benchmark as a canonical bundle,
  ``import`` builds bundles from external sources (V8 ``--trace-opt``
  logs, JVM ``-XX:+PrintCompilation`` logs, SCC due-date instance
  sets), ``validate`` fully checks bundles (format version, schema,
  content fingerprint), ``list`` summarizes a bundle directory; the
  ``--instance`` flag on ``evaluate``/``diagnose``/``study``/``faults
  sweep`` runs those commands on a bundle (see ``docs/INSTANCES.md``);
* ``walkthrough`` — the Figures 1–2 worked example.

Malformed inputs (bad trace/schedule files, bad fault specs) exit with
code 2 and a one-line ``repro: error: ...`` diagnostic; pass ``--debug``
before the subcommand to see the full traceback instead.

Every command reads/writes the JSON formats of
:mod:`repro.workloads.traces`, so pipelines compose:

.. code-block:: console

   $ python -m repro generate --benchmark antlr --scale 0.01 -o antlr.json
   $ python -m repro schedule antlr.json --algorithm iar -o antlr.iar.json
   $ python -m repro evaluate antlr.json antlr.iar.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional, Sequence

from .analysis import (
    astar_scaling,
    average_row,
    diagnose,
    format_errors,
    format_figure,
    format_table,
    run_parallel,
    table1,
)
from .core import (
    Schedule,
    greedy_budget_schedule,
    hotness_first_schedule,
    iar_schedule,
    lower_bound,
    ondemand_promotion_schedule,
    simulate,
)
from .core.engine import ENGINES, set_default_engine
from .core.single_level import base_level_schedule, optimizing_level_schedule
from .faults.spec import DIMENSIONS, FaultSpecError
from .vm.jikes import run_jikes
from .vm.v8 import run_v8
from .workloads import WorkloadSpec, dacapo, generate, traces

__all__ = ["main", "build_parser"]

_FIGURE_SERIES = ["lower_bound", "iar", "default", "base_level", "optimizing_level"]

# One seed contract for every command (the historical split — ``trace``
# defaulting to None but ``generate`` to 0, with an explicit 0 silently
# coerced to the preset default — is documented and tested away):
# omitted → the per-benchmark stable constant for Table 1 presets and 0
# for synthetic specs; an explicit integer (including 0) is always used
# as given.
_SEED_HELP = (
    "RNG seed; omitted = per-benchmark stable default (0 for synthetic "
    "specs), and an explicit 0 is honored as 0"
)


_ENGINE_HELP = (
    "make-span engine: 'reference' (pure-Python oracle) or 'vector' "
    "(numpy structure-of-arrays) — bitwise identical.  Without "
    "this flag, $REPRO_ENGINE picks it when set; otherwise IAR and the "
    "study/fault-sweep drivers use 'vector' and simulate() (evaluate, "
    "diagnose) uses 'reference'.  The flag overrides both defaults and "
    "reaches worker processes through $REPRO_ENGINE"
)


def _add_engine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=ENGINES, default=None, help=_ENGINE_HELP)


def _apply_engine(args: argparse.Namespace) -> None:
    """Make ``--engine`` the session default, inherited by worker
    processes through ``$REPRO_ENGINE``."""
    engine = getattr(args, "engine", None)
    if engine is not None:
        set_default_engine(engine)
        os.environ["REPRO_ENGINE"] = engine


def _schedulers() -> Dict[str, Callable]:
    return {
        "iar": iar_schedule,
        "base": base_level_schedule,
        "opt": optimizing_level_schedule,
        "hotness": hotness_first_schedule,
        "budget": greedy_budget_schedule,
        "ondemand": ondemand_promotion_schedule,
        "jikes": lambda inst: run_jikes(inst).schedule,
        "v8": lambda inst: run_v8(inst).schedule,
    }


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and ``--help`` docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Compilation scheduling for JIT-based runtime systems "
            "(ASPLOS 2014 reproduction)"
        ),
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="show full tracebacks instead of one-line error diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a trace file")
    gen.add_argument("--benchmark", choices=sorted(dacapo.BENCHMARKS), default=None)
    gen.add_argument("--scale", type=float, default=0.01)
    gen.add_argument("--functions", type=int, default=100)
    gen.add_argument("--calls", type=int, default=10_000)
    gen.add_argument("--levels", type=int, default=4)
    gen.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    gen.add_argument("-o", "--output", required=True)

    sch = sub.add_parser("schedule", help="schedule a trace")
    sch.add_argument("trace")
    sch.add_argument(
        "--algorithm", choices=sorted(_schedulers()), default="iar"
    )
    sch.add_argument("-o", "--output", required=True)

    ev = sub.add_parser("evaluate", help="simulate a schedule on a trace")
    ev.add_argument("trace", nargs="?", default=None)
    ev.add_argument("schedule")
    ev.add_argument(
        "--instance",
        default=None,
        metavar="BUNDLE",
        help=(
            "evaluate against an instance bundle directory instead of a "
            "trace file (prints due-date objectives when the bundle "
            "carries due dates)"
        ),
    )
    ev.add_argument(
        "--threads",
        type=int,
        default=None,
        help=(
            "compile threads (default: the bundle's machine environment "
            "with --instance, else 1)"
        ),
    )
    _add_engine_arg(ev)
    ev.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "also simulate under this fault spec (key=value,... — see "
            "docs/ROBUSTNESS.md) and report the degradation"
        ),
    )

    diag = sub.add_parser("diagnose", help="decompose a schedule's gap")
    diag.add_argument("trace", nargs="?", default=None)
    diag.add_argument("schedule")
    diag.add_argument(
        "--instance",
        default=None,
        metavar="BUNDLE",
        help="diagnose against an instance bundle directory instead of a "
        "trace file",
    )
    diag.add_argument("--top", type=int, default=10)
    _add_engine_arg(diag)
    diag.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "also attribute the extra gap a fault spec induces "
            "(key=value,... — see docs/ROBUSTNESS.md)"
        ),
    )
    diag.add_argument(
        "--intervals",
        type=int,
        default=0,
        help="also attribute the gap to N equal timeline slices",
    )
    diag.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help=(
            "write the full decomposition (all functions and intervals, "
            "not just --top) as JSON to PATH ('-' = stdout, suppressing "
            "the tables)"
        ),
    )

    tr = sub.add_parser(
        "trace", help="record a scheme's run as a Chrome trace file"
    )
    tr.add_argument("benchmark", choices=sorted(dacapo.BENCHMARKS))
    tr.add_argument(
        "--scheme", choices=["iar", "jikes", "v8"], default="iar"
    )
    tr.add_argument("--scale", type=float, default=0.01)
    tr.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    tr.add_argument("--threads", type=int, default=1)
    tr.add_argument(
        "--format", choices=["chrome", "jsonl"], default="chrome"
    )
    tr.add_argument("-o", "--out", required=True)

    study = sub.add_parser("study", help="regenerate the paper's evaluation")
    study.add_argument("--scale", type=float, default=0.01)
    study.add_argument(
        "--instance",
        default=None,
        metavar="BUNDLE",
        help=(
            "run the figure/table drivers on this instance bundle instead "
            "of the DaCapo suite (the preset-only table1/astar sections "
            "are skipped)"
        ),
    )
    _add_engine_arg(study)
    study.add_argument(
        "--figure",
        choices=["table1", "fig5", "fig6", "fig7", "fig8", "table2", "astar", "all"],
        default="all",
    )
    study.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the figure/table drivers (benchmarks fan "
            "out per process; results are identical to --jobs 1); "
            "0 = one per CPU"
        ),
    )
    study.add_argument(
        "--trace-dir",
        default=None,
        help=(
            "also dump a Chrome trace file per benchmark for the "
            "figure 5/6/8 runs into this directory"
        ),
    )
    study.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "run the figure 5/6/8 schemes degraded under this fault "
            "spec (key=value,... — see docs/ROBUSTNESS.md)"
        ),
    )
    study.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "content-addressed result store: (driver, benchmark) cells "
            "already in the cache are served from it, newly computed "
            "rows are written back"
        ),
    )
    study.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse completed units from the previous run's checkpoint "
            "journal in --cache-dir (a killed run continues where it "
            "stopped)"
        ),
    )
    study.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-unit wall-clock budget in seconds (parallel runs only)",
    )
    study.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="failed/timed-out attempts retried per unit (default: 2)",
    )
    study.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any (driver, benchmark) unit failed",
    )
    study.add_argument(
        "--json-out",
        default=None,
        help=(
            "also write all rows, errors, unit statuses, and the runner "
            "metrics snapshot (with histogram p50/p90/p99) as JSON, plus "
            "the 'table1' and 'astar' rows when those sections run"
        ),
    )

    bench = sub.add_parser(
        "bench", help="run/compare the continuous-performance benchmarks"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    brun = bench_sub.add_parser(
        "run", help="run a suite, writing one BENCH_<name>.json per benchmark"
    )
    brun.add_argument("--suite", default="quick")
    _add_engine_arg(brun)
    brun.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale (default: $REPRO_SCALE or 0.01)",
    )
    brun.add_argument(
        "--repeats", type=int, default=None,
        help="timed repeats per benchmark (default: per-benchmark spec)",
    )
    brun.add_argument(
        "--warmups", type=int, default=None,
        help="untimed warmups per benchmark (default: per-benchmark spec)",
    )
    brun.add_argument(
        "--out",
        default="benchmarks/results",
        help="directory for fresh result documents",
    )
    brun.add_argument(
        "--update-baselines",
        action="store_true",
        help="write into --baseline-dir instead (refreshing the committed "
        "baselines after an intentional change)",
    )
    brun.add_argument("--baseline-dir", default="benchmarks/baselines")
    for action, helptext in (
        ("compare", "gate fresh results against the committed baselines"),
        ("report", "render a comparison without gating (always exits 0)"),
    ):
        bcmp = bench_sub.add_parser(action, help=helptext)
        bcmp.add_argument("--results", default="benchmarks/results")
        bcmp.add_argument("--baselines", default="benchmarks/baselines")
        bcmp.add_argument(
            "--json", default=None, metavar="PATH",
            help="write the machine-readable report to PATH",
        )
        bcmp.add_argument(
            "--markdown", default=None, metavar="PATH",
            help="write the Markdown report to PATH ('-' = stdout)",
        )

    faults = sub.add_parser(
        "faults", help="fault-injection and graceful-degradation studies"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    fsw = faults_sub.add_parser(
        "sweep",
        help="degradation curves: normalized make-span vs fault rate",
    )
    fsw.add_argument("--scale", type=float, default=0.01)
    fsw.add_argument(
        "--instance",
        default=None,
        metavar="BUNDLE",
        help="sweep this instance bundle instead of the DaCapo suite",
    )
    fsw.add_argument(
        "--rates",
        default="0,0.05,0.1,0.2,0.4",
        help="comma-separated fault rates to sweep",
    )
    fsw.add_argument(
        "--dimension",
        choices=list(DIMENSIONS),
        default="compile_fail",
        help="the fault dimension the sweep varies",
    )
    fsw.add_argument(
        "--spec",
        default="",
        help=(
            "base fault spec (key=value,...); the swept dimension's rate "
            "is overridden point by point, everything else stays fixed"
        ),
    )
    fsw.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fault seed (overrides the base spec's seed)",
    )
    fsw.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (benchmarks fan out; 0 = one per CPU)",
    )
    fsw.add_argument("--cache-dir", default=None)
    fsw.add_argument("--resume", action="store_true")
    fsw.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any benchmark unit failed",
    )
    fsw.add_argument(
        "--json-out",
        default=None,
        help="write rows and curves as deterministic JSON",
    )

    serve = sub.add_parser(
        "serve", help="the multi-tenant online decision service"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    srun = serve_sub.add_parser(
        "run", help="start the asyncio JSONL decision server"
    )
    srun.add_argument("--host", default="127.0.0.1")
    srun.add_argument(
        "--port", type=int, default=0,
        help="listen port (default: 0 = kernel-assigned, printed on start)",
    )
    srun.add_argument(
        "--no-telemetry", action="store_true",
        help="disable the wall-clock telemetry plane (admin endpoints "
        "answer 409/empty; decision logs are bitwise identical either "
        "way)",
    )
    srun.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the final status (summary, SLOs, telemetry "
        "snapshot) as JSON when the server stops",
    )
    srep = serve_sub.add_parser(
        "replay",
        help="load-drive the service with interleaved DaCapo traces",
    )
    srep.add_argument(
        "--tenants", type=int, default=8,
        help="concurrent tenants (each replays its own DaCapo trace)",
    )
    srep.add_argument(
        "--events", type=int, default=1000,
        help="total call events across all tenants",
    )
    srep.add_argument("--scale", type=float, default=0.02)
    srep.add_argument(
        "--seed", type=int, default=0,
        help="stream seed: same seed, same event interleave, same "
        "decision log — bitwise",
    )
    srep.add_argument(
        "--mode", choices=["inproc", "socket"], default="inproc",
        help="'inproc' replays straight through the engine; 'socket' "
        "drives a real loopback server (same decision log, bitwise)",
    )
    srep.add_argument(
        "--events-file", default=None, metavar="PATH",
        help="replay this JSONL event file instead of generating one",
    )
    srep.add_argument(
        "--save-events", default=None, metavar="PATH",
        help="also write the generated event stream as JSONL",
    )
    srep.add_argument(
        "--decisions-out", default=None, metavar="PATH",
        help="write the decision log (canonical JSONL, sorted by seq); "
        "doubles as the resume journal",
    )
    srep.add_argument(
        "--resume", action="store_true",
        help="keep decisions already journaled in --decisions-out and "
        "emit only the missing ones (no duplicates; final file bitwise "
        "equals an uninterrupted run)",
    )
    srep.add_argument(
        "--window", type=int, default=32,
        help="socket mode: pipelined in-flight requests per tenant",
    )
    srep.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the replay report (rates, latency stats) as JSON",
    )
    srep.add_argument(
        "--telemetry", action="store_true",
        help="attach the wall-clock telemetry plane (per-tenant SLOs "
        "in the report; the decision log stays bitwise identical)",
    )
    for sp in (srun, srep):
        sp.add_argument(
            "--flight-dir", default=None, metavar="DIR",
            help="write flight-recorder bundles here (on crash, "
            "SIGUSR1, /flightz/dump, and drain); requires telemetry",
        )
        sp.add_argument(
            "--flight-capacity", type=int, default=256,
            help="flight-recorder ring size per shard (last N "
            "request+decision pairs)",
        )
        sp.add_argument(
            "--slo-window", type=float, default=60.0,
            help="sliding-window seconds for live per-tenant SLOs",
        )
        sp.add_argument(
            "--faults", default=None, metavar="SPEC",
            help="fault spec (key=value,...) injected on the serving "
            "path; zero-rate specs are bitwise equal to no spec",
        )
        sp.add_argument(
            "--shards", type=int, default=8,
            help="tenant-map shards (a scaling knob; never changes a "
            "decision)",
        )
        sp.add_argument(
            "--optimism", type=float, default=1.0,
            help="policy knob: predicted future calls per observed call",
        )
        sp.add_argument(
            "--max-functions", type=int, default=4096,
            help="per-tenant hotness budget (LRU-evicted beyond it)",
        )
        sp.add_argument(
            "--max-tenants", type=int, default=1024,
            help="per-shard tenant budget (LRU-evicted beyond it)",
        )
        sp.add_argument(
            "--no-decision-cache", action="store_true",
            help="disable the shared cross-tenant decision cache",
        )
        sp.add_argument(
            "--batch-max", type=int, default=64,
            help="decision requests served per batched round",
        )
        sp.add_argument(
            "--queue-limit", type=int, default=1024,
            help="bounded request queue (backpressure bound)",
        )
        sp.add_argument(
            "--admission-limit", type=int, default=4096,
            help="queued requests beyond which new ones are refused "
            "with a retryable 'overloaded' error",
        )

    top = sub.add_parser(
        "top",
        help="terminal view of a live server's /statusz (uptime, "
        "queue, per-tenant SLOs)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="refresh every SECONDS (default: one shot)",
    )
    top.add_argument(
        "--count", type=int, default=0,
        help="with --interval: stop after N refreshes (0 = forever)",
    )
    top.add_argument(
        "--json", action="store_true",
        help="print the raw /statusz JSON instead of the table",
    )

    telemetry = sub.add_parser(
        "telemetry", help="read wall-clock telemetry artifacts"
    )
    telemetry_sub = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    tins = telemetry_sub.add_parser(
        "inspect",
        help="read a flight-recorder JSONL bundle (header, per-tenant "
        "and per-action tallies, most recent entries)",
    )
    tins.add_argument("path", help="a flight-*.jsonl bundle")
    tins.add_argument(
        "--last", type=int, default=10,
        help="show the last N entries (default 10; 0 = none)",
    )
    tins.add_argument(
        "--json", action="store_true",
        help="print the whole bundle as one JSON document",
    )

    cache = sub.add_parser(
        "cache", help="inspect/maintain a result cache directory"
    )
    cache.add_argument("action", choices=["stats", "gc", "clear"])
    cache.add_argument("--cache-dir", required=True)
    cache.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="gc: also drop entries older than this many days",
    )
    cache.add_argument(
        "--current-code-only",
        action="store_true",
        help="gc: also drop entries written under a different code-version salt",
    )

    imp = sub.add_parser(
        "import-trace", help="build a trace from a profiler call log + cost CSV"
    )
    imp.add_argument("call_log")
    imp.add_argument("cost_table")
    imp.add_argument("--name", default="imported")
    imp.add_argument("-o", "--output", required=True)

    inst = sub.add_parser(
        "instances", help="the versioned on-disk instance format"
    )
    inst_sub = inst.add_subparsers(dest="instances_command", required=True)
    iexp = inst_sub.add_parser(
        "export",
        help="write a trace/benchmark/bundle as a canonical bundle "
        "(byte-identical for identical content)",
    )
    iexp.add_argument(
        "source",
        nargs="?",
        default=None,
        help="a trace JSON file or an existing bundle to re-export",
    )
    iexp.add_argument(
        "--benchmark", choices=sorted(dacapo.BENCHMARKS), default=None
    )
    iexp.add_argument("--scale", type=float, default=0.01)
    iexp.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    iexp.add_argument(
        "--name", default=None, help="rename the exported instance"
    )
    iexp.add_argument("-o", "--output", required=True, metavar="DIR")
    iimp = inst_sub.add_parser(
        "import", help="build a bundle from an external workload source"
    )
    iimp.add_argument(
        "source", help="log file (v8/jvm) or SCC prefix/directory"
    )
    iimp.add_argument(
        "--format",
        dest="fmt",
        required=True,
        choices=["v8", "jvm", "scc"],
        help="source kind: V8 --trace-opt log, JVM -XX:+PrintCompilation "
        "log, or an SCC due-date instance set",
    )
    iimp.add_argument("--name", default=None, help="instance label")
    iimp.add_argument("-o", "--output", required=True, metavar="DIR")
    ival = inst_sub.add_parser(
        "validate",
        help="fully validate bundles (schema, monotone costs, counts, "
        "content fingerprint); exits 2 on the first problem",
    )
    ival.add_argument("paths", nargs="+", metavar="BUNDLE")
    ilist = inst_sub.add_parser(
        "list", help="summarize every bundle under a directory"
    )
    ilist.add_argument("root")
    ilist.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the summaries as JSON to PATH ('-' = stdout)",
    )

    sub.add_parser("walkthrough", help="the Figures 1-2 worked example")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.benchmark:
        # None → dacapo.load's per-benchmark stable constant; an
        # explicit seed (including 0) is passed through untouched.
        instance = dacapo.load(args.benchmark, scale=args.scale, seed=args.seed)
    else:
        seed = 0 if args.seed is None else args.seed
        spec = WorkloadSpec(
            name=f"cli-{seed}",
            num_functions=args.functions,
            num_calls=args.calls,
            num_levels=args.levels,
        )
        instance = generate(spec, seed=seed)
    traces.save(instance, args.output)
    print(
        f"wrote {args.output}: {instance.num_calls} calls over "
        f"{instance.num_functions} functions"
    )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    instance = traces.load(args.trace)
    schedule = _schedulers()[args.algorithm](instance)
    traces.save_schedule(schedule, args.output)
    print(f"wrote {args.output}: {len(schedule)} compile tasks ({args.algorithm})")
    return 0


def _load_trace_or_bundle(args: argparse.Namespace, command: str):
    """Resolve the TRACE positional vs ``--instance`` into
    ``(instance, bundle-or-None)``; exactly one source must be given."""
    if (args.trace is None) == (args.instance is None):
        raise ValueError(
            f"{command}: give either a TRACE file or --instance BUNDLE "
            f"(exactly one)"
        )
    if args.instance is not None:
        from .instances import read_bundle

        bundle = read_bundle(args.instance)
        return bundle.instance, bundle
    return traces.load(args.trace), None


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _apply_engine(args)
    instance, bundle = _load_trace_or_bundle(args, "evaluate")
    schedule = traces.load_schedule(args.schedule, instance=instance)
    threads = args.threads
    if threads is None:
        threads = bundle.compile_threads if bundle is not None else 1
    due = bundle.due_dates if bundle is not None else None
    result = simulate(
        instance,
        schedule,
        compile_threads=threads,
        engine=args.engine,
        record_timeline=due is not None,
    )
    lb = lower_bound(instance)
    print(f"make-span:        {result.makespan:.1f}")
    print(f"lower bound:      {lb:.1f}")
    print(f"normalized:       {result.makespan / lb:.3f}")
    print(f"bubbles:          {result.total_bubble_time:.1f}")
    print(f"execution:        {result.total_exec_time:.1f}")
    print(f"calls per level:  {dict(sorted(result.calls_at_level.items()))}")
    if due is not None:
        from .core import objectives_from_timeline

        obj = objectives_from_timeline(result, due)
        print()
        print(f"due-date objectives ({obj.num_jobs} dued functions):")
        print(f"  max tardiness:       {obj.max_tardiness:.1f}")
        print(f"  weighted tardiness:  {obj.total_weighted_tardiness:.1f}")
        print(f"  weighted completion: {obj.weighted_completion:.1f}")
        print(f"  late functions:      {obj.num_late} of {obj.num_jobs}")
    if args.faults is not None:
        from .faults import simulate_with_faults

        faulted, plan = simulate_with_faults(
            instance, schedule, args.faults,
            compile_threads=threads, validate=False,
            engine=args.engine,
        )
        print()
        print(f"with faults ({args.faults}):")
        print(f"  make-span:      {faulted.makespan:.1f}")
        print(f"  normalized:     {faulted.makespan / lb:.3f}")
        print(
            f"  degradation:    {faulted.makespan / result.makespan:.3f}x "
            f"(+{faulted.makespan - result.makespan:.1f})"
        )
        summary = plan.summary()
        print(
            f"  faults:         {plan.failures} failed attempts, "
            f"{plan.retries} retries, {plan.fallbacks} fallbacks, "
            f"{plan.forced_installs} forced installs, {plan.stalls} stalls"
        )
        print(
            f"  wasted compile: {summary['wasted_compile_time']:.1f}"
        )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    _apply_engine(args)
    instance, _bundle = _load_trace_or_bundle(args, "diagnose")
    schedule = traces.load_schedule(args.schedule, instance=instance)
    report = diagnose(instance, schedule, intervals=args.intervals)
    if args.json is not None:
        import json as _json

        text = _json.dumps(report.as_dict(), indent=2)
        if args.json == "-":
            print(text)
            return 0
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json}")
    print(f"make-span {report.makespan:.1f} = lower bound {report.lower_bound:.1f}"
          f" + bubbles {report.bubbles:.1f}"
          f" + pre-upgrade excess {report.excess_before_upgrade:.1f}"
          f" + never-upgraded excess {report.excess_never_upgraded:.1f}")
    print()
    print(format_table(report.rows(args.top), title="worst offenders"))
    if report.per_interval:
        print()
        print(format_table(report.interval_rows(), title="gap by interval"))
    if args.faults is not None:
        from .faults import simulate_with_faults

        faulted, plan = simulate_with_faults(
            instance, schedule, args.faults, validate=False
        )
        fault_gap = faulted.makespan - report.makespan
        summary = plan.summary()
        print()
        print(f"fault attribution ({args.faults}):")
        print(f"  fault-free make-span: {report.makespan:.1f}")
        print(f"  faulted make-span:    {faulted.makespan:.1f}")
        print(f"  fault-induced gap:    {fault_gap:.1f}")
        print(
            f"  events: {plan.failures} failed attempts, {plan.retries} "
            f"retries, {plan.fallbacks} fallbacks, {plan.forced_installs} "
            f"forced installs, {plan.stalls} stalls"
        )
        print(
            f"  wasted compile time:  {summary['wasted_compile_time']:.1f}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis import format_trace_summary
    from .observability import Tracer, write_chrome_trace, write_jsonl

    instance = dacapo.load(args.benchmark, scale=args.scale, seed=args.seed)
    tracer = Tracer()
    if args.scheme == "iar":
        schedule = iar_schedule(instance)
        result = simulate(
            instance,
            schedule,
            compile_threads=args.threads,
            validate=False,
            tracer=tracer,
        )
        makespan = result.makespan
    elif args.scheme == "jikes":
        makespan = run_jikes(
            instance, compile_threads=args.threads, tracer=tracer
        ).makespan
    else:  # v8
        makespan = run_v8(
            instance, compile_threads=args.threads, tracer=tracer
        ).makespan
    if args.format == "chrome":
        count = write_chrome_trace(tracer, args.out)
    else:
        count = write_jsonl(tracer, args.out)
    print(format_trace_summary(tracer))
    print(f"make-span: {makespan:.1f}")
    print(f"wrote {args.out}: {count} events ({args.format})")
    return 0


_STUDY_DRIVERS = {
    "fig5": ("figure5", "Figure 5"),
    "fig6": ("figure6", "Figure 6"),
    "fig7": ("figure7", "Figure 7"),
    "fig8": ("figure8", "Figure 8"),
    "table2": ("table2", "Table 2"),
}


def _cmd_study(args: argparse.Namespace) -> int:
    _apply_engine(args)
    wanted = args.figure
    jobs = None if args.jobs == 0 else args.jobs
    run = None
    registry = None
    bundle = None
    if args.instance is not None:
        from .instances import read_bundle

        bundle = read_bundle(args.instance)
        if wanted in ("table1", "astar"):
            raise ValueError(
                f"study: --figure {wanted} uses the Table 1 presets and "
                f"cannot run on --instance"
            )
    # Sections that ran, under the keys --json-out writes them with.
    sections: Dict[str, object] = {}
    if wanted in ("table1", "all") and bundle is None:
        sections["table1"] = table1(scale=args.scale)
        print(format_table(sections["table1"], title="Table 1", precision=1))
        print()
    if wanted in _STUDY_DRIVERS or wanted == "all":
        if bundle is not None:
            suite = {bundle.name: bundle.instance}
        else:
            suite = dacapo.load_suite(scale=args.scale)
        keys = list(_STUDY_DRIVERS) if wanted == "all" else [wanted]
        drivers = [_STUDY_DRIVERS[key][0] for key in keys]
        driver_kwargs: Dict[str, Dict[str, object]] = {}
        for name in ("figure5", "figure6", "figure8"):
            if name not in drivers:
                continue
            kwargs: Dict[str, object] = {}
            if args.trace_dir is not None:
                kwargs["trace_dir"] = args.trace_dir
            if args.faults is not None:
                # Canonicalize up front: parse errors surface before any
                # work, and the spec fingerprints stably in the cache.
                from .faults import parse_fault_spec

                kwargs["faults"] = parse_fault_spec(args.faults).canonical()
            if kwargs:
                driver_kwargs[name] = kwargs
        from .observability import MetricsRegistry

        registry = MetricsRegistry()
        run = run_parallel(
            suite,
            drivers,
            jobs=jobs,
            driver_kwargs=driver_kwargs,
            cache=args.cache_dir,
            resume=args.resume,
            timeout=args.timeout,
            max_retries=args.max_retries,
            metrics=registry,
        )
        for key in keys:
            driver, title = _STUDY_DRIVERS[key]
            rows = run.rows[driver]
            if not rows:
                continue  # every benchmark of this driver failed
            if driver == "figure7":
                # Speed-up factors: a plain average is the convention.
                series = [c for c in rows[0] if c.startswith("cores_")]
                mean = "arith"
            elif driver == "table2":
                print(format_table(rows, title=title, precision=4))
                print()
                continue
            else:
                # Normalized make-spans are ratios: geometric mean.
                series = _FIGURE_SERIES
                mean = "geo"
            rows = list(rows)
            rows.insert(0, average_row(rows, series, mean=mean))
            print(format_figure(rows, series, title=title))
            print()
        if args.cache_dir is not None:
            counts = run.status_counts()
            summary = ", ".join(
                f"{counts[s]} {s}" for s in sorted(counts)
            )
            print(
                f"units: {len(run.statuses)} total ({summary}); "
                f"cache: {run.cache_hits} hits / {run.cache_misses} misses"
            )
        warnings = format_errors(run.errors)
        if warnings:
            print(warnings, file=sys.stderr)
    if wanted in ("astar", "all") and bundle is None:
        sections["astar"] = astar_scaling(max_frontier=200_000)
        print(
            format_table(
                sections["astar"], title="A*-search feasibility", precision=1
            )
        )
    if args.json_out is not None:
        import json as _json

        doc: Dict[str, object] = {}
        if run is not None:
            doc = {
                "rows": run.rows,
                "errors": list(run.errors),
                "statuses": run.statuses,
                "cache_hits": run.cache_hits,
                "cache_misses": run.cache_misses,
                "metrics": registry.snapshot(),
            }
        doc.update(sections)
        with open(args.json_out, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2)
        print(f"wrote {args.json_out}")
    if args.strict and run is not None and not run.ok:
        return 1
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import dataclasses
    import json as _json

    from .faults import parse_fault_spec
    from .faults.sweep import degradation_curves
    from .observability import MetricsRegistry

    base = parse_fault_spec(args.spec)
    if args.seed is not None:
        base = dataclasses.replace(base, seed=args.seed)
    try:
        rates = tuple(
            float(item) for item in args.rates.split(",") if item.strip()
        )
    except ValueError:
        raise FaultSpecError(
            f"fault spec: --rates must be comma-separated numbers, "
            f"got {args.rates!r}"
        ) from None
    if not rates:
        raise FaultSpecError("fault spec: --rates is empty")
    # Validate the swept rates up front (e.g. compile_fail > 1).
    for rate in rates:
        base.scaled(args.dimension, rate)

    if args.instance is not None:
        from .instances import read_bundle

        bundle = read_bundle(args.instance)
        suite = {bundle.name: bundle.instance}
    else:
        suite = dacapo.load_suite(scale=args.scale)
    spec_str = base.canonical()
    jobs = None if args.jobs == 0 else args.jobs
    registry = MetricsRegistry()
    run = run_parallel(
        suite,
        ("faults_sweep",),
        jobs=jobs,
        driver_kwargs={
            "faults_sweep": {
                "spec": spec_str,
                "rates": rates,
                "dimension": args.dimension,
            }
        },
        cache=args.cache_dir,
        resume=args.resume,
        metrics=registry,
    )
    rows = run.rows["faults_sweep"]
    curves = degradation_curves(rows) if rows else []
    print(
        format_figure(
            curves,
            _FIGURE_SERIES,
            label_key="fault_rate",
            title=(
                f"degradation vs {args.dimension} rate "
                f"(geomean over {len(suite)} benchmarks)"
            ),
        )
    )
    warnings = format_errors(run.errors)
    if warnings:
        print(warnings, file=sys.stderr)
    if args.json_out is not None:
        doc = {
            "dimension": args.dimension,
            "spec": spec_str,
            "rates": list(rates),
            "rows": rows,
            "curves": curves,
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    if args.strict and not run.ok:
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .store import CODE_VERSION, ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats().as_dict()
        print(f"root:        {stats['root']}")
        print(f"entries:     {stats['entries']}")
        print(f"total bytes: {stats['total_bytes']}")
        for driver, count in stats["by_driver"].items():
            print(f"  {driver}: {count}")
        return 0
    if args.action == "gc":
        removed = store.gc(
            max_age_days=args.max_age_days,
            code_version=CODE_VERSION if args.current_code_only else None,
        )
        print(f"gc: removed {removed} file(s)")
        return 0
    removed = store.clear()
    print(f"clear: removed {removed} entrie(s)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf import (
        DEFAULT_SCALE,
        compare_dirs,
        render_markdown,
        render_text,
        run_suite,
        to_json_text,
        worst_status,
        write_baseline,
    )

    if args.bench_command == "run":
        _apply_engine(args)
        scale = args.scale
        if scale is None:
            scale = float(os.environ.get("REPRO_SCALE", DEFAULT_SCALE))
        out_dir = args.baseline_dir if args.update_baselines else args.out
        try:
            results = run_suite(
                args.suite,
                scale=scale,
                warmups=args.warmups,
                repeats=args.repeats,
                progress=lambda name: print(f"running {name} ..."),
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        for result in results:
            path = write_baseline(out_dir, result)
            timing = result.timing
            print(
                f"  {result.name:<24} median {timing.median_s * 1e3:8.2f} ms "
                f"(iqr {timing.iqr_s * 1e3:.2f} ms, "
                f"{len(result.counters)} counters) -> {path}"
            )
        kind = "baselines" if args.update_baselines else "results"
        print(
            f"wrote {len(results)} {kind} to {out_dir} "
            f"(suite={args.suite}, scale={scale})"
        )
        return 0

    # compare / report share the pipeline; only the gating differs.
    comparisons = compare_dirs(args.results, args.baselines)
    if args.markdown == "-":
        print(render_markdown(comparisons))
    else:
        print(render_text(comparisons))
        if args.markdown is not None:
            with open(args.markdown, "w", encoding="utf-8") as fh:
                fh.write(render_markdown(comparisons))
            print(f"wrote {args.markdown}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(to_json_text(comparisons))
        print(f"wrote {args.json}")
    if args.bench_command == "report":
        return 0
    overall = worst_status(comparisons)
    if os.environ.get("GITHUB_ACTIONS") == "true":
        for comparison in comparisons:
            if comparison.status == "warn":
                notes = "; ".join(comparison.notes)
                print(f"::warning title=bench {comparison.name}::{notes}")
    return 1 if overall == "fail" else 0


def _cmd_import_trace(args: argparse.Namespace) -> int:
    from .workloads.call_log import instance_from_logs

    instance = instance_from_logs(args.call_log, args.cost_table, name=args.name)
    traces.save(instance, args.output)
    print(
        f"wrote {args.output}: {instance.num_calls} calls over "
        f"{instance.num_functions} functions"
    )
    return 0


def _print_bundle_summary(path, summary: Dict[str, object]) -> None:
    print(
        f"wrote {path}: {summary['functions']} functions, "
        f"{summary['calls']} calls, {summary['levels']} levels, "
        f"{summary['due_dates']} due dates ({summary['source']})"
    )
    print(f"fingerprint: {summary['fingerprint']}")


def _cmd_instances(args: argparse.Namespace) -> int:
    import dataclasses

    from . import instances as inst

    if args.instances_command == "export":
        if (args.source is None) == (args.benchmark is None):
            raise ValueError(
                "instances export: give either a trace/bundle SOURCE or "
                "--benchmark (exactly one)"
            )
        if args.benchmark is not None:
            instance = dacapo.load(
                args.benchmark, scale=args.scale, seed=args.seed
            )
            bundle = inst.InstanceBundle(instance=instance, source="synthetic")
        else:
            source = args.source
            from pathlib import Path as _Path

            p = _Path(source)
            if p.is_dir() or p.name == inst.MANIFEST_FILE:
                bundle = inst.read_bundle(source)
            else:
                bundle = inst.InstanceBundle(
                    instance=traces.load(source), source="trace"
                )
        if args.name is not None:
            bundle = dataclasses.replace(
                bundle,
                instance=dataclasses.replace(bundle.instance, name=args.name),
            )
        path = inst.write_bundle(bundle, args.output)
        _print_bundle_summary(path, bundle.summary())
        return 0

    if args.instances_command == "import":
        importer = {
            "v8": inst.bundle_from_v8_log,
            "jvm": inst.bundle_from_jvm_log,
            "scc": inst.bundle_from_scc,
        }[args.fmt]
        bundle = importer(args.source, name=args.name)
        path = inst.write_bundle(bundle, args.output)
        _print_bundle_summary(path, bundle.summary())
        return 0

    if args.instances_command == "validate":
        for path in args.paths:
            summary = inst.validate_bundle(path).summary()
            print(
                f"ok {path}: {summary['name']} "
                f"({summary['functions']} functions, "
                f"{summary['calls']} calls, {summary['levels']} levels, "
                f"{summary['due_dates']} due dates) "
                f"{summary['fingerprint'][:16]}"
            )
        print(f"validated {len(args.paths)} bundle(s)")
        return 0

    # list
    rows = inst.list_bundles(args.root)
    if args.json is not None:
        import json as _json

        text = _json.dumps(rows, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            print(text, end="")
            return 0
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.json}")
    if not rows:
        print(f"no bundles under {args.root}")
        return 0
    for row in rows:
        if "error" in row:
            print(f"{row['path']}: ERROR {row['error']}")
        else:
            print(
                f"{row['path']}: {row['name']} source={row['source']} "
                f"functions={row['functions']} calls={row['calls']} "
                f"levels={row['levels']} due={row['due_dates']} "
                f"{str(row['fingerprint'])[:16]}"
            )
    return 0


def _cmd_walkthrough(_args: argparse.Namespace) -> int:
    from .analysis import format_timeline
    from .core import FunctionProfile, OCSPInstance, optimal_schedule

    profiles = {
        "f0": FunctionProfile("f0", (1.0,), (1.0,)),
        "f1": FunctionProfile("f1", (1.0, 4.0), (3.0, 2.0)),
        "f2": FunctionProfile("f2", (1.0, 5.0), (3.0, 1.0)),
    }
    fig1 = OCSPInstance(profiles, ("f0", "f1", "f2", "f1"), name="fig1")
    schemes = {
        "s1 (all level 0)": Schedule.of(("f0", 0), ("f1", 0), ("f2", 0)),
        "s2 (f1 at level 1)": Schedule.of(("f0", 0), ("f1", 1), ("f2", 0)),
        "s3 (f1 twice)": Schedule.of(
            ("f0", 0), ("f1", 0), ("f2", 0), ("f1", 1)
        ),
    }
    print("Figure 1: call sequence f0 f1 f2 f1")
    for title, schedule in schemes.items():
        result = simulate(fig1, schedule, record_timeline=True)
        print(f"--- {title} ---")
        print(format_timeline(result))
        print()
    fig2 = OCSPInstance(profiles, ("f0", "f1", "f2", "f1", "f2"), name="fig2")
    exact = optimal_schedule(fig2)
    print(
        f"Figure 2 optimum (one more f2 call): make-span "
        f"{exact.makespan:.0f} via {exact.schedule}"
    )
    return 0


def _make_service_engine(args: argparse.Namespace):
    """One engine + metrics registry from the shared ``serve`` knobs."""
    from .observability import MetricsRegistry
    from .service import DecisionCache, DecisionEngine, ServicePolicy

    metrics = MetricsRegistry()
    policy = ServicePolicy(
        optimism=args.optimism,
        max_functions=args.max_functions,
        max_tenants=args.max_tenants,
    )
    cache = None if args.no_decision_cache else DecisionCache()
    telemetry = None
    # `serve run` attaches the wall-clock plane unless --no-telemetry;
    # `serve replay` attaches it only on --telemetry (the replay is a
    # measurement tool first, and the default stays minimal).
    if args.serve_command == "run":
        enabled = not args.no_telemetry
    else:
        enabled = args.telemetry
    if enabled:
        from .telemetry import ServiceTelemetry

        telemetry = ServiceTelemetry(
            shards=args.shards,
            flight_capacity=args.flight_capacity,
            flight_dir=args.flight_dir,
            slo_window_s=args.slo_window,
        )
    engine = DecisionEngine(
        policy=policy,
        shards=args.shards,
        faults=args.faults,
        cache=cache,
        metrics=metrics,
        telemetry=telemetry,
    )
    return engine, metrics


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServerConfig

    config = ServerConfig(
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 0),
        batch_max=args.batch_max,
        queue_limit=args.queue_limit,
        admission_limit=args.admission_limit,
    )
    if args.serve_command == "run":
        return _serve_run(args, config)
    return _serve_replay(args, config)


def _serve_run(args: argparse.Namespace, config) -> int:
    import asyncio
    import json
    import signal

    from .service import DecisionServer

    engine, _metrics = _make_service_engine(args)
    telemetry = engine.telemetry

    def _dump_flight(reason: str) -> None:
        if telemetry is None:
            return
        path = telemetry.dump_flight(reason)
        if path is not None:
            print(f"repro serve: flight recorder wrote {path}", flush=True)

    def _write_status(server) -> None:
        if args.json_out is None:
            return
        doc = {
            "summary": engine.summary(),
            "rejected": server.rejected,
            "max_batch_seen": server.max_batch_seen,
        }
        if telemetry is not None:
            doc["uptime_s"] = telemetry.uptime_s()
            doc["slo"] = telemetry.slo.snapshot()
            doc["flight"] = telemetry.flight.snapshot()
            doc["metrics"] = telemetry.snapshot()
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")

    async def _run() -> None:
        server = DecisionServer(engine, config)
        await server.start()
        if telemetry is not None and hasattr(signal, "SIGUSR1"):
            # SIGUSR-style black-box trigger: dump the flight rings
            # without disturbing the server.
            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGUSR1, _dump_flight, "sigusr1"
                )
            except (NotImplementedError, RuntimeError):
                pass
        admin_note = (
            " admin: /healthz /statusz /metricsz /flightz;"
            if telemetry is not None
            else ""
        )
        print(
            f"repro serve: listening on {config.host}:{server.port} "
            f"(JSONL;{admin_note} send {{\"op\": \"shutdown\"}} to stop)",
            flush=True,
        )
        await server.serve_until_stopped()
        summary = engine.summary()
        print(
            f"repro serve: stopped after {summary['events']} events, "
            f"{summary['decisions']} decisions "
            f"({server.rejected} rejected)"
        )
        _write_status(server)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        _dump_flight("interrupt")
        print("repro serve: interrupted", file=sys.stderr)
        return 130
    except Exception:
        # The black box earns its name here: dump the last N decisions
        # before the crash propagates.
        _dump_flight("crash")
        raise
    return 0


def _serve_replay(args: argparse.Namespace, config) -> int:
    import json

    from .service import generate_events, load_events, run_replay

    engine, _metrics = _make_service_engine(args)
    if args.events_file is not None:
        events = load_events(args.events_file)
        source = args.events_file
    else:
        events = generate_events(
            tenants=args.tenants,
            events=args.events,
            scale=args.scale,
            seed=args.seed,
        )
        source = (
            f"generated (tenants={args.tenants} events={args.events} "
            f"scale={args.scale} seed={args.seed})"
        )
    if args.save_events is not None:
        from .service import write_events

        write_events(events, args.save_events)
        print(f"wrote {args.save_events}")
    report = run_replay(
        events,
        engine,
        decisions_out=args.decisions_out,
        mode=args.mode,
        resume=args.resume,
        window=args.window,
        config=config,
    )
    faults_note = f" faults={args.faults}" if args.faults else ""
    print(f"events: {source}{faults_note}")
    print(
        f"replayed {report.events} events from {report.tenants} tenants "
        f"in {report.wall_s:.3f} s ({args.mode})"
    )
    resumed = f" ({report.skipped} resumed from journal)" if report.skipped else ""
    print(
        f"decisions: {report.decisions}{resumed}  "
        f"rate: {report.decisions_per_sec:,.0f} decisions/sec"
    )
    print(
        f"latency: p50 {report.p50_ms:.3f} ms, p99 {report.p99_ms:.3f} ms "
        f"(median {report.latency.median_s * 1e3:.3f} ms over "
        f"{len(events)} events, via repro.perf)"
    )
    summary = report.summary
    if "cache_hits" in summary:
        print(
            f"decision cache: {summary['cache_hits']} hits / "
            f"{summary['cache_misses']} misses"
        )
    faults_summary = summary.get("faults")
    if faults_summary:
        print(f"faults: {faults_summary}")
    if report.slo:
        worst = max(
            (tenant["p99_ms"] or 0.0) for tenant in report.slo.values()
        )
        print(
            f"slo: {len(report.slo)} tenants tracked, "
            f"worst p99 {worst:.3f} ms (telemetry plane)"
        )
    if args.decisions_out is not None:
        print(f"wrote {args.decisions_out}")
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    return 0


def _render_top(doc: Dict[str, object]) -> None:
    """One ``repro top`` frame from a ``/statusz`` document."""
    summary = doc.get("summary", {})
    queue = doc.get("queue", {})
    uptime = doc.get("uptime_s")
    uptime_note = f"{uptime:.1f}s" if isinstance(uptime, float) else "n/a"
    draining = "yes" if doc.get("draining") else "no"
    print(
        f"uptime {uptime_note}  tenants {summary.get('tenants', 0)}  "
        f"events {summary.get('events', 0)}  "
        f"decisions {summary.get('decisions', 0)}  "
        f"queue {queue.get('depth', 0)}/{queue.get('limit', 0)}  "
        f"rejected {doc.get('rejected', 0)}  draining {draining}"
    )
    occupancy = doc.get("shard_occupancy")
    if occupancy:
        print(f"shard occupancy: {occupancy}")
    slo = doc.get("slo")
    if not slo:
        print("(no per-tenant SLOs: telemetry disabled or no decisions yet)")
        return
    header = (
        f"{'tenant':<24} {'decs':>8} {'rejs':>6} {'rej%':>6} "
        f"{'p50ms':>9} {'p99ms':>9} {'w.p99ms':>9}"
    )
    print(header)

    def _ms(value) -> str:
        return f"{value:.3f}" if isinstance(value, (int, float)) else "-"

    for tenant in sorted(slo):
        row = slo[tenant]
        window = row.get("window", {})
        print(
            f"{tenant:<24} {row.get('decisions', 0):>8} "
            f"{row.get('rejections', 0):>6} "
            f"{100.0 * row.get('rejection_rate', 0.0):>5.1f}% "
            f"{_ms(row.get('p50_ms')):>9} {_ms(row.get('p99_ms')):>9} "
            f"{_ms(window.get('p99_ms')):>9}"
        )


def _cmd_top(args: argparse.Namespace) -> int:
    import json
    import time

    from .telemetry import http_get

    iterations = 0
    while True:
        status, body = http_get(args.host, args.port, "/statusz")
        if status != 200:
            raise ValueError(
                f"/statusz answered HTTP {status}: "
                f"{body.decode('utf-8', 'replace').strip()}"
            )
        doc = json.loads(body.decode("utf-8"))
        if args.json:
            print(json.dumps(doc, sort_keys=True))
        else:
            if iterations:
                print()
            _render_top(doc)
        iterations += 1
        if args.interval is None:
            break
        if args.count and iterations >= args.count:
            break
        time.sleep(args.interval)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    import json
    from collections import Counter

    from .telemetry import read_flight_bundle

    header, entries = read_flight_bundle(args.path)
    if args.json:
        print(
            json.dumps(
                {"header": header, "entries": entries}, sort_keys=True
            )
        )
        return 0
    print(
        f"flight bundle: reason={header['reason']} "
        f"created={header['created']} shards={header['shards']} "
        f"capacity={header['capacity']}"
    )
    print(
        f"recorded {header['recorded']} decisions over the run, "
        f"{len(entries)} retained in the rings"
    )
    tenants = Counter()
    actions = Counter()
    faults = Counter()
    for entry in entries:
        decision = entry.get("decision", {})
        tenants[str(decision.get("tenant"))] += 1
        actions[str(decision.get("action"))] += 1
        for key, value in (entry.get("faults") or {}).items():
            faults[key] = max(faults[key], int(value))
    if actions:
        joined = "  ".join(
            f"{action}={count}" for action, count in sorted(actions.items())
        )
        print(f"actions: {joined}")
    if tenants:
        print(f"tenants: {len(tenants)}")
        for tenant, count in sorted(tenants.items()):
            print(f"  {tenant:<24} {count:>6}")
    if faults:
        joined = "  ".join(
            f"{key}={count}" for key, count in sorted(faults.items())
        )
        print(f"fault tallies (max seen): {joined}")
    if args.last:
        print(f"last {min(args.last, len(entries))} entries:")
        for entry in entries[-args.last:]:
            decision = entry.get("decision", {})
            print(
                f"  #{entry.get('order')} shard={entry.get('shard')} "
                f"corr={entry.get('corr')} "
                f"{decision.get('function')} -> {decision.get('action')} "
                f"L{decision.get('level')} "
                f"(attempts {decision.get('attempts')})"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "schedule": _cmd_schedule,
        "evaluate": _cmd_evaluate,
        "diagnose": _cmd_diagnose,
        "trace": _cmd_trace,
        "study": _cmd_study,
        "faults": _cmd_faults,
        "cache": _cmd_cache,
        "bench": _cmd_bench,
        "import-trace": _cmd_import_trace,
        "instances": _cmd_instances,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "telemetry": _cmd_telemetry,
        "walkthrough": _cmd_walkthrough,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro cache stats | head`):
        # conventional CLI behavior is to stop quietly.  Point stdout
        # at devnull so the interpreter's shutdown flush does not print
        # the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what the shell would report
    except (ValueError, OSError) as exc:
        # Every structured input error is a ValueError subclass
        # (ModelError, ScheduleError, FaultSpecError) or plain
        # ValueError (workload specs); OSError covers unreadable
        # files.  One diagnostic line, exit 2 — the full traceback
        # stays behind --debug.  (BrokenPipeError is an OSError
        # subclass; its handler above runs first.)
        if args.debug:
            raise
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
