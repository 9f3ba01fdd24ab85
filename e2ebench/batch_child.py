"""The measured process of the batch workloads (``study``, ``faults-sweep``).

Runs what ``repro study`` / ``repro faults sweep`` run, through the same
public API the CLI uses, on the suite generated from ``--seed``:

    python3 e2ebench/batch_child.py --workload study --seed N --out rows.json

It prints ``READY <t>`` once the suite is generated and ``ROWS <t>`` once
every row exists, ``t`` being ``time.perf_counter()`` (the system's
monotonic clock, which the parent reads too), so the parent times set-up
and the run to the microsecond and can find the host-speed samples taken
in each (``speed.py``), then
writes its output and waits for its standard input to close, so the
parent can read its peak RSS while it is still alive.  With
``--setup-only`` it exits after ``READY``; with ``--trace DIR`` it wraps
each layer's entry points first and writes its spans to ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

STUDY_DRIVERS = ("figure5", "figure6", "figure7", "figure8", "table2")
SWEEP_RATES = (0.1, 0.4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("study", "faults-sweep"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, metavar="DIR")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace is not None:
        from spans import SpanRecorder, install_batch_wrappers

        recorder = SpanRecorder()
        install_batch_wrappers(recorder)
    from repro.analysis import experiments
    from repro.workloads import dacapo

    suite = dacapo.load_suite(scale=args.scale, seed=args.seed)
    ready = time.perf_counter()
    print(f"READY {ready!r}", flush=True)
    if args.setup_only:
        return 0

    doc = {}
    if args.workload == "study":
        doc["table1"] = experiments.table1(scale=args.scale)
        run = experiments.run_parallel(suite, STUDY_DRIVERS, jobs=1)
        doc["astar"] = experiments.astar_scaling(max_frontier=200_000)
    else:
        from repro.faults import parse_fault_spec

        run = experiments.run_parallel(
            suite,
            ("faults_sweep",),
            jobs=1,
            driver_kwargs={
                "faults_sweep": {
                    "spec": parse_fault_spec("").canonical(),
                    "rates": SWEEP_RATES,
                    "dimension": "compile_fail",
                }
            },
        )
    done = time.perf_counter()
    print(f"ROWS {done!r}", flush=True)
    doc["rows"] = run.rows
    doc["units"] = len(run.statuses)
    doc["failed_units"] = len(run.errors)
    doc["errors"] = list(run.errors)
    if recorder is not None:
        summary = recorder.summary(since=ready)
        summary["run_window_s"] = done - ready
        summary["setup"] = recorder.summary(until=ready)["spans"]
        doc["trace"] = summary
        recorder.write(os.path.join(args.trace, "spans.jsonl"))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
