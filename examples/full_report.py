#!/usr/bin/env python3
"""One-shot reproduction report: all tables/figures to Markdown + CSV.

Runs the complete evaluation and writes ``report/REPORT.md`` plus one
CSV per table/figure (for pandas/R/spreadsheets), using the library's
export helpers.

With a cache directory the figure/table drivers run through the
content-addressed result store (see docs/CACHING.md): a re-run after a
crash — or after a code change that only affects some drivers —
recomputes only the units whose fingerprints changed.

Run:  python examples/full_report.py [scale] [outdir] [cache_dir]
"""

import sys
from pathlib import Path

from repro.analysis import (
    astar_scaling,
    average_row,
    format_errors,
    format_figure,
    format_table,
    run_parallel,
    save_csv,
    table1,
)
from repro.analysis.experiments import grand_comparison
from repro.workloads import dacapo

SERIES = ["lower_bound", "iar", "default", "base_level", "optimizing_level"]


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    outdir = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("report")
    cache_dir = sys.argv[3] if len(sys.argv) > 3 else None
    outdir.mkdir(parents=True, exist_ok=True)

    sections = []

    def emit(name: str, rows, text_title: str, series=None):
        save_csv(rows, outdir / f"{name}.csv")
        if series:
            sections.append(format_figure(rows, series, title=text_title))
        else:
            sections.append(format_table(rows, title=text_title))

    print(f"generating suite at scale {scale} ...")
    suite = dacapo.load_suite(scale=scale)

    emit("table1", table1(scale=scale), "Table 1 — benchmarks")

    # All five paper drivers in one fault-tolerant pass; with cache_dir,
    # already-computed cells (those of a killed run too) are served from
    # the store.
    print("running figures 5-8 and table 2 ...")
    run = run_parallel(
        suite,
        drivers=("figure5", "figure6", "figure7", "figure8", "table2"),
        cache=cache_dir,
        max_retries=2,
    )
    warnings = format_errors(run.errors)
    if warnings:
        print(warnings, file=sys.stderr)
    if cache_dir is not None:
        print(
            f"cache: {run.cache_hits} hits / {run.cache_misses} misses "
            f"({cache_dir})"
        )

    for name, title, driver in (
        ("fig5", "Figure 5 — default cost-benefit model", "figure5"),
        ("fig6", "Figure 6 — oracle cost-benefit model", "figure6"),
    ):
        rows = list(run.rows[driver])
        rows.insert(0, average_row(rows, SERIES, mean="geo"))
        emit(name, rows, title, series=SERIES)

    rows7 = list(run.rows["figure7"])
    cores = [c for c in rows7[0] if c.startswith("cores_")]
    rows7.insert(0, average_row(rows7, cores))
    emit("fig7", rows7, "Figure 7 — concurrent JIT", series=cores)

    rows8 = list(run.rows["figure8"])
    rows8.insert(0, average_row(rows8, SERIES, mean="geo"))
    emit("fig8", rows8, "Figure 8 — V8 scheme", series=SERIES)

    emit("table2", run.rows["table2"], "Table 2 — IAR overhead")

    print("running A*-search scaling ...")
    emit("astar", astar_scaling(max_frontier=200_000), "A*-search feasibility")

    print("running grand comparison ...")
    grand_rows = []
    for name, instance in suite.items():
        row = {"benchmark": name}
        row.update(grand_comparison(instance))
        grand_rows.append(row)
    emit("grand", grand_rows, "Extension — all schedulers")

    report = outdir / "REPORT.md"
    body = "\n\n".join(f"```\n{s}\n```" for s in sections)
    report.write_text(
        "# Reproduction report\n\n"
        f"Workload scale: {scale}.  See EXPERIMENTS.md for the "
        "paper-vs-measured discussion.\n\n" + body + "\n"
    )
    print(f"wrote {report} and {len(sections)} CSVs to {outdir}/")


if __name__ == "__main__":
    main()
