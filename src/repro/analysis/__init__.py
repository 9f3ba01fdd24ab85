"""Experiment drivers, metrics, and reporting for the paper's evaluation.

* :mod:`repro.analysis.metrics` — normalization, gaps, speed-ups;
* :mod:`repro.analysis.experiments` — one driver per table/figure;
* :mod:`repro.analysis.reporting` — ASCII rendering of result rows.
"""

from . import diagnose as diagnose_module, experiments, metrics, reporting
from .diagnose import FunctionGap, GapDiagnosis, IntervalGap, diagnose
from .export import rows_to_csv, save_csv
from .sensitivity import sweep_parameter
from .experiments import (
    PARALLEL_DRIVERS,
    SuiteRun,
    astar_scaling,
    average_row,
    figure5,
    figure6,
    figure7,
    figure8,
    grand_comparison,
    run_parallel,
    scheme_comparison,
    table1,
    table2,
    v8_comparison,
)
from .reporting import (
    format_errors,
    format_figure,
    format_table,
    format_timeline,
    format_trace_summary,
    render_rows,
)

__all__ = [
    "metrics",
    "diagnose",
    "FunctionGap",
    "GapDiagnosis",
    "IntervalGap",
    "rows_to_csv",
    "save_csv",
    "sweep_parameter",
    "experiments",
    "reporting",
    "table1",
    "table2",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "scheme_comparison",
    "v8_comparison",
    "grand_comparison",
    "astar_scaling",
    "average_row",
    "PARALLEL_DRIVERS",
    "SuiteRun",
    "run_parallel",
    "format_errors",
    "format_table",
    "format_figure",
    "format_timeline",
    "format_trace_summary",
    "render_rows",
]
