"""The limit study's drivers give the oracle's rows on their default engine.

IAR and the paper-scale drivers (figures 5-8, Table 2, the fault sweep)
default to the vector engine.  These tests pin that the engine changes
no number: every driver row equals the row computed with the
pure-Python reference engine as the session default.
"""

from __future__ import annotations

from repro.analysis import experiments
from repro.core.engine import set_default_engine
from repro.workloads import dacapo

SCALE = 0.002
# Host wall-clock columns of Table 2 differ on every run by design.
WALL_CLOCK = ("iar_time_s", "percent_of_program")


def driver_rows():
    """Every driver's rows on a freshly generated suite."""
    suite = dacapo.load_suite(scale=SCALE)
    return {
        "figure5": experiments.figure5(suite),
        "figure6": experiments.figure6(suite),
        "figure7": experiments.figure7(suite),
        "figure8": experiments.figure8(suite),
        "table2": [
            {k: v for k, v in row.items() if k not in WALL_CLOCK}
            for row in experiments.table2(suite)
        ],
        "faults_sweep": experiments.faults_sweep(suite, rates=(0.0, 0.2, 0.4)),
    }


def test_driver_rows_equal_on_reference_and_default_engine():
    set_default_engine("reference")
    try:
        reference = driver_rows()
    finally:
        set_default_engine(None)
    assert driver_rows() == reference
