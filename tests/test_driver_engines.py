"""The limit study's drivers give the oracle's rows on their default engine.

IAR and the paper-scale drivers (figures 5-8, Table 2, the fault sweep)
default to the vector engine and share one engine cached on each
projected instance.  These tests pin that the engine changes no number:
every driver row equals the row computed with the pure-Python reference
engine as the session default, and an incremental (``exact_slack``) IAR
run never touches the shared cached engine.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.core.engine import make_simulator, set_default_engine
from repro.core.iar import IARParams, iar
from repro.core.makespan import simulate
from repro.workloads import dacapo

SCALE = 0.002
# Host wall-clock columns of Table 2 differ on every run by design.
WALL_CLOCK = ("iar_time_s", "percent_of_program")


def driver_rows():
    """Every driver's rows on a freshly generated suite (so no engine
    is cached on its instances yet)."""
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


def test_exact_slack_never_uses_the_cached_engine():
    """``exact_slack`` binds, proposes and commits on its engine, so it
    must build a private one; the cached engine later IAR and
    ``simulate`` calls share stays unbound and their results stay put."""
    touched = dacapo.load("antlr", scale=SCALE)
    clean = dacapo.load("antlr", scale=SCALE)

    engine = experiments.driver_engine()  # what iar() resolves to
    iar(touched, IARParams(exact_slack=True))
    for inst in (touched, clean):
        cached = make_simulator(inst, engine, cached=True)
        with pytest.raises(RuntimeError, match="no baseline bound"):
            cached.baseline_makespan

    after = iar(touched)
    expected = iar(clean)
    assert after.schedule == expected.schedule
    for threads in (1, 2):
        assert simulate(
            touched, after.schedule, compile_threads=threads, engine="vector"
        ) == simulate(clean, expected.schedule, compile_threads=threads)
