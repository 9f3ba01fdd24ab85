"""Deterministic fault injection for the simulated runtime system.

The layer has three parts:

* :mod:`repro.faults.spec` — what to inject (:class:`FaultSpec`, the
  ``key=value,...`` grammar of :func:`parse_fault_spec`);
* :mod:`repro.faults.injector` — seeded, order-independent per-event
  decisions plus fault tallies (:class:`FaultInjector`);
* :mod:`repro.faults.degrade` / :mod:`repro.faults.sweep` — graceful
  degradation of planned schedules and the degradation-curve studies
  (``repro faults sweep``).

Null specs (every rate zero) take the untouched clean code paths
everywhere, so zero-fault results are *bitwise* equal to fault-free
runs.  See ``docs/ROBUSTNESS.md`` for the fault model.
"""

from .degrade import (
    FaultyPlan,
    apply_to_schedule,
    scheme_comparison,
    simulate_with_faults,
    v8_comparison,
)
from .injector import FaultInjector, active_injector
from .spec import DIMENSIONS, FaultSpec, FaultSpecError, parse_fault_spec
from .sweep import DEFAULT_RATES, fault_sweep_rows, degradation_curves

__all__ = [
    "DIMENSIONS",
    "DEFAULT_RATES",
    "FaultSpec",
    "FaultSpecError",
    "FaultInjector",
    "FaultyPlan",
    "active_injector",
    "apply_to_schedule",
    "simulate_with_faults",
    "scheme_comparison",
    "v8_comparison",
    "fault_sweep_rows",
    "degradation_curves",
    "parse_fault_spec",
]
