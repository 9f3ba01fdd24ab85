"""repro — a reproduction of "Finding the Limit: Examining the Potential
and Complexity of Compilation Scheduling for JIT-Based Runtime Systems"
(Ding, Zhou, Zhao, Eisenstat, Shen — ASPLOS 2014).

The package is organized as:

* :mod:`repro.core` — the OCSP model, the IAR scheduling algorithm,
  make-span simulation, bounds, exact search, and the NP-completeness
  reductions (the paper's primary contribution);
* :mod:`repro.vm` — models of the compilation-scheduling schemes of
  real runtime systems (Jikes RVM's adaptive system, V8) and their
  cost-benefit models;
* :mod:`repro.jitsim` — a miniature bytecode VM with a simulated
  multi-level JIT, used to produce realistic traces from first
  principles;
* :mod:`repro.workloads` — synthetic trace generation, including the
  nine DaCapo-2006-calibrated benchmark presets of the paper's Table 1;
* :mod:`repro.analysis` — experiment drivers and reporting for every
  table and figure in the paper's evaluation;
* :mod:`repro.observability` — zero-dependency trace events and
  metrics: record any engine's run on a virtual-time timeline and
  export it as a Chrome/Perfetto trace file;
* :mod:`repro.store` — the content-addressed experiment result store
  behind ``repro study --cache-dir``, which a killed run reruns through;
* :mod:`repro.faults` — deterministic fault injection (compile
  failures, compiler stalls, cost-model misprediction, sampler-tick
  loss) and the graceful-degradation studies behind
  ``repro faults sweep``.

Quickstart::

    from repro import workloads, core

    inst = workloads.dacapo.load("antlr", scale=0.01, seed=1)
    sched = core.iar_schedule(inst)
    result = core.simulate(inst, sched)
    print(result.makespan, core.lower_bound(inst))
"""

from . import analysis, core, faults, jitsim, observability, store, vm, workloads
from .core import (
    CompileTask,
    FunctionProfile,
    OCSPInstance,
    Schedule,
    iar,
    iar_schedule,
    lower_bound,
    simulate,
)

__version__ = "1.0.0"

__all__ = [
    "core",
    "vm",
    "jitsim",
    "workloads",
    "analysis",
    "observability",
    "store",
    "faults",
    "FunctionProfile",
    "OCSPInstance",
    "Schedule",
    "CompileTask",
    "iar",
    "iar_schedule",
    "lower_bound",
    "simulate",
    "__version__",
]
