"""Core library: the OCSP model, schedulers, simulator, and theory.

This package implements the paper's primary contribution:

* :mod:`repro.core.model` — the OCSP data model (Definition 1);
* :mod:`repro.core.schedule` — compilation schedules;
* :mod:`repro.core.makespan` — the make-span simulator;
* :mod:`repro.core.singlecore` — Theorem 1 (single-core optimality);
* :mod:`repro.core.bounds` — make-span lower bounds (Section 5.2);
* :mod:`repro.core.single_level` — single-level approximations;
* :mod:`repro.core.iar` — the IAR heuristic (Section 5.1, Figure 3);
* :mod:`repro.core.astar` — A*-search for the optimum (Section 5.3);
* :mod:`repro.core.bruteforce` — exhaustive ground truth;
* :mod:`repro.core.complexity` — NP-completeness reductions (Theorem 2);
* :mod:`repro.core.online` — noisy-estimate extensions (Section 8);
* :mod:`repro.core.vecsim` — the production make-span engine
  (structure-of-arrays numpy kernels);
* :mod:`repro.core.engine` — engine selection seam
  (``reference`` / ``vector``).
"""

from .astar import AStarMemoryExceeded, AStarResult, astar_schedule
from .baselines import (
    greedy_budget_schedule,
    hotness_first_schedule,
    ondemand_promotion_schedule,
    random_schedule,
)
from .bounds import (
    lower_bound,
    warmup_aware_lower_bound,
)
from .bruteforce import BruteForceResult, SearchBudgetExceeded, optimal_schedule
from .complexity import (
    PartitionReduction,
    extract_partition_subset,
    ocsp_from_3sat,
    ocsp_from_partition,
    partition_from_subset_sum,
    schedule_from_partition_subset,
    solve_partition,
    subset_sum_from_3sat,
)
from .engine import (
    ReferenceSimulator,
    get_default_engine,
    make_simulator,
    resolve_engine,
    set_default_engine,
)
from .iar import DEFAULT_K, IARParams, IARResult, iar, iar_schedule
from .interp_tier import interpreter_prelude, lift_schedule, with_interpreter_tier
from .localsearch import SearchStats, improve_schedule
from .makespan import (
    CallTiming,
    DueDateObjectives,
    DueDateTable,
    MakespanResult,
    TaskTiming,
    due_date_objectives,
    iter_calls,
    objectives_from_timeline,
    simulate,
    simulate_single_core,
)
from .model import FunctionProfile, ModelError, OCSPInstance, validate_monotone_levels
from .osr import simulate_osr
from .online import (
    OnlineEvaluation,
    estimate_instance,
    online_iar_makespan,
    perturb_sequence,
    perturb_times,
)
from .prediction import CrossRunResult, MarkovPredictor, cross_run_iar
from .replan import ReplanResult, replan_iar
from .schedule import CompileTask, Schedule, ScheduleError
from .variability import simulate_variable, variability_experiment
from .single_level import (
    base_level_schedule,
    optimizing_level_schedule,
    single_level_schedule,
)
from .singlecore import (
    most_cost_effective_levels,
    single_core_optimal_makespan,
    single_core_optimal_schedule,
)
from .vecsim import VectorSimulator

__all__ = [
    # model
    "FunctionProfile",
    "OCSPInstance",
    "ModelError",
    "validate_monotone_levels",
    # schedule
    "CompileTask",
    "Schedule",
    "ScheduleError",
    # simulation
    "simulate",
    "simulate_single_core",
    "iter_calls",
    "VectorSimulator",
    "ReferenceSimulator",
    "MakespanResult",
    "TaskTiming",
    "CallTiming",
    # due-date objectives
    "DueDateTable",
    "DueDateObjectives",
    "due_date_objectives",
    "objectives_from_timeline",
    # engine seam
    "make_simulator",
    "resolve_engine",
    "set_default_engine",
    "get_default_engine",
    # bounds
    "lower_bound",
    "warmup_aware_lower_bound",
    # single core
    "most_cost_effective_levels",
    "single_core_optimal_schedule",
    "single_core_optimal_makespan",
    # single level
    "single_level_schedule",
    "base_level_schedule",
    "optimizing_level_schedule",
    # IAR
    "iar",
    "iar_schedule",
    "IARParams",
    "IARResult",
    "DEFAULT_K",
    # search
    "astar_schedule",
    "AStarResult",
    "AStarMemoryExceeded",
    "optimal_schedule",
    "BruteForceResult",
    "SearchBudgetExceeded",
    # complexity
    "ocsp_from_partition",
    "ocsp_from_3sat",
    "schedule_from_partition_subset",
    "extract_partition_subset",
    "solve_partition",
    "subset_sum_from_3sat",
    "partition_from_subset_sum",
    "PartitionReduction",
    # baselines
    "ondemand_promotion_schedule",
    "hotness_first_schedule",
    "greedy_budget_schedule",
    "random_schedule",
    # interpreter tier
    "with_interpreter_tier",
    "interpreter_prelude",
    "lift_schedule",
    # local search
    "improve_schedule",
    "SearchStats",
    # variability
    "simulate_variable",
    "simulate_osr",
    "variability_experiment",
    # prediction
    "MarkovPredictor",
    "cross_run_iar",
    "CrossRunResult",
    "replan_iar",
    "ReplanResult",
    # online
    "online_iar_makespan",
    "estimate_instance",
    "perturb_sequence",
    "perturb_times",
    "OnlineEvaluation",
]
