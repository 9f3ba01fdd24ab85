"""Degradation curves: scheme quality as a function of fault rate.

A sweep runs the five-scheme comparison of Figures 5/6 at several rates
of one fault *dimension* (``compile_fail``, ``stall``, ``mispredict``,
or ``ticks``), holding every other knob of the base spec fixed.  A
zero-rate point injects nothing, so the curve's origin is bitwise equal
to the fault-free figures — the rest of the curve is pure injected
degradation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.model import OCSPInstance
from .degrade import scheme_comparison
from .injector import FaultInjector
from .spec import DIMENSIONS, FaultSpecError, parse_fault_spec

__all__ = ["DEFAULT_RATES", "SERIES", "fault_sweep_rows", "degradation_curves"]

# Fault rates of the default degradation curve.
DEFAULT_RATES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)

# The five figure series every sweep row carries.
SERIES: Tuple[str, ...] = (
    "lower_bound", "iar", "default", "base_level", "optimizing_level",
)


def fault_sweep_rows(
    suite: Dict[str, OCSPInstance],
    spec: str = "",
    rates: Sequence[float] = DEFAULT_RATES,
    dimension: str = "compile_fail",
    model_seed: int = 0,
    compile_threads: int = 1,
    metrics=None,
) -> List[Dict[str, object]]:
    """One row per ``(benchmark, fault rate)``.

    Args:
        suite: ``{benchmark: instance}``.
        spec: base fault spec (string or :class:`FaultSpec`); the sweep
            overrides its ``dimension`` rate point by point and keeps
            everything else (seed, retries, stall factor, ...) fixed.
        rates: the swept rates, in output order.
        dimension: one of :data:`repro.faults.DIMENSIONS`.
        model_seed: seed of the default cost-benefit model.
        compile_threads: compiler threads for every scheme.
        metrics: optional metrics registry; receives the ``faults.*``
            counters aggregated over the whole sweep.

    Returns:
        Rows ``{"benchmark", "dimension", "fault_rate", <SERIES...>,
        "faults": <tally>}`` in suite order, then rate order.
    """
    if dimension not in DIMENSIONS:
        raise FaultSpecError(
            f"fault spec: unknown dimension {dimension!r} "
            f"(expected one of {', '.join(DIMENSIONS)})"
        )
    base = parse_fault_spec(spec)
    rows: List[Dict[str, object]] = []
    for name, instance in suite.items():
        for rate in rates:
            injector = FaultInjector(
                base.scaled(dimension, float(rate)), metrics=metrics
            )
            row: Dict[str, object] = {
                "benchmark": name,
                "dimension": dimension,
                "fault_rate": float(rate),
            }
            row.update(
                scheme_comparison(
                    instance,
                    model_seed=model_seed,
                    compile_threads=compile_threads,
                    faults=injector,
                )
            )
            row["faults"] = injector.summary()
            rows.append(row)
    return rows


def degradation_curves(
    rows: Sequence[Dict[str, object]],
    series: Sequence[str] = SERIES,
) -> List[Dict[str, object]]:
    """Aggregate sweep rows into one curve point per fault rate.

    Each point is the geometric mean of the normalized make-spans over
    the benchmarks (ratios multiply, so the geometric mean is the
    meaningful aggregate — see
    :func:`repro.analysis.experiments.average_row`).

    Returns:
        ``[{"fault_rate": r, <series means...>}, ...]`` in first-seen
        rate order.
    """
    from ..analysis.metrics import geometric_mean

    by_rate: Dict[float, List[Dict[str, object]]] = {}
    order: List[float] = []
    for row in rows:
        rate = float(row["fault_rate"])
        if rate not in by_rate:
            by_rate[rate] = []
            order.append(rate)
        by_rate[rate].append(row)
    curves: List[Dict[str, object]] = []
    for rate in order:
        point: Dict[str, object] = {"fault_rate": rate}
        for key in series:
            values = [
                float(row[key])
                for row in by_rate[rate]
                if row.get(key) is not None
            ]
            point[key] = geometric_mean(values) if values else None
        curves.append(point)
    return curves
