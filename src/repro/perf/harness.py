"""Dual-signal benchmark harness: wall time *and* deterministic work.

A wall-clock number alone cannot distinguish "the code got slower" from
"the machine was busy" — the noise floor of shared CI runners swamps
single-digit-percent regressions.  Following the measurement discipline
of the scheduling literature (separate *what work was done* from *how
long it took*), every benchmark here reports two signals per run:

* **robust wall-time statistics** — min / quartiles / median / IQR over
  several repeats, after warmups, so comparisons can use noise-aware
  thresholds instead of raw deltas;
* **deterministic work counters** — :class:`~repro.observability.metrics.Counter`
  values the instrumented hot paths emit (calls replayed, tasks
  prepared, moves evaluated, cache puts).  Counters depend only on the
  code and the inputs, never on the machine, so an *exact* mismatch
  against a baseline is a real behavioural change: either more work per
  run (an algorithmic regression) or less (an optimization that should
  refresh the baseline).

A benchmark is a **factory**: ``make(scale)`` performs setup (instance
generation, engine construction — excluded from timing) and returns the
work callable ``fn(metrics)`` that is timed.  The harness runs the
callable with a fresh :class:`~repro.observability.metrics.MetricsRegistry`
per repeat and requires the counter snapshot to be identical across
repeats — a benchmark whose work depends on wall time or global state
is rejected rather than silently measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..observability.metrics import Counter, Histogram, MetricsRegistry, _percentile

__all__ = [
    "HarnessError",
    "TimingStats",
    "BenchResult",
    "robust_stats",
    "counters_of",
    "run_benchmark",
]


class HarnessError(RuntimeError):
    """A benchmark violated the harness contract (e.g. nondeterministic
    work counters across repeats)."""


@dataclass(frozen=True)
class TimingStats:
    """Robust summary of the per-repeat wall times (seconds).

    ``iqr_s`` (``q3_s - q1_s``) is the noise yardstick the comparator
    scales its drift threshold by: a machine whose repeats spread wide
    gets a proportionally wider tolerance.
    """

    repeats: int
    times_s: Tuple[float, ...]
    min_s: float
    q1_s: float
    median_s: float
    q3_s: float
    max_s: float
    mean_s: float
    iqr_s: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "repeats": self.repeats,
            "times_s": list(self.times_s),
            "min_s": self.min_s,
            "q1_s": self.q1_s,
            "median_s": self.median_s,
            "q3_s": self.q3_s,
            "max_s": self.max_s,
            "mean_s": self.mean_s,
            "iqr_s": self.iqr_s,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "TimingStats":
        return cls(
            repeats=int(doc["repeats"]),
            times_s=tuple(float(t) for t in doc["times_s"]),
            min_s=float(doc["min_s"]),
            q1_s=float(doc["q1_s"]),
            median_s=float(doc["median_s"]),
            q3_s=float(doc["q3_s"]),
            max_s=float(doc["max_s"]),
            mean_s=float(doc["mean_s"]),
            iqr_s=float(doc["iqr_s"]),
        )


def robust_stats(times: Sequence[float]) -> TimingStats:
    """Summarize repeat wall times; raises ``ValueError`` when empty."""
    if not times:
        raise ValueError("no timing samples")
    ordered = sorted(times)
    q1 = _percentile(ordered, 25.0)
    q3 = _percentile(ordered, 75.0)
    return TimingStats(
        repeats=len(times),
        times_s=tuple(times),
        min_s=ordered[0],
        q1_s=q1,
        median_s=_percentile(ordered, 50.0),
        q3_s=q3,
        max_s=ordered[-1],
        mean_s=sum(times) / len(times),
        iqr_s=q3 - q1,
    )


def counters_of(registry: MetricsRegistry) -> Dict[str, int]:
    """The registry's deterministic work counts, as a flat name → int map.

    Counters map directly; histograms contribute their observation count
    as ``<name>.count`` (the observed *values* may be floats derived
    from virtual time, but how many observations happened is work).
    Gauges are excluded — last-value-wins carries no work semantics.
    """
    out: Dict[str, int] = {}
    for name in sorted(registry.snapshot()):
        metric = registry.get(name)
        if isinstance(metric, Counter):
            out[name] = metric.value
        elif isinstance(metric, Histogram):
            out[f"{name}.count"] = metric.count
    return out


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's dual-signal measurement."""

    name: str
    scale: float
    warmups: int
    timing: TimingStats
    counters: Dict[str, int]
    params: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scale": self.scale,
            "warmups": self.warmups,
            "timing": self.timing.as_dict(),
            "counters": dict(self.counters),
            "params": dict(self.params),
        }


def run_benchmark(
    name: str,
    make: Callable[[float], Callable[[MetricsRegistry], None]],
    scale: float,
    warmups: int = 1,
    repeats: int = 5,
    params: Optional[Dict[str, object]] = None,
) -> BenchResult:
    """Run one benchmark factory and collect both signals.

    Args:
        name: benchmark name (becomes ``BENCH_<name>.json``).
        make: setup factory; ``make(scale)`` returns the timed callable.
        scale: workload scale knob, recorded in the result (baselines
            with a different scale are incomparable).
        warmups: untimed runs before measurement (JIT-less Python still
            benefits: allocator, icache, branch predictors).
        repeats: timed runs.
        params: extra benchmark parameters recorded for comparability.

    Raises:
        HarnessError: if the counter snapshot differs between repeats —
            the benchmark's work is not deterministic and exact counter
            comparison would be meaningless.
        ValueError: for non-positive ``repeats`` or negative ``warmups``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmups < 0:
        raise ValueError(f"warmups must be >= 0, got {warmups}")
    fn = make(scale)
    for _ in range(warmups):
        fn(MetricsRegistry())
    times: list = []
    counters: Optional[Dict[str, int]] = None
    for repeat in range(repeats):
        registry = MetricsRegistry()
        started = time.perf_counter()
        fn(registry)
        times.append(time.perf_counter() - started)
        snap = counters_of(registry)
        if counters is None:
            counters = snap
        elif snap != counters:
            raise HarnessError(
                f"benchmark {name!r} is nondeterministic: repeat {repeat} "
                f"produced different work counters than repeat 0"
            )
    return BenchResult(
        name=name,
        scale=scale,
        warmups=warmups,
        timing=robust_stats(times),
        counters=counters or {},
        params=dict(params or {}),
    )
