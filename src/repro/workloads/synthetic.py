"""Synthetic call-trace generation.

The paper's data comes from profiling DaCapo benchmarks on Jikes RVM:
per run, a call sequence plus the measured compile/execution time of
every method at every level (Section 6.1).  Without that testbed we
generate statistically similar data (substitution documented in
DESIGN.md).  The generator reproduces the structural properties the
scheduling problem is sensitive to:

* **hotness skew** — call counts follow a Zipf law; a few hot methods
  dominate the sequence;
* **warmup structure** — first appearances are spread over an initial
  fraction of the run (class loading / phase behaviour), hot methods
  tending to appear early;
* **monotone level costs** — per Definition 1, compile times rise and
  execution times fall with the level, with per-function variation in
  how profitable optimization is;
* **cost regime** — baseline compiles cost roughly as much as a handful
  of invocations while top-level compiles cost orders of magnitude
  more, the regime in which scheduling decisions matter (warmup runs).

All times are in microseconds.  Generation is deterministic per
``(spec, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.model import FunctionProfile, OCSPInstance, _Trace

__all__ = ["WorkloadSpec", "generate", "DEFAULT_LEVEL_COMPILE_FACTORS"]

DEFAULT_LEVEL_COMPILE_FACTORS = (1.0, 10.0, 30.0, 80.0)
"""Relative compile cost per level, shaped after Jikes RVM's baseline
compiler vs optimizing compiler at -O0/-O1/-O2."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload.

    Attributes:
        name: label for the generated instance.
        num_functions: distinct functions (``M``); every one appears in
            the trace at least once.
        num_calls: trace length (``N``); must be >= ``num_functions``.
        num_levels: compilation levels per function (Jikes RVM has 4).
        zipf_s: Zipf exponent of the call-count distribution.
        mean_exec_us: median level-0 per-invocation time (microseconds).
        exec_sigma: lognormal spread of per-function level-0 times.
        base_compile_us: median level-0 compile time (microseconds).
        compile_sigma: lognormal spread of per-function compile times.
        level_compile_factors: per-level compile-cost multipliers
            (length must be >= ``num_levels``).
        max_speedup_range: (lo, hi) of the per-function total speedup at
            the top level; intermediate levels interpolate.
        warmup_fraction: fraction of the trace within which all first
            appearances fall.
        hot_early_bias: how strongly hot functions appear early
            (0 = activation order is random).
        num_phases: temporal phases; from phase 2 on, each function's
            hotness is rescaled by a random per-phase factor, so the
            hot set rotates (phase behaviour, Section 9's [14]).
        phase_churn: strength of the per-phase hotness rotation
            (0 = phases are identical, 1 = heavily reshuffled).
    """

    name: str = "synthetic"
    num_functions: int = 100
    num_calls: int = 10_000
    num_levels: int = 4
    zipf_s: float = 1.1
    mean_exec_us: float = 2.0
    exec_sigma: float = 1.2
    base_compile_us: float = 300.0
    compile_sigma: float = 0.8
    level_compile_factors: Tuple[float, ...] = DEFAULT_LEVEL_COMPILE_FACTORS
    max_speedup_range: Tuple[float, float] = (1.5, 8.0)
    warmup_fraction: float = 0.5
    hot_early_bias: float = 1.0
    num_phases: int = 1
    phase_churn: float = 0.5

    def __post_init__(self) -> None:
        if self.num_phases < 1:
            raise ValueError("num_phases must be >= 1")
        if not 0.0 <= self.phase_churn <= 1.0:
            raise ValueError("phase_churn must be in [0, 1]")
        if self.num_functions < 1:
            raise ValueError("num_functions must be >= 1")
        if self.num_calls < self.num_functions:
            raise ValueError("num_calls must be >= num_functions")
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        if len(self.level_compile_factors) < self.num_levels:
            raise ValueError(
                "need a compile factor for each of the "
                f"{self.num_levels} levels"
            )
        if not 0.0 < self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must be in (0, 1]")
        lo, hi = self.max_speedup_range
        if lo < 1.0 or hi < lo:
            raise ValueError("max_speedup_range must satisfy 1 <= lo <= hi")


def _function_profiles(
    spec: WorkloadSpec, rng: np.random.Generator
) -> List[FunctionProfile]:
    """Draw per-function cost tables satisfying Definition 1."""
    m = spec.num_functions
    levels = spec.num_levels
    # Level-0 execution time per invocation.
    e0 = spec.mean_exec_us * rng.lognormal(0.0, spec.exec_sigma, size=m)
    # Total speedup achieved at the top level, per function.
    lo, hi = spec.max_speedup_range
    top_speedup = rng.uniform(lo, hi, size=m)
    # Fraction of the (log-scale) speedup realized by each level:
    # concave progression — early levels grab most of the win.
    if levels > 1:
        exponents = np.linspace(0.0, 1.0, levels) ** 0.6
    else:
        exponents = np.array([0.0])
    # Compile times: proportional to a per-function "size" factor.
    size = rng.lognormal(0.0, spec.compile_sigma, size=m)
    factors = np.asarray(spec.level_compile_factors[:levels])

    profiles: List[FunctionProfile] = []
    for i in range(m):
        speedups = top_speedup[i] ** exponents
        exec_times = e0[i] / speedups
        compile_times = spec.base_compile_us * size[i] * factors
        # Small per-level jitter that must not break monotonicity.
        jitter_c = rng.uniform(0.9, 1.1, size=levels)
        jitter_e = rng.uniform(0.9, 1.1, size=levels)
        compile_times = np.maximum.accumulate(compile_times * jitter_c)
        exec_times = np.minimum.accumulate(exec_times * jitter_e)
        profiles.append(
            FunctionProfile(
                name=f"f{i:04d}",
                compile_times=tuple(float(c) for c in compile_times),
                exec_times=tuple(float(e) for e in exec_times),
            )
        )
    return profiles


def _activation_positions(
    spec: WorkloadSpec, weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """First-appearance position of each function (by hotness rank).

    Positions fall inside the warmup window; hotter functions are biased
    toward the front via an exponent on a uniform draw.
    """
    m = spec.num_functions
    window = max(int(spec.num_calls * spec.warmup_fraction), m)
    window = min(window, spec.num_calls)
    u = rng.uniform(0.0, 1.0, size=m)
    if spec.hot_early_bias > 0:
        # Hotter (higher weight) -> larger exponent -> earlier position.
        rank_bias = weights / weights.max()
        u = u ** (1.0 + spec.hot_early_bias * rank_bias)
    positions = np.floor(u * window).astype(np.int64)
    # Make positions distinct while preserving order as much as possible.
    order = np.argsort(positions, kind="stable")
    distinct = np.empty(m, dtype=np.int64)
    prev = -1
    for idx in order:
        pos = max(positions[idx], prev + 1)
        distinct[idx] = pos
        prev = pos
    if prev >= spec.num_calls:
        # Overflowed the window (tiny traces): compress into range.
        distinct = np.argsort(np.argsort(distinct, kind="stable"), kind="stable")
    return distinct


def generate(spec: WorkloadSpec, seed: int = 0) -> OCSPInstance:
    """Generate a deterministic synthetic :class:`OCSPInstance`.

    Args:
        spec: workload parameters.
        seed: RNG seed; identical (spec, seed) pairs produce identical
            instances.
    """
    rng = np.random.default_rng(seed)
    profiles = _function_profiles(spec, rng)
    m = spec.num_functions
    n = spec.num_calls

    ranks = np.arange(1, m + 1, dtype=np.float64)
    weights = 1.0 / ranks ** spec.zipf_s
    # Shuffle which function gets which hotness rank (names carry no
    # rank information).
    perm = rng.permutation(m)
    weights = weights[perm]

    first_pos = _activation_positions(spec, weights, rng)
    # Activation events sorted by position.
    activation_order = np.argsort(first_pos, kind="stable")

    # Per-phase hotness rotation: phase 0 keeps the base weights; later
    # phases rescale each function's weight by a lognormal factor.
    phase_factors = np.ones((spec.num_phases, m))
    for p in range(1, spec.num_phases):
        phase_factors[p] = rng.lognormal(0.0, 1.5 * spec.phase_churn, size=m)
    phase_len = max(n // spec.num_phases, 1)

    def phase_of(position: int) -> int:
        return min(position // phase_len, spec.num_phases - 1)

    calls = np.empty(n, dtype=np.int64)
    active: List[int] = []
    active_weights: List[float] = []

    def fill(lo: int, hi: int) -> None:
        """Sample calls for [lo, hi) from the active set, phase-aware."""
        pos = lo
        while pos < hi:
            phase = phase_of(pos)
            phase_end = min((phase + 1) * phase_len, hi)
            if phase == spec.num_phases - 1:
                phase_end = hi
            p = np.asarray(active_weights) * phase_factors[phase][active]
            p = p / p.sum()
            calls[pos:phase_end] = rng.choice(
                active, size=phase_end - pos, p=p
            )
            pos = phase_end

    cursor = 0
    events = list(activation_order)
    event_positions = [int(first_pos[i]) for i in activation_order]

    for event_idx, fidx in enumerate(events):
        pos = min(event_positions[event_idx], n - 1)
        pos = max(pos, cursor)  # never before already-filled prefix
        if pos > cursor and active:
            fill(cursor, pos)
        elif pos > cursor:
            pos = cursor  # nothing active yet: activate immediately
        calls[pos] = fidx
        cursor = pos + 1
        active.append(int(fidx))
        active_weights.append(float(weights[fidx]))

    if cursor < n:
        fill(cursor, n)

    return OCSPInstance(
        profiles={prof.name: prof for prof in profiles},
        calls=_Trace([prof.name for prof in profiles], calls),
        name=spec.name,
    )
