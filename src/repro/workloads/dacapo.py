"""DaCapo-2006-calibrated benchmark presets (the paper's Table 1).

The paper profiles nine DaCapo benchmarks on Jikes RVM.  We cannot run
that stack, so each preset is a :class:`~repro.workloads.synthetic.WorkloadSpec`
calibrated to Table 1: the function count, the call-sequence length, and
a per-call execution scale chosen so the (unscaled) level-0 run time is
on the order of the reported default run time.

Full-length sequences range up to 43.6M calls; a ``scale`` factor
shrinks the trace for routine runs.  Two quantities must survive
scaling for the results to keep their shape: the *calls-per-function*
ratio (hotness structure) and the *total-compile to total-execution*
ratio (scheduling pressure).  We therefore scale the call count by
``scale``, the function count by ``sqrt(scale)``, and per-function
compile times by ``sqrt(scale)`` — which keeps both ratios within a
constant of their full-size values.  ``scale=1.0`` reproduces Table 1
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.model import OCSPInstance
from .synthetic import WorkloadSpec, generate

__all__ = ["BenchmarkInfo", "TABLE1", "BENCHMARKS", "load", "load_suite", "table1_rows"]


@dataclass(frozen=True)
class BenchmarkInfo:
    """One row of the paper's Table 1.

    Attributes:
        name: benchmark name.
        parallel: whether the DaCapo program is multithreaded (the paper
            merges threads into one call sequence; so do we).
        num_functions: distinct functions in the profiled sequence.
        call_seq_length: full call-sequence length.
        default_time_s: the benchmark's default run time in seconds.
    """

    name: str
    parallel: bool
    num_functions: int
    call_seq_length: int
    default_time_s: float


TABLE1: Tuple[BenchmarkInfo, ...] = (
    BenchmarkInfo("antlr", False, 1187, 2_403_584, 1.6),
    BenchmarkInfo("bloat", False, 1581, 9_423_445, 5.0),
    BenchmarkInfo("eclipse", False, 2194, 467_372, 28.4),
    BenchmarkInfo("fop", False, 1927, 1_323_119, 1.5),
    BenchmarkInfo("hsqldb", True, 1006, 8_022_794, 2.9),
    BenchmarkInfo("jython", False, 2128, 23_655_473, 6.7),
    BenchmarkInfo("luindex", False, 641, 20_582_610, 6.1),
    BenchmarkInfo("lusearch", True, 543, 43_573_214, 3.2),
    BenchmarkInfo("pmd", False, 1876, 12_543_579, 3.5),
)

BENCHMARKS: Dict[str, BenchmarkInfo] = {info.name: info for info in TABLE1}

_SEED_BASE = 0xDACA90


def _spec_for(info: BenchmarkInfo, scale: float) -> WorkloadSpec:
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    root = scale ** 0.5
    num_functions = max(int(round(info.num_functions * root)), 48)
    num_calls = max(int(info.call_seq_length * scale), num_functions)
    # Per-call level-0 time so the full-length level-0 run lands near the
    # reported default time (default runs execute a mix of levels; level
    # 0 being ~2-3x slower than the mix keeps us in the right regime).
    mean_exec_us = info.default_time_s * 1e6 / info.call_seq_length * 2.0
    return WorkloadSpec(
        name=info.name,
        num_functions=num_functions,
        num_calls=num_calls,
        num_levels=4,
        zipf_s=1.45,
        mean_exec_us=mean_exec_us,
        exec_sigma=1.2,
        base_compile_us=150.0 * root,
        level_compile_factors=(1.0, 15.0, 45.0, 120.0),
        max_speedup_range=(3.0, 15.0),
        compile_sigma=0.8,
        warmup_fraction=0.5,
        hot_early_bias=1.0,
    )


def load(name: str, scale: float = 0.02, seed: Optional[int] = None) -> OCSPInstance:
    """Generate the preset trace for one Table 1 benchmark.

    Args:
        name: benchmark name (see :data:`TABLE1`).
        scale: call-sequence scale factor in (0, 1]; 1.0 is the paper's
            full length (compile times co-scale — see module docs).
        seed: RNG seed; defaults to a per-benchmark constant so repeated
            loads agree.

    Raises:
        KeyError: for an unknown benchmark name.
    """
    info = BENCHMARKS[name]
    if seed is None:
        seed = _SEED_BASE + TABLE1.index(info)
    return generate(_spec_for(info, scale), seed=seed)


def load_suite(
    scale: float = 0.02, seed: Optional[int] = None
) -> Dict[str, OCSPInstance]:
    """Generate all nine benchmarks at the given scale.

    With an explicit ``seed``, benchmark ``i`` uses ``seed + i`` — one
    shared seed would generate correlated traces across the suite
    (identical Zipf draws, same hot-function pattern), silently
    narrowing what a "nine-benchmark" study actually exercises.
    """
    return {
        info.name: load(
            info.name,
            scale=scale,
            seed=None if seed is None else seed + i,
        )
        for i, info in enumerate(TABLE1)
    }


def table1_rows(scale: float = 0.02) -> List[Dict[str, object]]:
    """Paper Table 1 vs the generated suite, one dict per benchmark.

    Columns: name, parallelism, paper's function count and sequence
    length, and the generated instance's values at ``scale``.  Those
    come from the preset's spec without generating the trace: the
    generator emits exactly ``num_calls`` calls and calls each of its
    ``num_functions`` functions at least once (``_spec_for`` keeps
    ``num_calls >= num_functions``), on every seed.
    """
    rows: List[Dict[str, object]] = []
    for info in TABLE1:
        spec = _spec_for(info, scale)
        rows.append(
            {
                "program": info.name,
                "parallelism": "parallel" if info.parallel else "seq",
                "paper_functions": info.num_functions,
                "paper_calls": info.call_seq_length,
                "paper_time_s": info.default_time_s,
                "generated_functions": spec.num_functions,
                "generated_calls": spec.num_calls,
                "scale": scale,
            }
        )
    return rows
