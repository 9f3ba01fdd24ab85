"""A HotSpot-style tiered-compilation scheme (beyond the paper's two).

The paper evaluates Jikes RVM's sampling-driven scheme and V8's
count-based two-level scheme.  HotSpot-style tiering is the third
common design: invocation counters promote a method through tiers at
fixed thresholds (client compiler early, server compiler once hot).
Modeling it rounds out the comparison: threshold tiering reacts faster
than sampling but, like both, compiles in discovery order rather than
in a *planned* order — which is exactly the gap IAR exposes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.model import OCSPInstance
from .runtime import RuntimeRunResult, RuntimeScheme, RuntimeSimulator

__all__ = ["TieredScheme", "run_tiered", "DEFAULT_THRESHOLDS"]

DEFAULT_THRESHOLDS: Tuple[int, ...] = (1, 50, 2000)
"""Invocation counts that trigger each level: level 0 at the 1st call,
level 1 at the 50th, level 2 at the 2000th (shaped after HotSpot's
Tier1/Tier3/Tier4 thresholds, scaled to trace lengths)."""


class TieredScheme(RuntimeScheme):
    """Counter-based tier promotion.

    Args:
        thresholds: ``thresholds[j]`` is the invocation count at which
            level ``j`` is requested; must be strictly increasing and
            start at 1 (the first call must produce runnable code).
            Levels beyond a function's profile are skipped.
    """

    def __init__(self, thresholds: Sequence[int] = DEFAULT_THRESHOLDS):
        thresholds = tuple(thresholds)
        if not thresholds or thresholds[0] != 1:
            raise ValueError("thresholds must start at 1 (first call compiles)")
        if list(thresholds) != sorted(set(thresholds)):
            raise ValueError("thresholds must be strictly increasing")
        self.thresholds = thresholds

    def initial_level(self, fname: str) -> int:
        return 0

    def promotions(
        self, fname: str, num_levels: int
    ) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (threshold, level)
            for level, threshold in enumerate(self.thresholds)
            if 0 < level < num_levels
        )


def run_tiered(
    instance: OCSPInstance,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
    compile_threads: int = 1,
    sample_period: Optional[float] = None,
    tracer=None,
) -> RuntimeRunResult:
    """Replay ``instance`` under the HotSpot-style tiered scheme."""
    simulator = RuntimeSimulator(
        instance,
        TieredScheme(thresholds),
        compile_threads=compile_threads,
        sample_period=sample_period,
        tracer=tracer,
    )
    return simulator.run()
