"""The V8 compilation-scheduling scheme (Section 6.2.4).

V8 (at the time of the paper) has two optimization levels: it compiles a
function at the low level at its first encounter and recompiles it at
the high level at its *second* invocation.  The paper applies this
scheme to the Java call sequences using the lowest two Jikes RVM levels
as V8's low/high pair; :func:`run_v8` accepts the (low, high) pair so
the same projection can be reproduced.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.model import OCSPInstance
from .runtime import RuntimeRunResult, RuntimeScheme, RuntimeSimulator

__all__ = ["V8Scheme", "run_v8"]


class V8Scheme(RuntimeScheme):
    """Count-based two-level promotion: low at call 1, high at call 2.

    Args:
        low: level used for the blocking first-encounter compile.
        high: level requested when the second invocation arrives.
    """

    def __init__(self, low: int = 0, high: int = 1):
        if high <= low:
            raise ValueError("high level must exceed low level")
        self.low = low
        self.high = high

    def initial_level(self, fname: str) -> int:
        return self.low

    def promotions(
        self, fname: str, num_levels: int
    ) -> Tuple[Tuple[int, int], ...]:
        return ((2, self.high),) if self.high < num_levels else ()


def run_v8(
    instance: OCSPInstance,
    levels: Tuple[int, int] = (0, 1),
    compile_threads: int = 1,
    sample_period: Optional[float] = None,
    tracer=None,
    faults=None,
) -> RuntimeRunResult:
    """Replay ``instance`` under the V8 scheme.

    Args:
        instance: the workload.
        levels: the (low, high) level pair; the paper uses the lowest
            two levels of the 4-level Jikes JIT.
        compile_threads: compiler threads serving the queue.
        sample_period: unused by the scheme itself (no sampler hooks)
            but kept for interface uniformity.
        tracer: optional :class:`repro.observability.Tracer` (or scope).
        faults: optional :class:`repro.faults.FaultInjector`; see
            :class:`~repro.vm.runtime.RuntimeSimulator`.
    """
    simulator = RuntimeSimulator(
        instance,
        V8Scheme(*levels),
        compile_threads=compile_threads,
        sample_period=sample_period,
        tracer=tracer,
        faults=faults,
    )
    return simulator.run()
