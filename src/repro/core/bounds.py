"""Lower bounds on the minimum make-span (Section 5.2).

The paper's bound: the make-span cannot be smaller than the sum of the
shortest possible execution time of each invocation, i.e. every call
running at its function's highest compilation level:

    LB = sum_{i=1..N} e[f_i][K_{f_i}]

where ``K_f`` is the highest level available for ``f``.  We additionally
provide a slightly tighter *compile-aware* refinement used for ablation:
execution cannot start before the cheapest possible compilation of the
first called function finishes, so that latency can be added to the
pure-execution bound.
"""

from __future__ import annotations

import numpy as np

from .model import OCSPInstance
from .vecsim import instance_arrays

__all__ = [
    "lower_bound",
    "compile_aware_lower_bound",
    "warmup_aware_lower_bound",
]


def lower_bound(instance: OCSPInstance) -> float:
    """The paper's lower bound: every call at the highest level.

    This is what Figures 5, 6 and 8 normalize against.  The sum runs
    left to right over the interned call array, one ``numpy.cumsum``:
    the float additions of a per-call ``total += e`` loop, in its order.
    """
    arrays = instance_arrays(instance)
    if not len(arrays.calls_np):
        return 0.0
    # exec_tab pads each row with its last entry: column -1 is every
    # function's top-level exec time.
    execs = arrays.exec_tab[:, -1].take(arrays.calls_np)
    return float(np.cumsum(execs, out=execs)[-1])


def compile_aware_lower_bound(instance: OCSPInstance) -> float:
    """Refinement: add the unavoidable initial compile latency.

    The first invocation cannot start before its function's cheapest
    compilation (level 0) completes, and no execution overlaps that
    initial compile on the execution thread.  This dominates
    :func:`lower_bound` and stays a valid lower bound on the minimum
    make-span.
    """
    base = lower_bound(instance)
    if not instance.calls:
        return base
    first = instance.calls[0]
    return base + instance.profiles[first].compile_times[0]


def warmup_aware_lower_bound(instance: OCSPInstance) -> float:
    """A tighter bound for the single-compile-thread case (extension).

    For any position ``k``, every function whose *first* invocation is
    at or before ``k`` must have finished its first compilation before
    its own first call, hence before call ``k`` ends its wait.  With
    one compiler thread those compilations serialize, so

        start(call k) >= sum over f in F_k of c[f][0]

    where ``F_k`` is the set of functions first-called at positions
    ``<= k`` and ``c[f][0]`` is the cheapest compile.  Adding the
    fastest possible execution of the remaining calls:

        makespan >= max over k of ( sum_{f in F_k} c[f][0]
                                    + sum_{i >= k} e_top[f_i] )

    This dominates both :func:`lower_bound` (the ``k = 0`` term) and,
    when the first call opens the sequence, the compile-aware bound.
    It is valid only for ``compile_threads == 1`` — with more threads
    the warmup compiles overlap.  Computed in O(N).
    """
    calls = instance.calls
    if not calls:
        return 0.0
    profiles = instance.profiles
    # exec_tail[k] = fastest execution of calls k..N-1.
    tail = 0.0
    exec_tail = [0.0] * (len(calls) + 1)
    for i in range(len(calls) - 1, -1, -1):
        tail += profiles[calls[i]].exec_times[-1]
        exec_tail[i] = tail

    best = exec_tail[0]
    seen = set()
    compile_prefix = 0.0
    for k, fname in enumerate(calls):
        if fname not in seen:
            seen.add(fname)
            compile_prefix += profiles[fname].compile_times[0]
        candidate = compile_prefix + exec_tail[k]
        if candidate > best:
            best = candidate
    return best
