"""Lower bounds on the minimum make-span (Section 5.2).

The paper's bound: the make-span cannot be smaller than the sum of the
shortest possible execution time of each invocation, i.e. every call
running at its function's highest compilation level:

    LB = sum_{i=1..N} e[f_i][K_{f_i}]

where ``K_f`` is the highest level available for ``f``.
:func:`warmup_aware_lower_bound` tightens it for one compile thread.
"""

from __future__ import annotations

import numpy as np

from .model import OCSPInstance
from .vecsim import instance_arrays

__all__ = [
    "lower_bound",
    "warmup_aware_lower_bound",
]


def lower_bound(instance: OCSPInstance) -> float:
    """The paper's lower bound: every call at the highest level.

    This is what Figures 5, 6 and 8 normalize against.  The sum runs
    left to right over the instance's interned call ids, one
    ``numpy.cumsum``: the float additions of a per-call ``total += e``
    loop, in its order.
    """
    arrays = instance_arrays(instance)
    ids = arrays.trace.ids
    if not len(ids):
        return 0.0
    # exec_tab pads each row with its last entry: column -1 is every
    # function's top-level exec time.
    execs = arrays.exec_tab[:, -1].take(ids)
    return float(np.cumsum(execs, out=execs)[-1])


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

    This dominates :func:`lower_bound`: the ``k = 0`` term is that
    bound plus the first called function's level-0 compile, which no
    execution can overlap.  It holds only with one compile thread
    (``compile_threads == 1``); with more, the warmup compiles overlap.
    Computed in O(N) numpy passes, each sum added left to right from
    0.0 as a per-call loop adds it.
    """
    arrays = instance_arrays(instance)
    trace = arrays.trace
    if not len(trace):
        return 0.0
    # exec_tail[k] = fastest execution of calls k..N-1, summed from the
    # end; exec_tail[N] = 0.0.
    execs = arrays.exec_tab[:, -1].take(trace.ids[::-1])
    exec_tail = np.cumsum(np.concatenate(([0.0], execs)))[::-1]
    # The level-0 compiles of the functions first called at or before
    # each position, summed in first-call order.
    compiles = arrays.compile_tab[:, 0].take(trace.first_fids)
    compile_prefix = np.cumsum(np.concatenate(([0.0], compiles)))[1:]
    covered = np.diff(trace.first_pos, append=len(trace))
    # candidates[0] >= exec_tail[0], the k = 0 term.
    return float((np.repeat(compile_prefix, covered) + exec_tail[:-1]).max())
