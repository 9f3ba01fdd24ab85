"""Core data model for the Optimal Compilation Scheduling Problem (OCSP).

The paper (Section 3, Definition 1) defines an OCSP instance as:

* a *call sequence*: an ordered list of function invocations;
* for every function ``m_i`` and compilation level ``j``, a compilation
  time ``c[i][j]`` and a per-invocation execution time ``e[i][j]``;
* the monotonicity assumptions ``c[i][j1] <= c[i][j2]`` and
  ``e[i][j1] >= e[i][j2]`` for ``j1 < j2`` (deeper optimization costs more
  to compile and runs faster);
* a function cannot run before its first compilation finishes, and every
  invocation runs the code produced by the *latest finished* compilation.

This module provides the two interchange types used throughout the
library: :class:`FunctionProfile` (the per-function cost table) and
:class:`OCSPInstance` (profiles plus a call sequence).  Every scheduler,
simulator, and workload generator in the package produces or consumes
these types, so that all comparisons run through identical code paths.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import eq
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FunctionProfile",
    "OCSPInstance",
    "ModelError",
    "validate_monotone_levels",
]


def _left_sum(values: Iterable[float], start: float = 0.0) -> float:
    """``start + v0 + v1 + ...``, added strictly left to right.

    Builtin ``sum`` compensates float rounding since Python 3.12, so it
    can differ in the last bits from the simulators' sequential adds
    and between interpreter versions.
    """
    return deque(accumulate(values, initial=start), maxlen=1)[0]


class ModelError(ValueError):
    """Raised when an OCSP instance or profile violates the paper's model."""


def validate_monotone_levels(
    compile_times: Sequence[float], exec_times: Sequence[float]
) -> None:
    """Check Definition 1's monotonicity assumptions.

    For levels ``j1 < j2`` we must have ``c[j1] <= c[j2]`` (deeper
    optimization takes at least as long to compile) and ``e[j1] >= e[j2]``
    (deeper optimization runs at least as fast).

    Raises:
        ModelError: if either sequence is empty, the lengths differ, any
            value is negative or non-finite, or monotonicity is violated.
    """
    if len(compile_times) == 0:
        raise ModelError("a function needs at least one compilation level")
    if len(compile_times) != len(exec_times):
        raise ModelError(
            "compile_times and exec_times must have one entry per level "
            f"(got {len(compile_times)} vs {len(exec_times)})"
        )
    for name, values in (("compile", compile_times), ("exec", exec_times)):
        for value in values:
            if not math.isfinite(value):
                raise ModelError(f"{name} time {value!r} is not finite")
            if value < 0:
                raise ModelError(f"{name} time {value!r} is negative")
    for j in range(1, len(compile_times)):
        if compile_times[j] < compile_times[j - 1]:
            raise ModelError(
                "compile times must be non-decreasing across levels: "
                f"c[{j - 1}]={compile_times[j - 1]} > c[{j}]={compile_times[j]}"
            )
        if exec_times[j] > exec_times[j - 1]:
            raise ModelError(
                "exec times must be non-increasing across levels: "
                f"e[{j - 1}]={exec_times[j - 1]} < e[{j}]={exec_times[j]}"
            )


@dataclass(frozen=True)
class FunctionProfile:
    """Per-function cost table: compile and execution time at each level.

    Levels are indexed ``0 .. num_levels - 1`` where level 0 is the most
    responsive (cheapest to compile) and the highest index is the most
    deeply optimized.  This mirrors Jikes RVM's baseline compiler (level 0)
    plus optimizing compiler levels, and V8's low/high pair.

    Attributes:
        name: identifier of the function (unique within an instance).
        compile_times: ``c[j]`` for each level ``j``; non-decreasing.
        exec_times: per-invocation ``e[j]`` for each level ``j``;
            non-increasing.
    """

    name: str
    compile_times: Tuple[float, ...]
    exec_times: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "compile_times", tuple(self.compile_times))
        object.__setattr__(self, "exec_times", tuple(self.exec_times))
        validate_monotone_levels(self.compile_times, self.exec_times)

    @property
    def num_levels(self) -> int:
        """Number of available compilation levels."""
        return len(self.compile_times)

    @property
    def levels(self) -> range:
        """Iterable over valid level indices."""
        return range(self.num_levels)

    def compile_time(self, level: int) -> float:
        """Compilation time ``c[level]``."""
        return self.compile_times[level]

    def exec_time(self, level: int) -> float:
        """Per-invocation execution time ``e[level]``."""
        return self.exec_times[level]

    def total_cost(self, level: int, n_calls: int) -> float:
        """``c[level] + n_calls * e[level]`` — the cost-benefit objective.

        This is the quantity minimized by the paper's "most cost-effective
        level" (Section 4.1) and by the cost-benefit models of Jikes RVM.
        """
        return self.compile_times[level] + n_calls * self.exec_times[level]

    def most_cost_effective_level(self, n_calls: int, tie_break: str = "low") -> int:
        """Level minimizing ``c[l] + n_calls * e[l]``.

        Args:
            n_calls: invocation count the cost is amortized over.
            tie_break: ``"low"`` resolves equal costs to the faster
                compile (right for single-shot compilation, Theorem 1);
                ``"high"`` resolves to the deeper optimization (right
                for IAR's *high* candidate, where the compile cost can
                be hidden).
        """
        if n_calls < 0:
            raise ModelError(f"n_calls must be non-negative, got {n_calls}")
        if tie_break not in ("low", "high"):
            raise ModelError(f"tie_break must be 'low' or 'high', got {tie_break!r}")
        best_level = 0
        best_cost = self.total_cost(0, n_calls)
        for level in range(1, self.num_levels):
            cost = self.total_cost(level, n_calls)
            if cost < best_cost or (tie_break == "high" and cost == best_cost):
                best_level = level
                best_cost = cost
        return best_level

    @property
    def most_responsive_level(self) -> int:
        """The level taking the least time to compile (level 0 by
        monotonicity; kept as a named property to match the paper's
        vocabulary in Section 5.1)."""
        return 0

    def reduced_to_two_levels(self, n_calls: int) -> "FunctionProfile":
        """Project this profile onto the two levels IAR uses (Section 5.1).

        For a JIT with more than two levels, the paper's design is to take
        the *most responsive* level and the *most cost-effective* level of
        a function as the two candidate levels.  If both coincide, the
        returned profile has a single level.
        """
        low = self.most_responsive_level
        high = self.most_cost_effective_level(n_calls)
        if high == low:
            return FunctionProfile(
                name=self.name,
                compile_times=(self.compile_times[low],),
                exec_times=(self.exec_times[low],),
            )
        if high < low:  # cannot happen with low == 0, but keep the invariant
            low, high = high, low
        return FunctionProfile(
            name=self.name,
            compile_times=(self.compile_times[low], self.compile_times[high]),
            exec_times=(self.exec_times[low], self.exec_times[high]),
        )

    def with_times(
        self,
        compile_times: Optional[Sequence[float]] = None,
        exec_times: Optional[Sequence[float]] = None,
    ) -> "FunctionProfile":
        """Return a copy with some times replaced (used by estimation
        models that perturb the true costs)."""
        return FunctionProfile(
            name=self.name,
            compile_times=tuple(
                compile_times if compile_times is not None else self.compile_times
            ),
            exec_times=tuple(
                exec_times if exec_times is not None else self.exec_times
            ),
        )


class _Trace:
    """The call sequence, stored once as function ids: an instance's
    ``calls``.

    A function's id is its position in ``profiles``.  ``ids`` holds the
    calls as ids, in the narrowest unsigned type that holds the function
    count (one byte per call up to 256 functions).  ``counts`` (calls
    per id), ``first_pos`` (first-call positions, ascending) and
    ``first_fids`` (the called ids in first-call order) are numpy
    arrays, and ``first_pos_list``/``first_fids_list`` the same two as
    lists (the vector engine's replay bisects them); ``count_of`` and
    ``first_index_of`` key the same numbers by name, in first-call
    order.  It reads as the tuple of names it stands for (iteration
    maps ids to names ``_BLOCK`` at a time, and :meth:`blocks` yields
    those blocks; slices and ``+`` give tuples), is shared by every
    instance whose profiles hold the same names in the same order, and
    pickles with its instance.
    """

    _BLOCK = 1 << 16

    __slots__ = (
        "names",
        "fid_of",
        "ids",
        "counts",
        "first_pos",
        "first_fids",
        "first_pos_list",
        "first_fids_list",
        "count_of",
        "first_index_of",
        "_name_array",
    )

    def __init__(self, names: List[str], ids: Sequence[int]) -> None:
        ids = np.asarray(ids)
        if len(ids) and not 0 <= ids.min() <= ids.max() < len(names):
            raise ModelError(f"function ids must lie in 0..{len(names) - 1}")
        self.names = names
        self.fid_of = {name: fid for fid, name in enumerate(names)}
        self._name_array = np.array(names, dtype=object)
        dtype = np.min_scalar_type(max(len(names) - 1, 0))
        ids = self.ids = ids.astype(dtype, copy=False)
        self.counts, self.first_pos, self.first_fids = self._scan(ids, len(names))
        self.first_pos_list = self.first_pos.tolist()
        self.first_fids_list = self.first_fids.tolist()
        called = [names[fid] for fid in self.first_fids_list]
        self.count_of = dict(zip(called, self.counts[self.first_fids].tolist()))
        self.first_index_of = dict(zip(called, self.first_pos_list))

    @classmethod
    def _scan(
        cls, ids: np.ndarray, num_names: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Calls per id, first-call positions (ascending) and the ids
        they call, ``_BLOCK`` calls at a time.

        No transient grows with the trace: the first-call pass stops
        once every called id is found, and sorts only the calls whose id
        is new at its block's start.
        """
        starts = range(0, len(ids), cls._BLOCK)
        counts = np.zeros(num_names, dtype=np.intp)
        for start in starts:
            counts += np.bincount(ids[start : start + cls._BLOCK], minlength=num_names)
        called = int(np.count_nonzero(counts))
        seen = np.zeros(num_names, dtype=bool)
        positions, fids = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for start in starts:
            if not called:
                break
            block = ids[start : start + cls._BLOCK]
            fresh = np.flatnonzero(~seen[block])
            if len(fresh):
                new, index = np.unique(block[fresh], return_index=True)
                order = index.argsort()
                positions.append(start + fresh[index[order]])
                fids.append(new[order].astype(np.intp))
                seen[new] = True
                called -= len(new)
        return counts, np.concatenate(positions), np.concatenate(fids)

    @classmethod
    def interned(cls, names: List[str], calls: Sequence[str]) -> "_Trace":
        """The trace of ``calls``, a sequence of names."""
        fid_of = {name: fid for fid, name in enumerate(names)}
        try:
            ids = np.fromiter(
                map(fid_of.__getitem__, calls),
                np.min_scalar_type(max(len(names) - 1, 0)),
                len(calls),
            )
        except KeyError:
            index = next(i for i, f in enumerate(calls) if f not in fid_of)
            raise ModelError(
                f"call #{index} invokes {calls[index]!r} which has no profile"
            ) from None
        return cls(names, ids)

    def __len__(self) -> int:
        return len(self.ids)

    def blocks(self, table: Optional[Sequence[object]] = None) -> Iterator[list]:
        """The calls as lists, ``_BLOCK`` at a time: each call's entry
        of ``table`` (one per function id), by default its name."""
        ids, block = self.ids, self._BLOCK
        table = self._name_array if table is None else np.array(table, dtype=object)
        return (
            table.take(ids[i : i + block]).tolist() for i in range(0, len(ids), block)
        )

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self.blocks())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._name_array.take(self.ids[index]).tolist())
        return self.names[self.ids.item(index)]

    def __contains__(self, fname: object) -> bool:
        return fname in self.count_of

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Trace) and other.names == self.names:
            return bool(np.array_equal(self.ids, other.ids))
        if not isinstance(other, (_Trace, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __add__(self, other: Iterable[str]) -> Tuple[str, ...]:
        return tuple(self) + tuple(other)

    def __repr__(self) -> str:
        return f"<{len(self)} calls to {len(self.count_of)} functions>"


@dataclass(frozen=True)
class OCSPInstance:
    """An instance of the Optimal Compilation Scheduling Problem.

    Attributes:
        profiles: mapping from function name to its
            :class:`FunctionProfile`.  Every function appearing in
            ``calls`` must have a profile; profiles for functions that are
            never called are permitted (they model loaded-but-unused
            methods) and are ignored by schedulers.
        calls: the invocation sequence, in program order.  For
            multithreaded applications the paper merges per-thread calls
            into a single sequence in profiler order (Section 6.1); we
            inherit that convention.
        name: optional label (e.g. the benchmark name).

    Construction interns ``calls`` once: each call becomes its
    function's position in ``profiles``, in one compact numpy array,
    and the call counts and first calls are read off that array.  That
    array is the only copy of the calls: ``calls`` holds it, read as a
    sequence of names (:class:`_Trace`).  The engines, the runtime
    replays and :func:`~repro.core.bounds.lower_bound` read the ids, and
    an instance built on another's ``calls`` with profiles of the same
    names in the same order (:meth:`restricted_to_levels`) shares them.
    """

    profiles: Mapping[str, FunctionProfile]
    calls: Sequence[str]
    name: str = "instance"

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", dict(self.profiles))
        names = list(self.profiles)
        if not (isinstance(self.calls, _Trace) and self.calls.names == names):
            object.__setattr__(self, "calls", _Trace.interned(names, self.calls))

    def __getstate__(self) -> Dict[str, object]:
        # The interned trace ships with the instance; the engines'
        # per-projection tables stay in their process and rebuild on
        # first use.
        state = dict(self.__dict__)
        state.pop("_arrays", None)
        return state

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def num_calls(self) -> int:
        """Length of the invocation sequence (``N`` in the paper)."""
        return len(self.calls)

    @property
    def called_functions(self) -> List[str]:
        """Functions that appear in the call sequence, in first-call order.

        This is the paper's ``getSeq1stCalls(Eseq)`` (Figure 3, step 1).
        """
        return list(self.calls.count_of)

    @property
    def num_functions(self) -> int:
        """Number of distinct called functions (``M`` in the paper)."""
        return len(self.calls.count_of)

    def call_count(self, fname: str) -> int:
        """``f.n``: number of invocations of ``fname`` in the sequence."""
        return self.calls.count_of.get(fname, 0)

    def first_call_index(self, fname: str) -> int:
        """Position of the first invocation of ``fname``.

        Raises:
            KeyError: if the function is never called.
        """
        return self.calls.first_index_of[fname]

    def profile(self, fname: str) -> FunctionProfile:
        """Profile for ``fname``."""
        return self.profiles[fname]

    def max_level(self, fname: str) -> int:
        """Highest compilation level available for ``fname``."""
        return self.profiles[fname].num_levels - 1

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reduced_to_two_levels(self) -> "OCSPInstance":
        """Project every called function onto IAR's two candidate levels.

        See :meth:`FunctionProfile.reduced_to_two_levels`.  Never-called
        functions are dropped (they carry no information for scheduling).
        """
        reduced = {
            fname: self.profiles[fname].reduced_to_two_levels(self.call_count(fname))
            for fname in self.calls.count_of
        }
        return OCSPInstance(profiles=reduced, calls=self.calls, name=self.name)

    def restricted_to_levels(self, levels: Mapping[str, Sequence[int]]) -> "OCSPInstance":
        """Keep only the given levels for each function.

        Args:
            levels: for each function name, the (sorted) level indices to
                keep.  Functions not listed keep all their levels.
        """
        new_profiles: Dict[str, FunctionProfile] = {}
        for fname, prof in self.profiles.items():
            keep = levels.get(fname)
            if keep is None:
                new_profiles[fname] = prof
                continue
            keep = sorted(keep)
            if not keep:
                raise ModelError(f"must keep at least one level for {fname!r}")
            for lvl in keep:
                if not 0 <= lvl < prof.num_levels:
                    raise ModelError(
                        f"level {lvl} out of range for {fname!r} "
                        f"(has {prof.num_levels} levels)"
                    )
            new_profiles[fname] = FunctionProfile(
                name=fname,
                compile_times=tuple(prof.compile_times[lvl] for lvl in keep),
                exec_times=tuple(prof.exec_times[lvl] for lvl in keep),
            )
        return OCSPInstance(new_profiles, self.calls, self.name)

    def prefix(self, n_calls: int) -> "OCSPInstance":
        """Instance containing only the first ``n_calls`` invocations."""
        return OCSPInstance(
            profiles=self.profiles,
            calls=_Trace(self.calls.names, self.calls.ids[:n_calls]),
            name=f"{self.name}[:{n_calls}]",
        )

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Basic statistics, matching the columns of the paper's Table 1."""
        return {
            "name": self.name,
            "num_functions": self.num_functions,
            "call_seq_length": self.num_calls,
            "levels": max(
                (self.profiles[f].num_levels for f in self.calls.count_of),
                default=0,
            ),
        }


def merge_instances(instances: Iterable[OCSPInstance], name: str = "merged") -> OCSPInstance:
    """Concatenate call sequences of several instances sharing no function
    names.  Useful for building multi-phase workloads from parts.

    Raises:
        ModelError: if two instances define the same function name with
            different profiles.
    """
    profiles: Dict[str, FunctionProfile] = {}
    calls: List[str] = []
    for inst in instances:
        for fname, prof in inst.profiles.items():
            existing = profiles.get(fname)
            if existing is not None and existing != prof:
                raise ModelError(
                    f"conflicting profiles for {fname!r} while merging instances"
                )
            profiles[fname] = prof
        calls.extend(inst.calls)
    return OCSPInstance(profiles=profiles, calls=tuple(calls), name=name)
