"""Deterministic fault decisions plus their bookkeeping.

A :class:`FaultInjector` answers the questions the engines ask — *does
this compile attempt fail?  is this thread stalled?  is this sampler
tick lost?* — from a keyed hash of ``(seed, kind, key...)``, never from
a shared RNG stream.  Decisions are therefore **order-independent**:
the same ``(function, level, attempt)`` gets the same verdict no matter
how many other questions were asked in between, and a re-run with the
same seed reproduces every fault bit-for-bit.

:meth:`FaultInjector.degrade` is the one degradation chain: the
reactive runtime places its attempts on compiler threads, the planned
path (:func:`repro.faults.apply_to_schedule`) appends them to a plan,
and the decision service turns them into a decision record.

The injector also tallies what actually fired (failures, retries,
fallbacks, forced installs, stalls, dropped/duplicated ticks, wasted
compile time) and mirrors the integer counts into an optional
:class:`repro.observability.MetricsRegistry` under ``faults.*`` so
``repro diagnose``/``bench`` can attribute gaps to faults.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.model import OCSPInstance
from ..core.online import perturb_times
from .spec import FaultSpec, parse_fault_spec

__all__ = ["FaultInjector", "Attempt", "active_injector"]

Attempt = Tuple[int, int, float, bool]
"""One compile attempt of a degradation chain: ``(level, attempt,
charged compile time, failed)``."""

_TALLY_KEYS = (
    "compile_failures",
    "retries",
    "fallbacks",
    "forced_installs",
    "stalls",
    "ticks_dropped",
    "ticks_duplicated",
)


class FaultInjector:
    """Seeded fault oracle for one experiment.

    Args:
        spec: a :class:`FaultSpec` or its string form (parsed via
            :func:`repro.faults.spec.parse_fault_spec`).
        metrics: optional
            :class:`repro.observability.MetricsRegistry`; every tally
            increment is mirrored as a ``faults.<name>`` counter.

    One injector may serve several engine runs (the degradation studies
    run five schemes against one injector); the tallies then aggregate
    every fault those runs experienced.
    """

    def __init__(
        self,
        spec: Union[FaultSpec, str],
        metrics=None,
    ) -> None:
        self.spec = parse_fault_spec(spec)
        self.metrics = metrics
        self.tally: Dict[str, int] = {key: 0 for key in _TALLY_KEYS}
        self.wasted_compile_time = 0.0

    @property
    def null(self) -> bool:
        """True when this injector can never fire (see
        :attr:`FaultSpec.is_null`)."""
        return self.spec.is_null

    # ------------------------------------------------------------------
    # Decisions (order-independent, repeat-query-stable)
    # ------------------------------------------------------------------
    def _draw(self, kind: str, *key) -> float:
        """Uniform [0, 1) draw keyed by ``(seed, kind, key...)``.

        ``random.Random`` seeded from the key's ``repr`` hashes it
        platform-independently (the same idiom as the cost-benefit
        model's hotness noise), so a decision depends only on its key.
        """
        return random.Random(repr((self.spec.seed, kind) + key)).random()

    def compile_fails(self, fname: str, level: int, attempt: int) -> bool:
        """Whether compile attempt ``attempt`` of ``(fname, level)``
        fails.  A firing decision is tallied as a ``compile_failure``."""
        p = self.spec.compile_fail
        if p <= 0.0:
            return False
        if self._draw("compile_fail", fname, level, attempt) < p:
            self._count("compile_failures")
            return True
        return False

    def compile_time_factor(self, fname: str, level: int, attempt: int) -> float:
        """Compile-time multiplier of the attempt: ``stall_factor``
        when the thread stalls, else exactly ``1.0`` (so unstalled
        faulty runs charge bitwise-identical compile times)."""
        if self.spec.stall <= 0.0:
            return 1.0
        if self._draw("stall", fname, level, attempt) < self.spec.stall:
            self._count("stalls")
            return self.spec.stall_factor
        return 1.0

    def drop_tick(self, tick: int) -> bool:
        """Whether sampler tick ``tick`` is lost."""
        p = self.spec.tick_drop
        if p <= 0.0:
            return False
        if self._draw("tick_drop", tick) < p:
            self._count("ticks_dropped")
            return True
        return False

    def duplicate_tick(self, tick: int) -> bool:
        """Whether sampler tick ``tick`` is delivered twice."""
        p = self.spec.tick_dup
        if p <= 0.0:
            return False
        if self._draw("tick_dup", tick) < p:
            self._count("ticks_duplicated")
            return True
        return False

    def scheduler_view(self, instance: OCSPInstance) -> OCSPInstance:
        """The cost table the *scheduler* plans against.

        With ``mispredict == 0`` this is ``instance`` itself (same
        object — the clean path stays bitwise clean).  Otherwise every
        profile is perturbed by a correlated lognormal of relative
        error ``mispredict``; the simulator keeps charging the true
        ``instance``, so the gap between the two is pure misprediction
        cost.
        """
        rel = self.spec.mispredict
        if rel == 0.0:
            return instance
        # Each draw is keyed by its function, so building the view in the
        # source's order changes no number and lets it share the trace.
        profiles = {
            fname: perturb_times(
                prof,
                rel,
                random.Random(
                    repr((self.spec.seed, "mispredict", instance.name, fname))
                ),
                correlated=True,
            )
            for fname, prof in instance.profiles.items()
        }
        return OCSPInstance(profiles, instance.calls, f"{instance.name}!mispredict")

    # ------------------------------------------------------------------
    # The degradation chain
    # ------------------------------------------------------------------
    def degrade(
        self,
        fname: str,
        compile_times: Sequence[float],
        level: int,
        installed: int,
    ) -> Tuple[List[Attempt], bool]:
        """The degradation chain of one compile request.

        Attempt ``level``; on failure retry one level lower, up to
        ``spec.retries`` times.  A retry that would land at or below the
        ``installed`` tier stops the chain: the function keeps running
        there.  A chain that runs out of retries falls back to the
        installed tier too, except on a *first encounter*
        (``installed < 0``), where one guaranteed level-0 compile — the
        fail-safe tier a production JIT's baseline compiler provides —
        keeps every called function runnable.  Failed attempts cost
        their compile time (times the stall factor when the thread
        stalled) and install nothing.

        Every draw and tally happens here, keyed by
        ``(function, level, attempt)``; callers only place the attempts
        on their own clock (the runtime adds the spec's ``backoff``).

        Args:
            fname: the function.
            compile_times: its compile time per level.
            level: the requested level.
            installed: the highest level installed (or pending) so far,
                ``-1`` before the first install.

        Returns:
            ``(attempts, below)``: every attempt as an :data:`Attempt`,
            in order — only the last one can succeed — and whether the
            chain stopped at or below the installed tier.
        """
        retries = self.spec.retries
        must_install = installed < 0
        attempts: List[Attempt] = []
        lvl = level
        attempt = 1
        while True:
            if not must_install and lvl <= installed:
                self.note_fallback()
                return attempts, True
            c = compile_times[lvl]
            factor = self.compile_time_factor(fname, lvl, attempt)
            if factor != 1.0:
                c *= factor
            # The fail-safe: a first-encounter chain past its retry
            # budget compiles at level 0 and cannot fail.
            guaranteed = must_install and attempt > retries and lvl == 0
            failed = not guaranteed and self.compile_fails(fname, lvl, attempt)
            attempts.append((lvl, attempt, c, failed))
            if not failed:
                if must_install and attempt > retries:
                    self.note_forced_install()
                return attempts, False
            self.note_wasted(c)
            if attempt <= retries:
                self.note_retry()
                lvl = max(0, lvl - 1)
            elif must_install:
                lvl = 0  # next round is the guaranteed fail-safe
            else:
                self.note_fallback()
                return attempts, False
            attempt += 1

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def note_retry(self) -> None:
        """A failed request is being retried at a lower level."""
        self._count("retries")

    def note_fallback(self) -> None:
        """A request was abandoned; the function stays at its current
        (or baseline) tier."""
        self._count("fallbacks")

    def note_forced_install(self) -> None:
        """A first-encounter chain exhausted its retries and fell back
        to the guaranteed baseline (level-0) compile."""
        self._count("forced_installs")

    def note_wasted(self, compile_time: float) -> None:
        """Compiler-thread time burned by a failed attempt."""
        self.wasted_compile_time += compile_time

    def _count(self, key: str) -> None:
        self.tally[key] += 1
        if self.metrics is not None:
            self.metrics.counter(f"faults.{key}").inc()

    def replay_tally(self, delta: Dict[str, int], wasted: float = 0.0) -> None:
        """Re-apply a recorded tally delta (and wasted compile time).

        The service's decision cache memoizes a degradation chain's
        *outcome* together with the tallies the chain produced; serving
        a hit replays them here so fault summaries and ``faults.*``
        metrics are bitwise identical whether the chain ran or the
        cache answered.
        """
        for key, amount in delta.items():
            if key not in self.tally:
                raise KeyError(f"unknown fault tally {key!r}")
            if amount:
                self.tally[key] += amount
                if self.metrics is not None:
                    self.metrics.counter(f"faults.{key}").inc(amount)
        if wasted:
            self.wasted_compile_time += wasted

    def summary(self) -> Dict[str, object]:
        """Plain-data tally: the integer counts plus wasted compile
        time, suitable for JSON output and test assertions."""
        out: Dict[str, object] = dict(self.tally)
        out["wasted_compile_time"] = self.wasted_compile_time
        return out


def active_injector(faults, metrics=None) -> Optional[FaultInjector]:
    """``faults`` as an injector, or ``None`` when nothing can fire.

    Accepts ``None``, a spec string, a :class:`FaultSpec` or an
    injector (``metrics`` reaches only an injector built here).  A null
    spec means no injector: every engine then takes its untouched clean
    path, so zero-rate results are bitwise equal to fault-free ones.
    """
    if faults is None:
        return None
    if not isinstance(faults, FaultInjector):
        faults = FaultInjector(faults, metrics=metrics)
    return None if faults.null else faults
