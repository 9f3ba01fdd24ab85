"""Engine selection seam: ``engine={"reference", "vector"}``.

Every measurement in this repo funnels through one of two bitwise
identical make-span engines:

* ``"reference"`` — the pure-Python oracle,
  :func:`repro.core.makespan.simulate` (per-call dict lookups; the
  semantics the production engine is tested against);
* ``"vector"`` — :class:`repro.core.vecsim.VectorSimulator` (interned
  ids, numpy structure-of-arrays kernels, incremental propose/commit).

This module is the one place the mapping lives, and the one place the
default rule lives: an ``engine`` of ``None`` defers to the session
default, set via :func:`set_default_engine` or the ``REPRO_ENGINE``
environment variable (which worker processes inherit), and finally to
``"vector"``.  Callers thread an ``engine`` argument
(``makespan.simulate``, ``localsearch``, ``iar``,
``faults.simulate_with_faults``, the CLI's ``--engine``); only
:func:`~repro.core.makespan.simulate` keeps the oracle as its own
default.

:func:`make_simulator` builds a fresh engine on every call.  Building
one is cheap: every vector engine on an instance shares the call ids
and first-call lists the instance interned when it was built, and the
cost tables it builds once (:func:`repro.core.vecsim.instance_arrays`).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

from .makespan import MakespanResult, _check_engine_args, iter_calls, simulate
from .model import OCSPInstance
from .schedule import CompileTask, Schedule
from .vecsim import VectorSimulator

__all__ = [
    "ENGINES",
    "ReferenceSimulator",
    "get_default_engine",
    "make_simulator",
    "resolve_engine",
    "set_default_engine",
]

ENGINES = ("reference", "vector")

_default_engine: Optional[str] = None


def set_default_engine(engine: Optional[str]) -> None:
    """Set the session-wide default engine (``None`` clears it)."""
    global _default_engine
    if engine is not None and engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    _default_engine = engine


def get_default_engine() -> Optional[str]:
    """The session default: :func:`set_default_engine`'s value, else
    ``$REPRO_ENGINE``, else ``None``."""
    if _default_engine is not None:
        return _default_engine
    env = os.environ.get("REPRO_ENGINE")
    if env:
        if env not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {env!r} "
                f"(from REPRO_ENGINE)"
            )
        return env
    return None


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an ``engine`` argument to a concrete engine name.

    ``None`` defers to :func:`get_default_engine`, then to
    ``"vector"``.

    Raises:
        ValueError: for a name outside :data:`ENGINES`.
    """
    name = engine if engine is not None else (get_default_engine() or "vector")
    if name not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
    return name


class ReferenceSimulator:
    """The pure-Python oracle behind the engine-object interface.

    Adapts :func:`repro.core.makespan.simulate` to the vector engine's
    evaluator API (``evaluate`` / ``bind`` / ``propose`` / ``commit`` /
    ``preview`` / ``result`` / ``trace_stats``), so every
    engine-threaded code path can run against the oracle without a
    special case.  There is no incremental machinery: ``propose`` runs a
    full simulation (its ``cutoff`` is accepted but ignored — the true
    span is returned, which makes every caller's ``span <= incumbent``
    decision identical to the early-exit engines').

    Whatever the session default engine, every method runs the
    reference loop: ``evaluate`` pins ``engine="reference"``.

    ``trace_stats`` does not support ``preinstalled`` functions (the
    underlying :func:`~repro.core.makespan.iter_calls` stream has no
    notion of them); the vector engine is the tool for that.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        compile_threads: int = 1,
        preinstalled: Optional[Dict[str, int]] = None,
        metrics=None,
    ) -> None:
        self._preinstalled = _check_engine_args(
            instance, compile_threads, preinstalled
        )
        self._instance = instance
        self._compile_threads = compile_threads
        self.metrics = metrics
        self._b_tasks: Optional[Tuple[CompileTask, ...]] = None
        self._b_makespan = 0.0
        self._cand: Optional[Tuple[Tuple[CompileTask, ...], float]] = None

    @staticmethod
    def _as_tasks(schedule) -> Tuple[CompileTask, ...]:
        return tuple(getattr(schedule, "tasks", schedule))

    def evaluate(
        self,
        schedule,
        record_timeline: bool = False,
        validate: bool = False,
        release_times: Optional[Sequence[float]] = None,
        task_compile_times: Optional[Sequence[float]] = None,
        task_installs: Optional[Sequence[bool]] = None,
        tracer=None,
    ) -> MakespanResult:
        return simulate(
            self._instance,
            Schedule(self._as_tasks(schedule)),
            compile_threads=self._compile_threads,
            record_timeline=record_timeline,
            validate=validate,
            preinstalled=self._preinstalled or None,
            release_times=release_times,
            task_compile_times=task_compile_times,
            task_installs=task_installs,
            tracer=tracer,
            metrics=self.metrics,
            engine="reference",
        )

    def trace_stats(
        self,
        schedule,
        before_time: Optional[float] = None,
        after_time: Optional[float] = None,
    ) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int], float]:
        """The reference trace pass: one stream over the execution.

        Returns ``(first_call_start, calls_before, calls_after, exec_end)``
        where ``calls_before[f]`` counts invocations of ``f`` starting
        strictly before ``before_time`` and ``calls_after[f]`` those
        starting at or after ``after_time``.
        """
        if self._preinstalled:
            raise NotImplementedError(
                "ReferenceSimulator.trace_stats does not support "
                "preinstalled functions"
            )
        first_start: Dict[str, float] = {}
        before: Dict[str, int] = {}
        after: Dict[str, int] = {}
        end = 0.0
        for fname, _level, start, finish, _bubble in iter_calls(
            self._instance,
            Schedule(self._as_tasks(schedule)),
            self._compile_threads,
        ):
            if fname not in first_start:
                first_start[fname] = start
            if before_time is not None and start < before_time:
                before[fname] = before.get(fname, 0) + 1
            if after_time is not None and start >= after_time:
                after[fname] = after.get(fname, 0) + 1
            end = finish
        return first_start, before, after, end

    # -- incremental interface (full re-evaluation each time) ----------
    def bind(self, schedule, validate: bool = False) -> float:
        tasks = self._as_tasks(schedule)
        if validate:
            Schedule(tasks).validate(self._instance, self._preinstalled)
        self._b_tasks = tasks
        self._b_makespan = self.evaluate(tasks).makespan
        self._cand = None
        return self._b_makespan

    @property
    def baseline_makespan(self) -> float:
        self._require_bound()
        return self._b_makespan

    @property
    def baseline_tasks(self) -> Tuple[CompileTask, ...]:
        self._require_bound()
        return self._b_tasks  # type: ignore[return-value]

    def _require_bound(self) -> None:
        if self._b_tasks is None:
            raise RuntimeError("no baseline bound; call bind() first")

    def propose(self, tasks, cutoff: Optional[float] = None) -> float:
        self._require_bound()
        candidate = self._as_tasks(tasks)
        span = self.evaluate(candidate).makespan
        self._cand = (candidate, span)
        return span

    def commit(self) -> float:
        self._require_bound()
        if self._cand is None:
            raise RuntimeError("no pending candidate; call propose() first")
        self._b_tasks, self._b_makespan = self._cand
        self._cand = None
        return self._b_makespan

    def preview(self, tasks, record_timeline: bool = False) -> MakespanResult:
        self._require_bound()
        self._cand = None  # previews do not arm commit()
        return self.evaluate(tasks, record_timeline=record_timeline)

    def result(self, record_timeline: bool = False) -> MakespanResult:
        self._require_bound()
        return self.evaluate(self._b_tasks, record_timeline=record_timeline)


_SIMULATORS = {
    "reference": ReferenceSimulator,
    "vector": VectorSimulator,
}


def make_simulator(
    instance: OCSPInstance,
    engine: Optional[str] = None,
    compile_threads: int = 1,
    preinstalled: Optional[Dict[str, int]] = None,
    metrics=None,
):
    """Build the evaluator for ``engine`` on ``instance``.

    Args:
        instance: the workload.
        engine: one of :data:`ENGINES`, or ``None`` for the session
            default, else ``"vector"``.
        compile_threads: compiler threads (fixed per engine object).
        preinstalled: functions available from t = 0.
        metrics: optional metrics registry for the engine's work
            counters.

    Raises:
        ValueError: for an unknown engine name or invalid engine
            arguments.
    """
    return _SIMULATORS[resolve_engine(engine)](
        instance,
        compile_threads=compile_threads,
        preinstalled=preinstalled,
        metrics=metrics,
    )
