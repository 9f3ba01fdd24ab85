"""Compilation schedules: ordered sequences of (function, level) tasks.

A *compilation schedule* (the paper's ``Cseq``) is the order in which the
JIT's compiler thread(s) process compilation tasks.  With ``K`` compiler
threads, tasks are dequeued in schedule order as threads become free
(Section 6.2.3).  The schedule, together with the call sequence and the
per-function cost tables, fully determines the make-span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .model import OCSPInstance, _left_sum

__all__ = ["CompileTask", "Schedule", "ScheduleError"]


class ScheduleError(ValueError):
    """Raised when a schedule is invalid for a given OCSP instance."""


@dataclass(frozen=True, order=True)
class CompileTask:
    """A single compilation event: compile ``function`` at ``level``.

    This is the paper's ``C_i(x)`` notation — the compilation of function
    ``x`` at level ``i``.
    """

    function: str
    level: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"C{self.level}({self.function})"


@dataclass(frozen=True)
class Schedule:
    """An ordered sequence of :class:`CompileTask` events.

    Schedules are immutable; the builder methods return new schedules.
    """

    tasks: Tuple[CompileTask, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *tasks: Tuple[str, int]) -> "Schedule":
        """Build a schedule from ``(function, level)`` pairs."""
        return cls(tuple(CompileTask(f, lvl) for f, lvl in tasks))

    @classmethod
    def empty(cls) -> "Schedule":
        return cls(())

    def append(self, task: CompileTask) -> "Schedule":
        return Schedule(self.tasks + (task,))

    def extend(self, tasks: Iterable[CompileTask]) -> "Schedule":
        return Schedule(self.tasks + tuple(tasks))

    def replace_at(self, index: int, task: CompileTask) -> "Schedule":
        """Replace the task at ``index`` (IAR's Replace operation)."""
        if not 0 <= index < len(self.tasks):
            raise IndexError(index)
        tasks = list(self.tasks)
        tasks[index] = task
        return Schedule(tuple(tasks))

    def delete_at(self, index: int) -> "Schedule":
        if not 0 <= index < len(self.tasks):
            raise IndexError(index)
        return Schedule(self.tasks[:index] + self.tasks[index + 1 :])

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[CompileTask]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> CompileTask:
        return self.tasks[index]

    def functions(self) -> List[str]:
        """Distinct functions in first-task order."""
        seen: Dict[str, None] = {}
        for task in self.tasks:
            seen.setdefault(task.function, None)
        return list(seen)

    def tasks_for(self, fname: str) -> List[CompileTask]:
        return [t for t in self.tasks if t.function == fname]

    def index_of_first(self, fname: str) -> Optional[int]:
        """Index of the first compilation of ``fname``, or ``None``."""
        for i, task in enumerate(self.tasks):
            if task.function == fname:
                return i
        return None

    def highest_level_of(self, fname: str) -> Optional[int]:
        """Highest level at which ``fname`` is compiled, or ``None``."""
        levels = [t.level for t in self.tasks if t.function == fname]
        return max(levels) if levels else None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        instance: OCSPInstance,
        preinstalled: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Check that this schedule can legally drive ``instance``.

        Requirements:

        * every compiled function has a profile and the level exists;
        * every *called* function is compiled at least once (otherwise
          some invocation can never run), unless it is in
          ``preinstalled``: its code exists from t = 0 (see
          :func:`~repro.core.makespan.simulate`);
        * no function is compiled twice at the same or a lower level
          later in the schedule — such a task can never help under the
          monotonicity assumptions and the "latest compilation wins"
          execution rule, and almost certainly indicates a scheduler bug.

        Raises:
            ScheduleError: on the first violation found.
        """
        last_level: Dict[str, int] = {}
        for i, task in enumerate(self.tasks):
            prof = instance.profiles.get(task.function)
            if prof is None:
                raise ScheduleError(
                    f"task #{i} compiles unknown function {task.function!r}"
                )
            if not 0 <= task.level < prof.num_levels:
                raise ScheduleError(
                    f"task #{i} compiles {task.function!r} at level "
                    f"{task.level}, but it has {prof.num_levels} levels"
                )
            prev = last_level.get(task.function)
            if prev is not None and task.level <= prev:
                raise ScheduleError(
                    f"task #{i} recompiles {task.function!r} at level "
                    f"{task.level} after level {prev}; recompilation must "
                    "strictly increase the level"
                )
            last_level[task.function] = task.level
        covered = preinstalled or {}
        missing = [
            f
            for f in instance.called_functions
            if f not in last_level and f not in covered
        ]
        if missing:
            raise ScheduleError(
                "called functions never compiled: " + ", ".join(sorted(missing))
            )

    def is_valid_for(self, instance: OCSPInstance) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(instance)
        except ScheduleError:
            return False
        return True

    def total_compile_time(self, instance: OCSPInstance) -> float:
        """Sum of the compile times of all tasks, in schedule order."""
        return _left_sum(
            instance.profiles[t.function].compile_times[t.level] for t in self.tasks
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + ", ".join(str(t) for t in self.tasks) + ")"
