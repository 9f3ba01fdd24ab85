"""Trace (de)serialization.

An :class:`~repro.core.model.OCSPInstance` round-trips through a compact
JSON document: the profile table plus the call sequence as indices into
it.  This is the interchange format between the mini-VM
(:mod:`repro.jitsim`), the generators, and offline analysis — the
equivalent of the paper's collected advice/trace files.

Loading is hardened: these files cross tool boundaries (hand edits,
other languages, truncation in transit), so every malformed shape —
bad JSON, wrong types, NaN/negative times, unknown function names,
out-of-range call indices — raises a structured
:class:`~repro.core.model.ModelError` (``trace:`` prefix) or
:class:`~repro.core.schedule.ScheduleError` (``schedule:`` prefix)
rather than leaking a ``KeyError``/``TypeError`` from the middle of the
parser.  The message prefixes are stable; tooling may match on them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.model import FunctionProfile, ModelError, OCSPInstance, _Trace
from ..core.schedule import CompileTask, Schedule, ScheduleError

__all__ = [
    "to_json",
    "from_json",
    "save",
    "load",
    "schedule_to_json",
    "schedule_from_json",
    "save_schedule",
    "load_schedule",
]

_FORMAT_VERSION = 1


def to_json(instance: OCSPInstance) -> str:
    """Serialize an instance to a JSON string."""
    names = sorted(instance.profiles)
    index = {name: i for i, name in enumerate(names)}
    doc = {
        "version": _FORMAT_VERSION,
        "name": instance.name,
        "functions": [
            {
                "name": name,
                "compile_times": list(instance.profiles[name].compile_times),
                "exec_times": list(instance.profiles[name].exec_times),
            }
            for name in names
        ],
        "calls": [index[f] for f in instance.calls],
    }
    return json.dumps(doc, separators=(",", ":"))


def _parse_doc(text: str, error, prefix: str) -> dict:
    """Parse ``text`` as a JSON object, or raise ``error``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{prefix} not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(
            f"{prefix} expected a JSON object, got {type(doc).__name__}"
        )
    return doc


def _check_version(doc: dict, error, prefix: str) -> None:
    version = doc.get("version")
    if version != _FORMAT_VERSION:
        raise error(f"{prefix} unsupported format version: {version!r}")


def _times_tuple(raw: object, fname: str, field: str) -> tuple:
    """Validate one profile's time list: finite, non-negative numbers."""
    if not isinstance(raw, list) or not raw:
        raise ModelError(
            f"trace: function {fname!r}: {field} must be a non-empty list"
        )
    out = []
    for value in raw:
        # bool is an int subclass; reject it explicitly.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelError(
                f"trace: function {fname!r}: {field} entries must be "
                f"numbers, got {value!r}"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ModelError(
                f"trace: function {fname!r}: {field} entries must be "
                f"finite, got {value!r}"
            )
        if value < 0.0:
            raise ModelError(
                f"trace: function {fname!r}: {field} entries must be "
                f"non-negative, got {value!r}"
            )
        out.append(value)
    return tuple(out)


def from_json(text: str) -> OCSPInstance:
    """Deserialize an instance from :func:`to_json` output.

    Raises:
        ModelError: on bad JSON, an unsupported format version, or any
            malformed/out-of-range field (messages carry the stable
            ``trace:`` prefix; ``ModelError`` is a ``ValueError``).
    """
    doc = _parse_doc(text, ModelError, "trace:")
    _check_version(doc, ModelError, "trace:")
    name = doc.get("name", "trace")
    if not isinstance(name, str):
        raise ModelError(f"trace: name must be a string, got {name!r}")
    functions = doc.get("functions")
    if not isinstance(functions, list):
        raise ModelError("trace: missing or non-list 'functions' field")
    raw_calls = doc.get("calls")
    if not isinstance(raw_calls, list):
        raise ModelError("trace: missing or non-list 'calls' field")

    profiles: Dict[str, FunctionProfile] = {}
    names: List[str] = []
    for pos, entry in enumerate(functions):
        if not isinstance(entry, dict):
            raise ModelError(
                f"trace: functions[{pos}] must be an object, "
                f"got {type(entry).__name__}"
            )
        fname = entry.get("name")
        if not isinstance(fname, str) or not fname:
            raise ModelError(
                f"trace: functions[{pos}] needs a non-empty string name, "
                f"got {fname!r}"
            )
        if fname in profiles:
            raise ModelError(f"trace: duplicate function name {fname!r}")
        compile_times = _times_tuple(
            entry.get("compile_times"), fname, "compile_times"
        )
        exec_times = _times_tuple(entry.get("exec_times"), fname, "exec_times")
        try:
            prof = FunctionProfile(
                name=fname, compile_times=compile_times, exec_times=exec_times
            )
        except ModelError as exc:
            # The profile's own invariants (matching lengths, monotone
            # levels); keep the stable prefix.
            raise ModelError(f"trace: function {fname!r}: {exc}") from exc
        profiles[fname] = prof
        names.append(fname)

    for pos, i in enumerate(raw_calls):
        if isinstance(i, bool) or not isinstance(i, int):
            raise ModelError(
                f"trace: calls[{pos}] must be an integer function index, "
                f"got {i!r}"
            )
        if not 0 <= i < len(names):
            raise ModelError(
                f"trace: calls[{pos}] index {i} out of range "
                f"(have {len(names)} functions)"
            )
    try:
        return OCSPInstance(profiles, _Trace(names, raw_calls), name)
    except ModelError as exc:
        raise ModelError(f"trace: {exc}") from exc


def save(instance: OCSPInstance, path: Union[str, Path]) -> None:
    """Write an instance to ``path`` as JSON."""
    Path(path).write_text(to_json(instance))


def load(path: Union[str, Path]) -> OCSPInstance:
    """Read an instance previously written by :func:`save`.

    Raises:
        ModelError: see :func:`from_json`.
        OSError: if the file cannot be read.
    """
    return from_json(Path(path).read_text())


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize a compilation schedule to a JSON string."""
    doc = {
        "version": _FORMAT_VERSION,
        "tasks": [[t.function, t.level] for t in schedule],
    }
    return json.dumps(doc, separators=(",", ":"))


def schedule_from_json(
    text: str, instance: Optional[OCSPInstance] = None
) -> Schedule:
    """Deserialize a schedule from :func:`schedule_to_json` output.

    Args:
        text: the JSON document.
        instance: when given, every task's function must exist in the
            instance and its level must be within the function's range
            (catches a schedule paired with the wrong trace *at load
            time* instead of as a ``KeyError`` mid-simulation).

    Raises:
        ScheduleError: on bad JSON, an unsupported format version, a
            malformed task list, or — with ``instance`` — an unknown
            function or out-of-range level (messages carry the stable
            ``schedule:`` prefix; ``ScheduleError`` is a ``ValueError``).
    """
    doc = _parse_doc(text, ScheduleError, "schedule:")
    _check_version(doc, ScheduleError, "schedule:")
    raw_tasks = doc.get("tasks")
    if not isinstance(raw_tasks, list):
        raise ScheduleError("schedule: missing or non-list 'tasks' field")
    tasks = []
    for pos, item in enumerate(raw_tasks):
        if not isinstance(item, list) or len(item) != 2:
            raise ScheduleError(
                f"schedule: tasks[{pos}] must be a [function, level] pair, "
                f"got {item!r}"
            )
        fname, level = item
        if not isinstance(fname, str) or not fname:
            raise ScheduleError(
                f"schedule: tasks[{pos}] function must be a non-empty "
                f"string, got {fname!r}"
            )
        if isinstance(level, bool) or not isinstance(level, int):
            raise ScheduleError(
                f"schedule: tasks[{pos}] level must be an integer, "
                f"got {level!r}"
            )
        if level < 0:
            raise ScheduleError(
                f"schedule: tasks[{pos}] level must be >= 0, got {level}"
            )
        if instance is not None:
            prof = instance.profiles.get(fname)
            if prof is None:
                raise ScheduleError(
                    f"schedule: tasks[{pos}] names unknown function "
                    f"{fname!r}"
                )
            if level >= prof.num_levels:
                raise ScheduleError(
                    f"schedule: tasks[{pos}] level {level} out of range "
                    f"for {fname!r} (has {prof.num_levels} levels)"
                )
        tasks.append(CompileTask(fname, level))
    return Schedule(tuple(tasks))


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> None:
    """Write a schedule to ``path`` as JSON."""
    Path(path).write_text(schedule_to_json(schedule))


def load_schedule(
    path: Union[str, Path], instance: Optional[OCSPInstance] = None
) -> Schedule:
    """Read a schedule previously written by :func:`save_schedule`.

    Raises:
        ScheduleError: see :func:`schedule_from_json`.
        OSError: if the file cannot be read.
    """
    return schedule_from_json(Path(path).read_text(), instance=instance)
