"""Exporters and validation for recorded traces.

Two on-disk formats:

* **Chrome trace-event JSON** (``to_chrome_trace`` /
  ``write_chrome_trace``) — the ``{"traceEvents": [...]}`` dialect that
  Perfetto and ``chrome://tracing`` load directly.  Spans become ``"X"``
  (complete) events, instants ``"i"``, counters ``"C"``; each distinct
  track gets its own ``tid`` and each ``process/`` prefix its own
  ``pid``, both announced with ``"M"`` metadata events so the viewer
  shows readable lane names.  Virtual time is already in microseconds,
  Chrome's ``ts`` unit, so timestamps pass through unscaled.
* **JSONL** (``iter_jsonl`` / ``write_jsonl``) — one plain-dict event
  per line, for ad-hoc filtering with standard text tools.

Both writers stream: ``write_chrome_trace`` serializes one record at a
time through :func:`iter_chrome_records` and ``write_jsonl`` through
:func:`iter_jsonl`, so exporting a full-length scale-1.0 run holds one
record in memory, not a second copy of the whole event list (the sort
behind the Chrome ordering keeps event *references* only).
``to_chrome_trace`` still returns the fully materialized object for
callers that want to inspect it.

``validate_chrome_trace`` is the schema check used by the tests and the
CI smoke job: well-formed JSON, required per-phase keys, finite
non-negative timestamps, monotone ``ts`` and non-overlapping ``"X"``
spans per (pid, tid), balanced ``"B"``/``"E"`` pairs.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterator, List, Tuple, Union

from .tracer import Tracer, TraceScope

__all__ = [
    "TraceValidationError",
    "to_chrome_trace",
    "iter_chrome_records",
    "write_chrome_trace",
    "iter_jsonl",
    "write_jsonl",
    "validate_chrome_trace",
]

_TracerLike = Union[Tracer, TraceScope]


class TraceValidationError(ValueError):
    """A trace failed schema validation (see ``validate_chrome_trace``)."""


def _split_track(track: str) -> Tuple[str, str]:
    """``"proc/lane"`` → ``("proc", "lane")``; bare tracks get the
    default process ``"repro"``."""
    if "/" in track:
        process, lane = track.split("/", 1)
        return process, lane
    return "repro", track


def iter_chrome_records(tracer: _TracerLike) -> Iterator[Dict[str, Any]]:
    """Yield Chrome trace records: ``"M"`` metadata first (in order of
    first appearance), then body events in virtual-time order.

    Only one body record exists at a time — the virtual-time ordering
    sorts event *references*, and each dict is yielded as soon as it is
    built — which is what gives :func:`write_chrome_trace` bounded
    memory on full-length runs.  Raises
    :class:`~repro.observability.tracer.TraceError` if any begin/end
    span is still open.
    """
    tracer.assert_closed()
    ordered = sorted(tracer.events, key=lambda e: (e.start, e.end))
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    meta: List[Dict[str, Any]] = []
    for event in ordered:
        process, lane = _split_track(event.track)
        pid = pids.get(process)
        if pid is None:
            pid = len(pids) + 1
            pids[process] = pid
            meta.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        if (process, lane) not in tids:
            tid = sum(1 for p, _ in tids if p == process) + 1
            tids[(process, lane)] = tid
            meta.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
    for record in meta:
        yield record

    for event in ordered:
        process, lane = _split_track(event.track)
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category,
            "pid": pids[process],
            "tid": tids[(process, lane)],
            "ts": event.start,
        }
        if event.kind == "span":
            record["ph"] = "X"
            dur = event.end - event.start
            if event.start + dur > event.end:
                # A reader ends the span at ``ts + dur``; keep that at
                # or before ``end``, where the next span on the lane
                # may start.
                dur = math.nextafter(event.end, -math.inf) - event.start
            record["dur"] = dur
        elif event.kind == "instant":
            record["ph"] = "i"
            record["s"] = "t"
        elif event.kind == "counter":
            record["ph"] = "C"
            record["args"] = {event.name: event.value}
        else:  # pragma: no cover - Tracer only emits the three kinds
            raise TraceValidationError(f"unknown event kind {event.kind!r}")
        if event.args is not None and event.kind != "counter":
            record["args"] = dict(event.args)
        yield record


def to_chrome_trace(tracer: _TracerLike) -> Dict[str, Any]:
    """Render a tracer's events as a Chrome trace-event JSON object.

    Materializes the whole record list — use :func:`write_chrome_trace`
    (which streams) for large traces.  Raises
    :class:`~repro.observability.tracer.TraceError` if any begin/end
    span is still open.
    """
    return {
        "traceEvents": list(iter_chrome_records(tracer)),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.observability"},
    }


def write_chrome_trace(tracer: _TracerLike, path: str) -> int:
    """Write Chrome trace JSON to ``path``; returns the event count
    (excluding metadata records).

    Streams one record per line inside the ``traceEvents`` array, so
    peak memory is one serialized record plus the reference sort — not
    a second copy of the event list.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n"displayTimeUnit": "ms",\n')
        fh.write('"otherData": {"producer": "repro.observability"},\n')
        fh.write('"traceEvents": [\n')
        first = True
        for record in iter_chrome_records(tracer):
            if not first:
                fh.write(",\n")
            fh.write(json.dumps(record, sort_keys=True))
            first = False
        fh.write("\n]\n}\n")
    return len(tracer.events)


def iter_jsonl(tracer: _TracerLike) -> Iterator[str]:
    """Yield one JSON line per event, in emission order."""
    for event in tracer.events:
        record: Dict[str, Any] = {
            "kind": event.kind,
            "name": event.name,
            "cat": event.category,
            "track": event.track,
            "start": event.start,
            "end": event.end,
        }
        if event.kind == "counter":
            record["value"] = event.value
        if event.args is not None:
            record["args"] = dict(event.args)
        yield json.dumps(record, sort_keys=True)


def write_jsonl(tracer: _TracerLike, path: str) -> int:
    """Write the JSONL event stream to ``path``; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in iter_jsonl(tracer):
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


def _require(event: Dict[str, Any], index: int, *keys: str) -> None:
    for key in keys:
        if key not in event:
            raise TraceValidationError(
                f"event {index} (ph={event.get('ph')!r}) missing {key!r}"
            )


def validate_chrome_trace(data: Any) -> int:
    """Validate a Chrome trace-event JSON object (or JSON string).

    Checks structure, per-phase required keys, finite non-negative
    timestamps and durations, per-(pid, tid) monotone timestamps with
    non-overlapping ``"X"`` spans, and ``"B"``/``"E"`` balance.  Returns
    the number of non-metadata events; raises
    :class:`TraceValidationError` on the first violation.
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TraceValidationError(f"not valid JSON: {exc}") from exc
    try:
        json.dumps(data)
    except (TypeError, ValueError) as exc:
        raise TraceValidationError(f"not JSON-serializable: {exc}") from exc

    if not isinstance(data, dict) or "traceEvents" not in data:
        raise TraceValidationError("missing top-level 'traceEvents' key")
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise TraceValidationError("'traceEvents' is not a list")

    last_ts: Dict[Tuple[int, int], float] = {}
    span_end: Dict[Tuple[int, int], float] = {}
    open_be: Dict[Tuple[int, int], int] = {}
    counted = 0

    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TraceValidationError(f"event {index} is not an object")
        _require(event, index, "ph", "pid", "tid", "name")
        ph = event["ph"]
        key = (event["pid"], event["tid"])

        if ph == "M":
            _require(event, index, "args")
            continue
        counted += 1

        _require(event, index, "ts")
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            raise TraceValidationError(f"event {index} has bad ts {ts!r}")
        if ts < last_ts.get(key, 0.0):
            raise TraceValidationError(
                f"event {index} ts {ts} goes backwards on pid/tid {key} "
                f"(previous {last_ts[key]})"
            )
        last_ts[key] = ts

        if ph == "X":
            _require(event, index, "dur")
            dur = event["dur"]
            if (
                not isinstance(dur, (int, float))
                or not math.isfinite(dur)
                or dur < 0
            ):
                raise TraceValidationError(
                    f"event {index} has bad dur {dur!r}"
                )
            if ts < span_end.get(key, 0.0):
                raise TraceValidationError(
                    f"event {index} span starting at {ts} overlaps the "
                    f"previous span on pid/tid {key} (ends "
                    f"{span_end[key]})"
                )
            span_end[key] = ts + dur
        elif ph == "B":
            open_be[key] = open_be.get(key, 0) + 1
        elif ph == "E":
            if open_be.get(key, 0) <= 0:
                raise TraceValidationError(
                    f"event {index}: 'E' with no open 'B' on pid/tid {key}"
                )
            open_be[key] -= 1
        elif ph == "i":
            pass
        elif ph == "C":
            _require(event, index, "args")
        else:
            raise TraceValidationError(
                f"event {index} has unsupported phase {ph!r}"
            )

    unbalanced = {k: n for k, n in open_be.items() if n}
    if unbalanced:
        raise TraceValidationError(
            f"unbalanced 'B' events left open: {unbalanced}"
        )
    return counted
