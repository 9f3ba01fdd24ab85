"""JSONL wire protocol of the decision service.

One UTF-8 JSON object per line, in both directions.  Client requests
carry an ``op``; server responses always carry ``ok`` (and echo enough
of the request — tenant, seq — to correlate without connection state).
Encoding is canonical (sorted keys, compact separators), so any two
servers answering the same request produce byte-identical lines — the
property the deterministic-replay contract rests on.

Requests:

* ``{"op": "profile", "tenant", "function", "compile_times",
  "exec_times"}`` — register/replace a function's cost table;
* ``{"op": "call", "tenant", "function", "seq"}`` — one invocation;
  the response is the compile decision.  An optional ``corr``
  (string or int) is a client correlation id: it is stamped verbatim
  into the decision record and journal; when absent the engine derives
  the deterministic default ``"<tenant>.<seq>"``, so the journal bytes
  never depend on whether telemetry is watching;
* ``{"op": "stats"}`` — engine summary;
* ``{"op": "ping"}`` — liveness;
* ``{"op": "shutdown"}`` — graceful drain + stop.

Error responses are ``{"ok": false, "error": "..."}``; an overloaded
server (admission control) adds ``"retry": true``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode",
    "decode",
    "validate_event",
]

PROTOCOL_VERSION = 1

_OPS = frozenset({"profile", "call", "stats", "ping", "shutdown"})

# Fields every event-carrying op must provide (beyond "op").
_REQUIRED = {
    "profile": ("tenant", "function", "compile_times", "exec_times"),
    "call": ("tenant", "function"),
    "stats": (),
    "ping": (),
    "shutdown": (),
}


class ProtocolError(ValueError):
    """A malformed protocol line (bad JSON, unknown op, missing field)."""


# ``json.dumps`` builds a new encoder on every call that passes
# ``sort_keys`` or ``separators``; the server encodes every response.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode(message: Dict[str, object]) -> bytes:
    """One canonical JSONL line: sorted keys, compact, ``\\n``-terminated."""
    return _ENCODER.encode(message).encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict[str, object]:
    """Parse and validate one request line.

    Raises:
        ProtocolError: non-JSON, non-object, unknown ``op``, or a
            missing required field — always with a one-line message
            safe to echo back to the client.
    """
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(doc).__name__}"
        )
    op = doc.get("op")
    if op not in _OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(_OPS)}"
        )
    validate_event(doc)
    return doc


def validate_event(doc: Dict[str, object]) -> None:
    """Field-level validation shared by the wire and the event file."""
    op = doc["op"]
    for field in _REQUIRED[op]:
        if field not in doc:
            raise ProtocolError(f"op {op!r} missing field {field!r}")
    if op == "profile":
        for field in ("compile_times", "exec_times"):
            value = doc[field]
            if not isinstance(value, (list, tuple)) or not value:
                raise ProtocolError(
                    f"op 'profile' field {field!r} must be a non-empty list"
                )
    if "corr" in doc and not isinstance(doc["corr"], (str, int)):
        raise ProtocolError(
            f"field 'corr' must be a string or int, "
            f"got {type(doc['corr']).__name__}"
        )


def error_response(
    message: str, retry: bool = False, seq: Optional[int] = None
) -> Dict[str, object]:
    """The standard failure response body."""
    doc: Dict[str, object] = {"ok": False, "error": message}
    if retry:
        doc["retry"] = True
    if seq is not None:
        doc["seq"] = seq
    return doc
