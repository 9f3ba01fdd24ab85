"""Content fingerprints for experiment work units.

A *unit* is one (driver, benchmark) cell of the study grid.  Its result
is fully determined by four inputs: the benchmark instance (function
profiles — the ``c``/``e`` tables — and the call sequence), the driver's
name, the driver's keyword arguments, and the code that computes the
rows.  The fingerprint is a SHA-256 digest over a canonical encoding of
exactly those inputs, so a cached result is reused *iff* recomputing it
would reproduce it:

* editing a compile/exec time, the call sequence, or the suite key
  changes the digest;
* renaming a driver or passing different kwargs changes the digest;
* result-affecting code changes are captured by :data:`CODE_VERSION` —
  bump it whenever a scheduler, simulator, model, or driver changes its
  numbers (the store cannot see code edits on its own).

Dict ordering, float formatting, and platform never leak into the
digest: mappings are sorted by key and floats are encoded via
``repr`` (shortest round-trip form, identical across CPython builds).
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Optional

from ..core.model import OCSPInstance

__all__ = [
    "CODE_VERSION",
    "canonical_encode",
    "fingerprint_instance",
    "fingerprint_unit",
]

# Result-affecting code version.  Part of every unit fingerprint; bump
# on any change that alters driver output rows (scheduler behaviour,
# simulator semantics, cost-benefit models, row layout).
CODE_VERSION = "2026-08-06.1"


def _canon(value):
    """Reduce ``value`` to canonical plain data (see module docs)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() is the shortest exact round-trip; int-valued floats
        # still encode differently from ints ("1.0" vs 1), as they must:
        # drivers can branch on the type.
        return f"float:{value!r}"
    if isinstance(value, Mapping):
        items = [(str(k), _canon(v)) for k, v in value.items()]
        items.sort(key=lambda kv: kv[0])
        return {"__map__": items}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(json.dumps(_canon(v)) for v in value)}
    # Last resort for config-ish objects (paths, dataclasses with a
    # stable repr).  Deliberately strict enough that an object with a
    # memory-address repr would poison its own cache key — which only
    # ever costs a miss, never a wrong hit.
    return f"repr:{type(value).__name__}:{value!r}"


def canonical_encode(value) -> bytes:
    """Deterministic byte encoding of plain data, for hashing."""
    encoded = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    return encoded.encode("utf-8")


def fingerprint_instance(instance: OCSPInstance) -> str:
    """SHA-256 hex digest of an instance's scheduling-relevant content.

    Covers the function profiles (names, compile-time and exec-time
    tables) and the call sequence.  The instance ``name`` is *excluded*:
    two identically-shaped traces under different labels are the same
    scheduling problem (the label is carried by the suite key instead,
    see :func:`fingerprint_unit`).
    """
    h = hashlib.sha256()
    for fname in sorted(instance.profiles):
        prof = instance.profiles[fname]
        h.update(
            canonical_encode([fname, list(prof.compile_times), list(prof.exec_times)])
        )
        h.update(b"\x00")
    h.update(b"calls\x00")
    # The call sequence dominates the payload (up to tens of millions
    # of entries): hash the names joined by "\x1f", one block of the
    # trace at a time, instead of per-call json.dumps round-trips.
    sep = b""
    for block in instance.calls.blocks():
        h.update(sep)
        h.update("\x1f".join(block).encode("utf-8"))
        sep = b"\x1f"
    return h.hexdigest()


def fingerprint_unit(
    instance: OCSPInstance,
    driver: str,
    driver_kwargs: Optional[Mapping[str, object]] = None,
    benchmark: Optional[str] = None,
    code_version: str = CODE_VERSION,
) -> str:
    """Fingerprint of one (driver, benchmark) work unit.

    Args:
        instance: the benchmark instance the driver will run on.
        driver: driver name (a :data:`repro.analysis.PARALLEL_DRIVERS`
            key).
        driver_kwargs: the keyword arguments the driver will receive.
            All kwargs participate — including output-only ones such as
            ``trace_dir``, conservatively: a changed kwarg can only
            cause a spurious miss, never a stale hit.
        benchmark: the suite key (drivers copy it into each row's
            ``benchmark`` column, so it is result-affecting); defaults
            to ``instance.name``.
        code_version: see :data:`CODE_VERSION`.
    """
    h = hashlib.sha256()
    h.update(
        canonical_encode(
            {
                "code_version": code_version,
                "driver": driver,
                "benchmark": benchmark if benchmark is not None else instance.name,
                "kwargs": dict(driver_kwargs or {}),
                "instance": fingerprint_instance(instance),
            }
        )
    )
    return h.hexdigest()
