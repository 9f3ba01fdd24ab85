"""The on-disk, content-addressed result store.

Layout (all JSON, human-inspectable)::

    <root>/
      objects/
        ab/
          ab3f...e2.json     # one entry per unit fingerprint

Each entry holds the rows a driver produced plus enough metadata to
audit and garbage-collect it::

    {
      "version": 1,
      "fingerprint": "ab3f...e2",
      "driver": "figure5",
      "benchmark": "antlr",
      "code_version": "...",
      "created_at": 1764979200.0,
      "rows": [...]
    }

Writes are atomic and durable: the entry is serialized to a ``*.tmp``
file in the final directory, fsynced, and ``os.replace``d into place.
Readers never see a torn file, a crash mid-write leaves only a stray
``*.tmp`` (removed by :meth:`ResultStore.gc`), and an entry the rename
made visible survives a crash whole.  That makes the store the
experiment runner's checkpoint: a killed run reruns through the same
store and finds every unit that finished.  Corrupt or truncated entries
read as misses by default, never as errors — the cache must only ever
be able to save work, not break a run.  Callers that would rather
surface the damage than silently recompute (the experiment runner,
whose rows must not come from a rotting store) pass ``strict=True``
and get a :class:`StoreCorruptionError` naming the entry instead.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["ResultStore", "StoreStats", "StoreCorruptionError"]

_ENTRY_VERSION = 1


class StoreCorruptionError(ValueError):
    """A store entry exists but cannot be trusted (strict reads only).

    Subclasses :class:`ValueError` so the CLI's error taxonomy turns it
    into a one-line ``repro: error: ...`` diagnostic with exit code 2.
    """


class StoreStats:
    """Plain-data summary of a store's contents (see ``repro cache stats``)."""

    __slots__ = ("root", "entries", "total_bytes", "by_driver", "oldest", "newest")

    def __init__(self, root, entries, total_bytes, by_driver, oldest, newest):
        self.root = root
        self.entries = entries
        self.total_bytes = total_bytes
        self.by_driver = by_driver
        self.oldest = oldest
        self.newest = newest

    def as_dict(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "by_driver": dict(sorted(self.by_driver.items())),
            "oldest": self.oldest,
            "newest": self.newest,
        }


class ResultStore:
    """Content-addressed store of experiment rows, keyed by fingerprint.

    ``hits``/``misses``/``puts`` count this instance's traffic; the
    runner mirrors them into its metrics registry.  All operations are
    safe under concurrent writers on one filesystem (atomic rename;
    last writer wins, and both writers wrote identical content by
    construction — the key is a content hash of the inputs).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def path_for(self, fingerprint: str) -> Path:
        """Entry path for a fingerprint (two-level fan-out, git-style)."""
        if len(fingerprint) < 3:
            raise ValueError(f"implausible fingerprint: {fingerprint!r}")
        return self.objects_dir / fingerprint[:2] / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(
        self, fingerprint: str, strict: bool = False
    ) -> Optional[List[Dict[str, object]]]:
        """The cached rows for ``fingerprint``, or ``None`` on a miss.

        Torn, corrupt, or version-mismatched entries count as misses —
        unless ``strict`` is set, in which case an *existing* but
        damaged entry raises :class:`StoreCorruptionError` (a missing
        or merely version-skewed entry is still a plain miss; only
        structural damage is escalated).
        """
        path = self.path_for(fingerprint)
        try:
            doc = json.loads(path.read_text())
            if doc.get("version") != _ENTRY_VERSION:
                # A version skew is a legitimate miss even in strict
                # mode: old entries are stale, not damaged.
                self.misses += 1
                return None
            if doc.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch inside entry")
            rows = doc["rows"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, OSError) as exc:
            if strict:
                raise StoreCorruptionError(
                    f"corrupt store entry {path}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            # A damaged entry is dead weight: drop it so gc/stats stay
            # truthful and the next put rewrites it cleanly.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return rows

    def put(
        self,
        fingerprint: str,
        rows: List[Dict[str, object]],
        driver: str = "",
        benchmark: str = "",
        code_version: str = "",
    ) -> Path:
        """Durably and atomically write an entry; returns its path."""
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "version": _ENTRY_VERSION,
            "fingerprint": fingerprint,
            "driver": driver,
            "benchmark": benchmark,
            "code_version": code_version,
            "created_at": time.time(),
            "rows": rows,
        }
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))
            fh.flush()
            # Durable before visible: a crash after the rename must not
            # leave a torn entry, which the runner's strict read aborts on.
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.puts += 1
        return path

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).is_file()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _entries(self):
        if not self.objects_dir.is_dir():
            return
        for sub in sorted(self.objects_dir.iterdir()):
            if sub.is_dir():
                for path in sorted(sub.glob("*.json")):
                    yield path

    def stats(self) -> StoreStats:
        """Entry count, size on disk, and per-driver breakdown."""
        entries = 0
        total_bytes = 0
        by_driver: Dict[str, int] = {}
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for path in self._entries():
            try:
                doc = json.loads(path.read_text())
            except (ValueError, OSError):
                continue
            entries += 1
            total_bytes += path.stat().st_size
            driver = doc.get("driver") or "?"
            by_driver[driver] = by_driver.get(driver, 0) + 1
            created = doc.get("created_at")
            if isinstance(created, (int, float)):
                oldest = created if oldest is None else min(oldest, created)
                newest = created if newest is None else max(newest, created)
        return StoreStats(self.root, entries, total_bytes, by_driver, oldest, newest)

    def gc(
        self,
        max_age_days: Optional[float] = None,
        code_version: Optional[str] = None,
    ) -> int:
        """Remove stale entries; returns the number of files removed.

        Always removes stray ``*.tmp`` files (crashed writers) and
        unreadable entries.  With ``max_age_days``, also removes entries
        older than that; with ``code_version``, entries written under
        any *other* code version (i.e. invalidated by a salt bump).
        """
        removed = 0
        now = time.time()
        if self.objects_dir.is_dir():
            for tmp in self.objects_dir.glob("*/*.tmp"):
                try:
                    tmp.unlink()
                    removed += 1
                except OSError:
                    pass
        for path in list(self._entries()):
            drop = False
            try:
                doc = json.loads(path.read_text())
                if doc.get("version") != _ENTRY_VERSION:
                    drop = True
                created = doc.get("created_at", now)
                if max_age_days is not None and (
                    not isinstance(created, (int, float))
                    or now - created > max_age_days * 86400.0
                ):
                    drop = True
                if (
                    code_version is not None
                    and doc.get("code_version") != code_version
                ):
                    drop = True
            except (ValueError, OSError):
                drop = True
            if drop:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Remove every entry (and stray tmp file); returns the count."""
        removed = 0
        if self.objects_dir.is_dir():
            for sub in list(self.objects_dir.iterdir()):
                if not sub.is_dir():
                    continue
                for path in list(sub.iterdir()):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
                try:
                    sub.rmdir()
                except OSError:
                    pass
        return removed
