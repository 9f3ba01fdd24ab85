"""Schema-versioned ``BENCH_<name>.json`` baseline files.

A baseline records one benchmark's dual-signal measurement together
with everything needed to judge comparability later:

* ``schema_version`` — the envelope format; readers skip (with a
  warning) versions they do not understand instead of mis-parsing;
* ``machine`` — a host fingerprint (platform, Python, CPU count).
  Counters are machine-independent and always comparable; wall time is
  only compared against a baseline from a matching machine;
* ``scale`` / ``params`` — the workload knobs; a baseline at a
  different scale measured different work and is incomparable;
* ``git_revision`` — provenance for the trajectory, best-effort.

Every document is a :mod:`repro.perf.harness` measurement of kind
``"perf"``, the one kind the comparator gates (it skips any other).
Writes are atomic (``*.tmp`` + ``os.replace``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Optional, Union

from .harness import BenchResult

__all__ = [
    "SCHEMA_VERSION",
    "BaselineError",
    "machine_fingerprint",
    "git_revision",
    "baseline_path",
    "result_doc",
    "write_doc",
    "write_baseline",
    "load_baseline",
    "load_baseline_dir",
]

SCHEMA_VERSION = 1

_PREFIX = "BENCH_"


class BaselineError(ValueError):
    """A baseline file is unreadable or structurally invalid."""


def machine_fingerprint() -> Dict[str, object]:
    """Host identity for timing comparability (never for counters)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
    }


def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """Current ``git rev-parse HEAD``, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def baseline_path(directory: Union[str, Path], name: str) -> Path:
    """``<directory>/BENCH_<name>.json``."""
    return Path(directory) / f"{_PREFIX}{name}.json"


def result_doc(result: BenchResult) -> Dict[str, object]:
    """The on-disk document for a harness measurement."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "perf",
        "name": result.name,
        "created_at": time.time(),
        "git_revision": git_revision(),
        "machine": machine_fingerprint(),
        "scale": result.scale,
        "warmups": result.warmups,
        "params": dict(result.params),
        "timing": result.timing.as_dict(),
        "counters": dict(result.counters),
    }


def write_doc(path: Union[str, Path], doc: Dict[str, object]) -> Path:
    """Atomically write ``doc`` as JSON to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def write_baseline(directory: Union[str, Path], result: BenchResult) -> Path:
    """Write ``BENCH_<name>.json`` for a harness result; returns the path."""
    return write_doc(baseline_path(directory, result.name), result_doc(result))


def load_baseline(path: Union[str, Path]) -> Dict[str, object]:
    """Read one baseline document.

    Raises:
        BaselineError: missing file, invalid JSON, or a non-dict body.
        Schema-*version* mismatches are NOT raised here — the comparator
        downgrades them to a skip-with-warning so one old file cannot
        brick a whole comparison run.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise BaselineError(f"no baseline at {path}")
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"unreadable baseline {path}: {exc}")
    if not isinstance(doc, dict) or "name" not in doc:
        raise BaselineError(f"malformed baseline {path}: not a baseline document")
    return doc


def load_baseline_dir(directory: Union[str, Path]) -> Dict[str, Dict[str, object]]:
    """Every readable ``BENCH_*.json`` in ``directory``, keyed by name.

    Unreadable files are skipped (a corrupt baseline must degrade to
    "missing", never break the comparison of the healthy ones).
    """
    directory = Path(directory)
    out: Dict[str, Dict[str, object]] = {}
    if not directory.is_dir():
        return out
    for path in sorted(directory.glob(f"{_PREFIX}*.json")):
        try:
            doc = load_baseline(path)
        except BaselineError:
            continue
        out[str(doc["name"])] = doc
    return out
