"""The versioned on-disk OCSP instance format (``repro-instance``).

An *instance bundle* is a directory of small UTF-8 files — the shape
third parties can produce, validate, and contribute without importing
this library, modeled on the MSOLab SCC-instances repositories:

* ``manifest.json`` — format name + version, instance name, the file
  map, element counts, and a SHA-256 **content fingerprint** (reusing
  :mod:`repro.store.fingerprint`'s canonical hashing);
* ``machine.json`` — the machine environment (compile threads the
  instance was measured/intended for, level count, time unit);
* ``costs.csv`` — one row per function: ``name, c0..c{L-1},
  e0..e{L-1}``; functions with fewer levels leave trailing cells empty;
* ``calls.csv`` — the invocation sequence, one function name per row;
* ``due_dates.json`` *(optional)* — per-function due dates and weights
  (see :class:`repro.core.makespan.DueDateTable`).

Exports are **canonical**: JSON with sorted keys and two-space indent,
floats in ``repr`` (shortest round-trip) form, rows sorted by function
name, ``\\n`` line endings, and a trailing newline on every file.  Two
bundles with the same content are therefore byte-identical, which makes
``cmp``/``diff -r`` a valid CI round-trip gate.

Every malformed shape raises :class:`InstanceError` (a ``ValueError``)
whose message carries the stable ``instance:`` prefix; the CLI renders
it as a one-line ``repro: error: instance: ...`` diagnostic with exit
code 2.  Tooling may match on the prefix.

Compatibility rules:

* readers accept exactly ``format_version == 1`` of format
  ``"repro-instance"`` and must reject anything else;
* unknown *extra* keys in ``manifest.json`` and unknown extra files in
  the directory are ignored (minor, forward-compatible additions);
* any change to the meaning of an existing file or field bumps
  :data:`FORMAT_VERSION`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.makespan import DueDateTable
from ..core.model import FunctionProfile, ModelError, OCSPInstance
from ..store.fingerprint import canonical_encode, fingerprint_instance

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILE",
    "InstanceError",
    "InstanceBundle",
    "fingerprint_content",
    "write_bundle",
    "read_bundle",
    "validate_bundle",
    "list_bundles",
]

FORMAT_NAME = "repro-instance"
FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
_MACHINE_FILE = "machine.json"
_COSTS_FILE = "costs.csv"
_CALLS_FILE = "calls.csv"
_DUE_FILE = "due_dates.json"


class InstanceError(ValueError):
    """A malformed instance bundle or importer source.

    Messages carry the stable ``instance:`` prefix (mirroring the
    ``trace:``/``schedule:`` taxonomy of :mod:`repro.workloads.traces`).
    """

    def __init__(self, message: str) -> None:
        if not message.startswith("instance:"):
            message = f"instance: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class InstanceBundle:
    """An OCSP instance plus the bundle-level metadata it ships with.

    Attributes:
        instance: the workload (profiles + call sequence).
        due_dates: optional per-function due dates/weights; when
            present, the due-date objectives of
            :func:`repro.core.makespan.due_date_objectives` apply.
        source: provenance label (``"synthetic"``, ``"trace"``,
            ``"v8-log"``, ``"jvm-log"``, ``"scc"``, ...).
        compile_threads: the machine environment's compiler-thread
            count (a recommendation for drivers, not a constraint).
        time_unit: unit of every time in the bundle (informational).
    """

    instance: OCSPInstance
    due_dates: Optional[DueDateTable] = None
    source: str = "trace"
    compile_threads: int = 1
    time_unit: str = "virtual"

    def __post_init__(self) -> None:
        if self.due_dates is not None and len(self.due_dates) == 0:
            object.__setattr__(self, "due_dates", None)
        if self.compile_threads < 1:
            raise InstanceError(
                f"machine environment: compile_threads must be >= 1, "
                f"got {self.compile_threads}"
            )
        if self.due_dates is not None:
            try:
                self.due_dates.validate_against(self.instance)
            except ModelError as exc:
                raise InstanceError(str(exc)) from exc

    @property
    def name(self) -> str:
        return self.instance.name

    @property
    def max_levels(self) -> int:
        return max(
            (p.num_levels for p in self.instance.profiles.values()), default=0
        )

    def content_fingerprint(self) -> str:
        """SHA-256 over the scheduling-relevant content; see
        :func:`fingerprint_content`."""
        return fingerprint_content(self.instance, self.due_dates)

    def summary(self) -> Dict[str, object]:
        """One row for ``repro instances list``."""
        return {
            "name": self.name,
            "source": self.source,
            "functions": self.instance.num_functions,
            "calls": self.instance.num_calls,
            "levels": self.max_levels,
            "due_dates": len(self.due_dates) if self.due_dates else 0,
            "fingerprint": self.content_fingerprint(),
        }


def fingerprint_content(
    instance: OCSPInstance, due_dates: Optional[DueDateTable] = None
) -> str:
    """Content fingerprint of a bundle.

    Without due dates this is exactly
    :func:`repro.store.fingerprint.fingerprint_instance` — a bundle
    exported from a trace fingerprints identically to the in-memory
    instance, so the result store and the bundle manifest agree.  With
    due dates, the instance digest is chained with the canonical
    encoding of the (sorted) due-date entries.
    """
    base = fingerprint_instance(instance)
    if due_dates is None or len(due_dates) == 0:
        return base
    h = hashlib.sha256()
    h.update(base.encode("ascii"))
    h.update(b"\x00due\x00")
    h.update(canonical_encode([[f, d, w] for f, (d, w) in due_dates.items()]))
    return h.hexdigest()


# ----------------------------------------------------------------------
# Canonical encoding helpers
# ----------------------------------------------------------------------
def _canonical_json(doc: object) -> str:
    """Sorted keys, two-space indent, trailing newline, repr floats."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _fmt_time(value: float) -> str:
    """Fixed float formatting: ``repr`` of the float (shortest exact
    round-trip, identical across CPython builds); ints stay ints."""
    return repr(float(value))


def _csv_text(rows: List[List[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_bundle(bundle: InstanceBundle, path: Union[str, Path]) -> Path:
    """Write ``bundle`` to directory ``path`` in canonical form.

    The directory is created if missing; the bundle's files are
    (over)written atomically-enough for CI use (full rewrite, no
    partial appends).  Returns the directory path.
    """
    root = Path(path)
    if root.exists() and not root.is_dir():
        raise InstanceError(f"bundle path {root} exists and is not a directory")
    root.mkdir(parents=True, exist_ok=True)

    instance = bundle.instance
    levels = bundle.max_levels
    names = sorted(instance.profiles)

    header = (
        ["name"]
        + [f"c{j}" for j in range(levels)]
        + [f"e{j}" for j in range(levels)]
    )
    cost_rows: List[List[str]] = [header]
    for fname in names:
        prof = instance.profiles[fname]
        c = [_fmt_time(v) for v in prof.compile_times]
        e = [_fmt_time(v) for v in prof.exec_times]
        pad = [""] * (levels - prof.num_levels)
        cost_rows.append([fname] + c + pad + e + pad)

    files = {
        "machine": _MACHINE_FILE,
        "costs": _COSTS_FILE,
        "calls": _CALLS_FILE,
    }
    if bundle.due_dates is not None:
        files["due_dates"] = _DUE_FILE

    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "name": instance.name,
        "source": bundle.source,
        "files": files,
        "counts": {
            "functions": instance.num_functions,
            "calls": instance.num_calls,
            "levels": levels,
        },
        "content_fingerprint": bundle.content_fingerprint(),
    }
    machine = {
        "compile_threads": bundle.compile_threads,
        "execution_threads": 1,
        "levels": levels,
        "time_unit": bundle.time_unit,
    }

    (root / _COSTS_FILE).write_text(_csv_text(cost_rows), encoding="utf-8")
    # A row's encoding depends on its name alone: encode each function's
    # row once and stream the trace through them a block at a time.
    rows = [_csv_text([[fname]]) for fname in instance.calls.names]
    with (root / _CALLS_FILE).open("w", encoding="utf-8") as out:
        out.write(_csv_text([["call"]]))
        for block in instance.calls.blocks(rows):
            out.write("".join(block))
    (root / _MACHINE_FILE).write_text(_canonical_json(machine), encoding="utf-8")
    if bundle.due_dates is not None:
        due_doc = {
            "entries": {
                fname: {"due": due, "weight": weight}
                for fname, (due, weight) in bundle.due_dates.items()
            }
        }
        (root / _DUE_FILE).write_text(_canonical_json(due_doc), encoding="utf-8")
    (root / MANIFEST_FILE).write_text(
        _canonical_json(manifest), encoding="utf-8"
    )
    return root


# ----------------------------------------------------------------------
# Reading / validation
# ----------------------------------------------------------------------
def _read_text(root: Path, rel: str, role: str) -> str:
    target = root / rel
    try:
        return target.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InstanceError(
            f"{root}: {role} file {rel!r} listed in the manifest is missing"
        ) from None
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{root}: {role} file {rel!r} is not UTF-8 ({exc})")


def _parse_json_object(text: str, where: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{where} is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InstanceError(
            f"{where} must be a JSON object, got {type(doc).__name__}"
        )
    return doc


def _manifest_file_map(manifest: dict, root: Path) -> Dict[str, str]:
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise InstanceError(f"{root}: manifest 'files' must be an object")
    for role in ("machine", "costs", "calls"):
        if role not in files:
            raise InstanceError(
                f"{root}: manifest 'files' is missing the {role!r} entry"
            )
    for role, rel in files.items():
        if not isinstance(rel, str) or not rel:
            raise InstanceError(
                f"{root}: manifest file entry {role!r} must be a non-empty "
                f"string, got {rel!r}"
            )
        p = Path(rel)
        if p.is_absolute() or ".." in p.parts or len(p.parts) != 1:
            raise InstanceError(
                f"{root}: manifest file entry {role!r} must be a bare file "
                f"name inside the bundle, got {rel!r}"
            )
    return {role: str(rel) for role, rel in files.items()}


def _parse_number(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise InstanceError(f"{where}: non-numeric value {cell!r}") from None
    if not math.isfinite(value):
        raise InstanceError(f"{where}: value must be finite, got {cell!r}")
    return value


def _parse_costs(text: str, root: Path) -> Dict[str, FunctionProfile]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InstanceError(f"{root}: costs.csv is empty") from None
    levels = (len(header) - 1) // 2
    expected = (
        ["name"]
        + [f"c{j}" for j in range(levels)]
        + [f"e{j}" for j in range(levels)]
    )
    if levels < 1 or header != expected:
        raise InstanceError(
            f"{root}: costs.csv header must be "
            f"'name,c0..c<L-1>,e0..e<L-1>', got {header!r}"
        )
    profiles: Dict[str, FunctionProfile] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 1 + 2 * levels:
            raise InstanceError(
                f"{root}: costs.csv line {lineno}: expected "
                f"{1 + 2 * levels} fields, got {len(row)}"
            )
        fname = row[0]
        if not fname:
            raise InstanceError(
                f"{root}: costs.csv line {lineno}: empty function name"
            )
        if fname in profiles:
            raise InstanceError(
                f"{root}: costs.csv line {lineno}: duplicate function "
                f"{fname!r}"
            )
        c_cells = row[1 : 1 + levels]
        e_cells = row[1 + levels :]
        own_levels = sum(1 for cell in c_cells if cell != "")
        if own_levels == 0:
            raise InstanceError(
                f"{root}: costs.csv line {lineno}: {fname!r} has no levels"
            )
        if any(cell != "" for cell in c_cells[own_levels:]) or [
            cell == "" for cell in e_cells
        ] != [cell == "" for cell in c_cells]:
            raise InstanceError(
                f"{root}: costs.csv line {lineno}: {fname!r} has ragged "
                f"level cells (levels must be a contiguous prefix, with "
                f"matching c and e columns)"
            )
        compile_times = tuple(
            _parse_number(cell, f"{root}: costs.csv line {lineno} ({fname!r})")
            for cell in c_cells[:own_levels]
        )
        exec_times = tuple(
            _parse_number(cell, f"{root}: costs.csv line {lineno} ({fname!r})")
            for cell in e_cells[:own_levels]
        )
        try:
            profiles[fname] = FunctionProfile(
                name=fname, compile_times=compile_times, exec_times=exec_times
            )
        except ModelError as exc:
            raise InstanceError(
                f"{root}: costs.csv line {lineno}: {exc}"
            ) from exc
    if not profiles:
        raise InstanceError(f"{root}: costs.csv has no data rows")
    return profiles


def _parse_calls(text: str, root: Path) -> Tuple[str, ...]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InstanceError(f"{root}: calls.csv is empty") from None
    if header != ["call"]:
        raise InstanceError(
            f"{root}: calls.csv header must be 'call', got {header!r}"
        )
    calls: List[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell for cell in row):
            continue
        if len(row) != 1 or not row[0]:
            raise InstanceError(
                f"{root}: calls.csv line {lineno}: expected one function "
                f"name, got {row!r}"
            )
        calls.append(row[0])
    return tuple(calls)


def _parse_due_dates(text: str, root: Path) -> DueDateTable:
    doc = _parse_json_object(text, f"{root}: due_dates.json")
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        raise InstanceError(
            f"{root}: due_dates.json 'entries' must be an object"
        )
    table: Dict[str, Tuple[float, float]] = {}
    for fname, entry in entries.items():
        if not isinstance(entry, dict):
            raise InstanceError(
                f"{root}: due_dates.json entry for {fname!r} must be an "
                f"object with 'due' and 'weight'"
            )
        due = entry.get("due")
        weight = entry.get("weight", 1.0)
        for label, value in (("due", due), ("weight", weight)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InstanceError(
                    f"{root}: due_dates.json entry for {fname!r}: {label} "
                    f"must be a number, got {value!r}"
                )
        table[fname] = (float(due), float(weight))
    try:
        return DueDateTable(table)
    except ModelError as exc:
        raise InstanceError(f"{root}: due_dates.json: {exc}") from exc


def _bundle_root(path: Union[str, Path]) -> Path:
    root = Path(path)
    if root.is_file() and root.name == MANIFEST_FILE:
        root = root.parent
    if not root.is_dir():
        raise InstanceError(f"{root} is not an instance bundle directory")
    if not (root / MANIFEST_FILE).is_file():
        raise InstanceError(f"{root} has no {MANIFEST_FILE}")
    return root


def read_bundle(
    path: Union[str, Path], verify_fingerprint: bool = True
) -> InstanceBundle:
    """Read and fully validate an instance bundle.

    Every structural problem — bad JSON, an unsupported format version,
    malformed CSV, non-monotone cost tables, calls naming unknown
    functions, due dates naming unknown functions, count mismatches, a
    stale content fingerprint — raises :class:`InstanceError`.

    Args:
        path: the bundle directory (or its ``manifest.json``).
        verify_fingerprint: recompute the content fingerprint and
            require it to match the manifest (on by default; importers
            that are about to rewrite the manifest may skip it).
    """
    root = _bundle_root(path)
    manifest = _parse_json_object(
        _read_text(root, MANIFEST_FILE, "manifest"), f"{root}: manifest.json"
    )
    fmt = manifest.get("format")
    if fmt != FORMAT_NAME:
        raise InstanceError(
            f"{root}: unsupported format {fmt!r} (expected {FORMAT_NAME!r})"
        )
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise InstanceError(
            f"{root}: unsupported format_version {version!r} "
            f"(this reader supports {FORMAT_VERSION})"
        )
    name = manifest.get("name")
    if not isinstance(name, str) or not name:
        raise InstanceError(
            f"{root}: manifest 'name' must be a non-empty string, got {name!r}"
        )
    source = manifest.get("source", "unknown")
    if not isinstance(source, str) or not source:
        raise InstanceError(
            f"{root}: manifest 'source' must be a non-empty string, "
            f"got {source!r}"
        )
    files = _manifest_file_map(manifest, root)

    machine = _parse_json_object(
        _read_text(root, files["machine"], "machine"),
        f"{root}: {files['machine']}",
    )
    compile_threads = machine.get("compile_threads", 1)
    if (
        isinstance(compile_threads, bool)
        or not isinstance(compile_threads, int)
        or compile_threads < 1
    ):
        raise InstanceError(
            f"{root}: machine environment compile_threads must be an "
            f"integer >= 1, got {compile_threads!r}"
        )
    time_unit = machine.get("time_unit", "virtual")
    if not isinstance(time_unit, str) or not time_unit:
        raise InstanceError(
            f"{root}: machine environment time_unit must be a non-empty "
            f"string, got {time_unit!r}"
        )

    profiles = _parse_costs(_read_text(root, files["costs"], "costs"), root)
    calls = _parse_calls(_read_text(root, files["calls"], "calls"), root)
    try:
        instance = OCSPInstance(profiles=profiles, calls=calls, name=name)
    except ModelError as exc:
        raise InstanceError(f"{root}: {exc}") from exc

    due_dates: Optional[DueDateTable] = None
    if "due_dates" in files:
        due_dates = _parse_due_dates(
            _read_text(root, files["due_dates"], "due dates"), root
        )

    try:
        bundle = InstanceBundle(
            instance=instance,
            due_dates=due_dates,
            source=source,
            compile_threads=compile_threads,
            time_unit=time_unit,
        )
    except ModelError as exc:
        raise InstanceError(f"{root}: {exc}") from exc

    counts = manifest.get("counts")
    if isinstance(counts, dict):
        expected = {
            "functions": instance.num_functions,
            "calls": instance.num_calls,
            "levels": bundle.max_levels,
        }
        for key, want in expected.items():
            have = counts.get(key)
            if have != want:
                raise InstanceError(
                    f"{root}: manifest counts.{key} is {have!r} but the "
                    f"bundle content has {want}"
                )

    if verify_fingerprint:
        recorded = manifest.get("content_fingerprint")
        actual = bundle.content_fingerprint()
        if recorded != actual:
            raise InstanceError(
                f"{root}: content fingerprint mismatch — manifest records "
                f"{recorded!r}, content hashes to {actual!r} (the bundle "
                f"was edited without re-exporting)"
            )
    return bundle


def validate_bundle(path: Union[str, Path]) -> InstanceBundle:
    """Alias of :func:`read_bundle` with every check on (the CLI's
    ``repro instances validate``)."""
    return read_bundle(path, verify_fingerprint=True)


def list_bundles(root: Union[str, Path]) -> List[Dict[str, object]]:
    """Summaries of every bundle directly under ``root``.

    ``root`` itself may be a bundle.  Unreadable bundles are reported
    with an ``error`` field instead of aborting the listing.
    """
    base = Path(root)
    if not base.is_dir():
        raise InstanceError(f"{base} is not a directory")
    candidates: List[Path] = []
    if (base / MANIFEST_FILE).is_file():
        candidates.append(base)
    else:
        for child in sorted(base.iterdir()):
            if child.is_dir() and (child / MANIFEST_FILE).is_file():
                candidates.append(child)
    rows: List[Dict[str, object]] = []
    for candidate in candidates:
        row: Dict[str, object] = {"path": str(candidate)}
        try:
            bundle = read_bundle(candidate)
        except InstanceError as exc:
            row["error"] = str(exc)
        else:
            row.update(bundle.summary())
        rows.append(row)
    return rows
