"""Output checks.  Every measured run passes them or fails.

Batch rows must equal the expected file for the default seed, and on
any seed keep the paper's invariants: every normalized make-span is at
least 1 (the lower bound is at most every scheme), and the Figure 7
speed-ups are at least 1 and never fall as cores are added.

Serve decision logs, sorted by ``seq``, must be byte-equal across the
phases of a run (a phase that replays a prefix of the stream against the
same prefix of the others) and match the expected digest for the
default seed, and every decision's ``call`` must equal the client's own
count of calls to that (tenant, function).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Host wall-clock columns: they differ on every run by design.
WALL_CLOCK_COLUMNS = {"table2": ("iar_time_s", "percent_of_program")}
SERIES = ("lower_bound", "iar", "default", "base_level", "optimizing_level")
SUITE_SIZE = 9
# Normalized make-spans are ratios of floats; allow rounding in the last bits.
RATIO_SLACK = 1e-9


def comparable(doc: Dict[str, object]) -> Dict[str, object]:
    """The rows of a batch run without their wall-clock columns."""
    rows = {
        driver: [
            {k: v for k, v in row.items() if k not in WALL_CLOCK_COLUMNS.get(driver, ())}
            for row in driver_rows
        ]
        for driver, driver_rows in doc["rows"].items()
    }
    out = {"rows": rows}
    for key in ("table1", "astar"):
        if key in doc:
            out[key] = doc[key]
    return out


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}-rows.json"


def load_expected(workload: str) -> Dict[str, object]:
    return json.loads(expected_path(workload).read_text(encoding="utf-8"))


def check_batch(doc: Dict[str, object], expected: Optional[Dict[str, object]]) -> List[str]:
    """Problems found in one batch run's rows (empty = correct);
    ``expected`` is the recorded output for these inputs, where one exists."""
    problems = [f"unit failed: {e}" for e in doc["errors"]]
    rows = doc["rows"]
    for driver, driver_rows in rows.items():
        per_bench = 2 if driver == "faults_sweep" else 1
        if len(driver_rows) != SUITE_SIZE * per_bench:
            problems.append(f"{driver}: {len(driver_rows)} rows")
        for row in driver_rows:
            where = f"{driver}/{row.get('benchmark')}"
            if driver == "figure7":
                speedups = [row[k] for k in sorted(row, key=_cores) if k.startswith("cores_")]
                if speedups[0] != 1.0 or any(b < a for a, b in zip(speedups, speedups[1:])):
                    problems.append(f"{where}: speed-ups {speedups} not 1 then rising")
            elif driver == "table2":
                if not row["program_time_s"] > 0:
                    problems.append(f"{where}: program time {row['program_time_s']}")
            else:
                if row["lower_bound"] != 1.0:
                    problems.append(f"{where}: lower bound normalized to {row['lower_bound']}")
                for key in SERIES:
                    if not row[key] >= 1.0 - RATIO_SLACK:
                        problems.append(f"{where}: {key} = {row[key]} below the lower bound")
    if expected is not None:
        got = json.loads(json.dumps(comparable(doc)))
        for section, rows in expected.items():
            if got.get(section) != rows:
                problems.append(f"{section}: rows differ from the expected rows")
    return problems


def _cores(key: str) -> int:
    return int(key.split("_")[1]) if key.startswith("cores_") else -1


def log_digest(records: List[Dict[str, object]]) -> str:
    """SHA-256 of the decision log: canonical JSONL sorted by ``seq``."""
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: int(r["seq"])):
        digest.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


def digest_key(workload: str, seed: int, events: int) -> str:
    return f"{workload}/seed={seed}/events={events}"


def expected_digests() -> Dict[str, str]:
    return json.loads((EXPECTED_DIR / "serve-digests.json").read_text(encoding="utf-8"))


def check_serve(
    phases: Dict[str, Tuple[int, List[Dict[str, object]]]],
    expected_call: Dict[int, int],
    want_digest: Optional[str],
) -> List[str]:
    """Problems found in the decision logs of one serve run's phases.

    Each phase replays the first ``sent`` requests of one stream and
    maps to ``(sent, records)``; ``expected_call`` holds the client's
    call counts for the whole stream, and ``want_digest`` is the expected
    digest of the whole stream's log, where one is recorded.  A phase's
    log must equal the longest phase's log cut to the same requests.
    """
    problems = []
    longest = max(phases, key=lambda name: phases[name][0])
    reference = phases[longest][1]
    for name, (sent, records) in phases.items():
        want_seqs = sorted(seq for seq in expected_call if seq < sent)
        if sorted(int(r["seq"]) for r in records) != want_seqs:
            problems.append(f"{name}: {len(records)} decisions for {len(want_seqs)} calls")
        wrong = [r for r in records if expected_call.get(int(r["seq"])) != r["call"]]
        if wrong:
            r = wrong[0]
            problems.append(
                f"{name}: {len(wrong)} decisions with a wrong call count, e.g. seq "
                f"{r['seq']} says {r['call']}, client counted {expected_call.get(int(r['seq']))}"
            )
        cut = [r for r in reference if int(r["seq"]) < sent]
        if name != longest and log_digest(records) != log_digest(cut):
            problems.append(f"decision log of {name} differs from {longest} on its requests")
    if want_digest is not None:
        got = log_digest(reference)
        if got != want_digest:
            problems.append(f"decision log digest {got[:12]} != expected {want_digest[:12]}")
    return problems
