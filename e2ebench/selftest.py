"""Self-test of the benchmark: every workload, every metric, every check.

    python3 e2ebench/selftest.py

Runs all four workloads, untraced and traced, at a tiny size (the batch
suite at scale 0.002, a 4,000-call serve stream with a 1-second open
loop) and requires every named metric to be printed with its unit, and
the metric list in ``BENCHMARK.json`` to match what the workloads
measure.  Then it shows that the output checks catch a corrupted
expected row, a broken invariant, and wrong decision records.  Exits
non-zero on the first failure.  Takes about two minutes.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import batch  # noqa: E402
import serve  # noqa: E402
from checks import check_batch, check_serve, comparable, log_digest  # noqa: E402
from client import Stream  # noqa: E402
from result import END_TO_END, PER_LAYER  # noqa: E402

TINY_SCALE = 0.002
TINY_CALLS = 4000


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_printed(result, trace: bool) -> None:
    """The JSON line carries exactly the metrics ``BENCHMARK.json``
    lists, each with its unit, the report names every one of them, and
    nothing measured is missing from that list."""
    unlisted = set(result.values) - {n for n, _ in END_TO_END + PER_LAYER}
    expect(not unlisted, f"{result.workload}: measured but not in BENCHMARK.json: {unlisted}")
    doc = json.loads(result.json_line(trace))
    expect(set(doc) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(doc)}")
    expect(doc["correct"] is True, f"{result.workload}: {result.problems}")
    expect(doc["attempted"] >= 1, f"{result.workload}: attempted {doc['attempted']}")
    wanted = PER_LAYER if trace else END_TO_END
    expect(len(doc["metrics"]) == len(wanted), f"{result.workload}: metric count")
    report = result.report(trace)
    for name, unit in wanted:
        entry = doc["metrics"].get(name)
        expect(entry is not None and entry["unit"] == unit, f"{result.workload}: {name} [{unit}]")
        expect(isinstance(entry["value"], float), f"{result.workload}: {name} not a number")
        if not trace:
            expect(entry["value"] > 0, f"{result.workload}: {name} is {entry['value']}")
            expect(f"  {name} " in report, f"{result.workload}: {name} not in the report")


def test_workloads() -> dict:
    docs = {}
    measured = set()
    for trace in (False, True):
        results = [
            batch.run(workload, batch.DEFAULT_SEED, 1, trace, scale=TINY_SCALE)
            for workload in ("study", "faults-sweep")
        ] + [
            serve.run(workload, serve.DEFAULT_SEED, 1, trace, calls=TINY_CALLS)
            for workload in ("serve-mixed", "serve-fleet")
        ]
        for result in results:
            check_printed(result, trace)
            measured |= set(result.values)
        for result in results[2:]:
            expect(
                any("compared with the expected digest" in n for n in result.notes),
                f"{result.workload}: the default-seed digest was not checked",
            )
        print(f"selftest: all workloads print every {'per-layer' if trace else 'end-to-end'} metric")
    never = {n for n, _ in PER_LAYER} - measured
    expect(not never, f"per-layer metrics no workload measures: {sorted(never)}")
    for workload in ("study", "faults-sweep"):
        docs[workload] = batch.rows(workload, batch.DEFAULT_SEED, TINY_SCALE)
    return docs


def test_batch_checks(docs: dict) -> None:
    for workload, doc in docs.items():
        expected = json.loads(json.dumps(comparable(doc)))
        expect(check_batch(doc, expected) == [], f"{workload}: clean rows rejected")
        corrupted = copy.deepcopy(expected)
        driver = next(iter(corrupted["rows"]))
        row = corrupted["rows"][driver][0]
        row["iar"] = row["iar"] * (1 + 1e-12)
        expect(check_batch(doc, corrupted) != [], f"{workload}: corrupted expected row accepted")
        broken = copy.deepcopy(doc)
        broken["rows"][driver][0]["iar"] = 0.99
        expect(check_batch(broken, None) != [], f"{workload}: scheme below the lower bound accepted")
    broken = copy.deepcopy(docs["study"])
    row = broken["rows"]["figure7"][0]
    row["cores_16"] = row["cores_8"] - 0.01
    expect(check_batch(broken, None) != [], "falling Figure 7 speed-up accepted")
    print("selftest: batch checks catch a corrupted expected row and broken invariants")


def test_serve_checks() -> None:
    from repro.service import DecisionCache, DecisionEngine
    from repro.service.driver import replay_inproc

    events = serve.events_for("serve-fleet", serve.DEFAULT_SEED, TINY_CALLS)
    stream = Stream(events)
    engine = DecisionEngine(faults=serve.FAULTS["serve-fleet"], cache=DecisionCache())
    records, _ = replay_inproc(events, engine)
    n, half = len(events), len(events) // 2
    digest = log_digest(records)

    def phases(saturated, opened=None):
        if opened is None:
            opened = [r for r in records if int(r["seq"]) < half]
        return {"open-loop": (half, opened), "saturation-1": (n, saturated)}

    def caught(logs, want=None) -> bool:
        return check_serve(logs, stream.expected_call, want) != []

    expect(not caught(phases(copy.deepcopy(records)), digest), "clean decision logs rejected")
    wrong_call = copy.deepcopy(records)
    wrong_call[5]["call"] += 1
    expect(caught({"saturation-1": (n, wrong_call)}), "wrong call count accepted")
    wrong_level = copy.deepcopy(records)
    wrong_level[7]["level"] += 1
    expect(caught(phases(wrong_level)), "a phase with a different decision accepted")
    wrong_open = [r for r in wrong_level if int(r["seq"]) < half]
    expect(caught(phases(records, wrong_open)), "an open loop with a different decision accepted")
    expect(caught(phases(records[:-1])), "a missing decision accepted")
    expect(caught({"saturation-1": (n, records)}, "0" * 64), "a digest mismatch accepted")
    print("selftest: serve checks catch wrong, different and missing decision records")


def main() -> int:
    docs = test_workloads()
    test_batch_checks(docs)
    test_serve_checks()
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
