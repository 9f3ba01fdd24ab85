"""Record the expected outputs the checks compare against.

    python3 e2ebench/make_expected.py

Writes ``expected/<workload>-rows.json`` (batch rows for the default seed,
without wall-clock columns) and ``expected/serve-digests.json`` (the
decision-log digest for the default seed at the stream lengths the
benchmark and its self-test use).  The serve digests come from an
in-process replay, so the socket runs are checked against a second path.
Run it only at a commit whose outputs are known good.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import batch  # noqa: E402
import serve  # noqa: E402
from checks import EXPECTED_DIR, comparable, digest_key, expected_path, log_digest  # noqa: E402
from selftest import TINY_CALLS  # noqa: E402

# Calls per serve stream: the benchmark's and the self-test's.
SERVE_CALLS = (serve.SATURATION_CALLS, TINY_CALLS)


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    batch.OUT_DIR.mkdir(exist_ok=True)
    for workload in ("study", "faults-sweep"):
        doc = batch.rows(workload, batch.DEFAULT_SEED, batch.SCALE)
        if doc["errors"]:
            raise SystemExit(f"{workload}: failed units {doc['errors']}")
        text = json.dumps(comparable(doc), indent=1, sort_keys=True) + "\n"
        expected_path(workload).write_text(text, encoding="utf-8")
        print(f"wrote {expected_path(workload)}")

    from repro.observability import MetricsRegistry
    from repro.service import DecisionCache, DecisionEngine
    from repro.service.driver import replay_inproc

    digests = {}
    for workload in serve.FAULTS:
        for calls in SERVE_CALLS:
            events = serve.events_for(workload, serve.DEFAULT_SEED, calls)
            engine = DecisionEngine(
                faults=serve.FAULTS[workload], cache=DecisionCache(), metrics=MetricsRegistry()
            )
            records, _ = replay_inproc(events, engine)
            digests[digest_key(workload, serve.DEFAULT_SEED, calls)] = log_digest(records)
    path = EXPECTED_DIR / "serve-digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
