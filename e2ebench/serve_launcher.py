"""Start the decision server exactly as ``repro serve run`` does.

    python3 e2ebench/serve_launcher.py [--trace DIR] -- serve run --port 0 ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged, so the code
path is the CLI's.  With ``--trace DIR`` the service and telemetry entry
points are wrapped first, and the spans are written to ``DIR`` once the
server has drained and stopped.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    trace_dir = None
    if argv[:1] == ["--trace"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: serve_launcher.py [--trace DIR] -- <repro args>", file=sys.stderr)
        return 2
    recorder = None
    if trace_dir is not None:
        from spans import SpanRecorder, install_service_wrappers

        recorder = SpanRecorder()
        install_service_wrappers(recorder)
    from repro import cli

    code = cli.main(argv[1:])
    if recorder is not None:
        recorder.write(os.path.join(trace_dir, "spans.jsonl"))
        with open(os.path.join(trace_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(recorder.summary(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
