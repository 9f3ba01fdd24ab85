"""End-to-end benchmark of ``repro``: the limit study and the decision service.

    python3 e2ebench/run.py --workload study [--seed N] [--seconds S] [--trace 0|1]
    python3 e2ebench/run.py --workload all

Run from the root of a checkout.  Each workload runs the program in a
process of its own, timed from outside, and checks its outputs; the last
line printed is the JSON result (see ``result.py``).  The exit code is 0
only when every check passed.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("study", "faults-sweep", "serve-mixed", "serve-fleet")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the one that reproduces the CLI's inputs)",
    )
    parser.add_argument(
        "--seconds", type=int, default=None,
        help="length of the serve open-loop phase (default 5; batch workloads "
        "always run whole studies)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = HERE.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import batch
    import serve
    from proc import pin_client

    pin_client()

    seconds = serve.DEFAULT_SECONDS if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        module = batch if name in ("study", "faults-sweep") else serve
        seed = module.DEFAULT_SEED if args.seed is None else args.seed
        result = module.run(name, seed, seconds, bool(args.trace))
        print(result.report(bool(args.trace)), flush=True)
        print(result.json_line(bool(args.trace)), flush=True)
        ok = ok and result.correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
