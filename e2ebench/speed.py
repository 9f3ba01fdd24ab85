"""The host's speed, sampled on the measured program's CPU while it runs.

The VMs this benchmark runs on change speed by up to 2.5 times from one
minute to the next: a neighbour on the same host takes or frees its
share of the core and its caches, with no ``steal`` to show for it.  So
while the program runs, a sampler process on the program's CPU wakes
every ``PERIOD_S``, at real-time priority so it runs at once and is
not interrupted, times one fixed chunk of reference work, and sleeps
again.  The chunk lives in the benchmark, not in the program, so it
never changes; it does the same kind of work as the program
(interpreted loops over dicts, lists and a heap of floats, a JSON round
trip, a working set larger than the core's own caches) under the same
conditions (the program's caches, its neighbour on the other CPU).

A measured time is reported at the reference speed:

    reported time = measured time / slowdown,
    slowdown      = mean chunk time in its window / ``NOMINAL_CHUNK_S``.

On a host at the nominal speed the two readings agree; a change to the
program moves the reported time as it moves the measured one, while a
change of host speed moves the program and the chunks alike and
cancels.  The sampler takes about 5% of the program's CPU, the same on
every commit.

    python3 e2ebench/speed.py --out FILE   # the sampler; runs until stdin closes
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import select
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Set

# Mean chunk time on the host the benchmark was written on (2-vCPU KVM
# VM, Xeon at 2.1 GHz) in its usual state: the speed reported times
# refer to.
NOMINAL_CHUNK_S = 0.005
# One chunk per period: about 5% of the program's CPU.
PERIOD_S = 0.08
# A sample is two doubles: chunk start and duration (perf_counter s).
_RECORD = struct.Struct("<dd")

# The chunk's data, made in the sampler process only (8 MB).
_VALUES: List[float] = []
_MESSAGE = {"op": "call", "tenant": "t000-ref", "function": "f", "seq": 0, "level": 1}


def _chunk() -> float:
    """One fixed unit of reference work."""
    heap, sums, total = [], {}, 0.0
    values, mask = _VALUES, len(_VALUES) - 1
    for i in range(2_400):
        key = (i * 7919) & 4095
        value = sums.get(key, 0.0) + values[(i * 40_503) & mask]
        sums[key] = value
        heapq.heappush(heap, (value, i))
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
        if not i & 31:
            total += len(json.loads(json.dumps(_MESSAGE)))
    return total


def _realtime() -> str:
    """Run ahead of the program on its CPU: real-time FIFO where the
    system allows it, else the highest nice level it allows."""
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        return "fifo"
    except (OSError, AttributeError):
        pass
    for nice in (-20, -10, -5):
        try:
            os.setpriority(os.PRIO_PROCESS, 0, nice)
            return f"nice{nice}"
        except OSError:
            continue
    return "normal"


def _sample(out: str) -> int:
    rng = random.Random(0x5EED)
    _VALUES.extend(rng.random() for _ in range(1 << 18))
    mode = _realtime()
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        print(f"SAMPLING {mode}", flush=True)
        while True:
            start = time.perf_counter()
            _chunk()
            os.write(fd, _RECORD.pack(start, time.perf_counter() - start))
            # Sleep until the next period, or stop once stdin closes.
            if select.select([sys.stdin], [], [], PERIOD_S)[0]:
                if not sys.stdin.buffer.read1(1 << 10):
                    return 0
    finally:
        os.close(fd)


class Sampler:
    """The sampler process on ``cpus``, and the samples it took."""

    def __init__(self, out: Path, cpus: Set[int]) -> None:
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--out", str(out)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            os.sched_setaffinity(self.proc.pid, cpus)
            self.mode = self.proc.stdout.readline().split()[-1]
        except BaseException:
            self.stop()
            raise

    def _took(self, start: float, end: float) -> List[float]:
        data = self.out.read_bytes()
        usable = len(data) - len(data) % _RECORD.size
        return [d for t, d in _RECORD.iter_unpack(data[:usable]) if start <= t < end]

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown over ``[start, end)`` (``time.perf_counter()`` readings)."""
        took = self._took(start, end)
        if not took:
            raise RuntimeError(f"no speed sample in a {end - start:.3f} s window")
        return sum(took) / len(took) / NOMINAL_CHUNK_S

    def samples(self) -> int:
        """Samples taken so far."""
        return len(self._took(float("-inf"), float("inf")))

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file the samples are written to")
    return _sample(parser.parse_args(argv).out)


if __name__ == "__main__":
    sys.exit(main())
