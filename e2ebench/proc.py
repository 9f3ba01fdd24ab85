"""Child processes of the benchmark: start, observe from outside, reap.

Every measured program runs in a process of its own.  It is timed by
the lines it prints, and its CPU time and peak RSS are read from
``/proc/<pid>`` while it is still alive, so nothing inside the program
is needed to measure it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Scratch space for rows and spans, inside the checkout (git-ignored).
OUT_DIR = ROOT / ".e2ebench-out"

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
# With two or more CPUs, the measured program gets the first to itself and
# the benchmark's own process (the load generator) the others, so the two
# never share a CPU: left to the scheduler, the saturated server and the
# client sometimes land on one CPU and throughput drops by a third.
_CPUS = sorted(os.sched_getaffinity(0))
PROGRAM_CPUS = set(_CPUS[:1])
CLIENT_CPUS = set(_CPUS[1:]) or PROGRAM_CPUS


def pin_client() -> None:
    """Keep the benchmark's own process off the measured program's CPU."""
    os.sched_setaffinity(0, CLIENT_CPUS)


def env() -> dict:
    """The child environment: the checkout's ``src`` and nothing else
    on the import path, so the program under test is this checkout's."""
    child = dict(os.environ)
    child["PYTHONPATH"] = str(SRC)
    return child


class HostSteal:
    """Share of this VM's CPU time the hypervisor gave to others
    (``steal`` in ``/proc/stat``) since the object was made: when it is
    high, wall-clock readings were taken on a disturbed host."""

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read():
        with open("/proc/stat", "rb") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
        return ticks[7], sum(ticks)

    def frac(self) -> float:
        steal, total = self._read()
        elapsed = total - self._start[1]
        return (steal - self._start[0]) / elapsed if elapsed else 0.0


class Child:
    """One started program with line-buffered stdout."""

    def __init__(self, script: str, args: List[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *args],
            cwd=str(ROOT),
            env=env(),
            stdout=subprocess.PIPE,
            stdin=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        os.sched_setaffinity(self.proc.pid, PROGRAM_CPUS)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_line(self) -> str:
        """Next stdout line; raises when the child exits first."""
        line = self.proc.stdout.readline()
        if not line:
            code = self.wait(timeout=10.0)
            raise RuntimeError(
                f"{self.proc.args[1]} exited with code {code} "
                f"before printing the expected line"
            )
        return line.rstrip("\n")

    def expect(self, marker: str) -> str:
        """Wait for the next line starting with ``marker`` and return it."""
        while True:
            line = self.read_line()
            if line.startswith(marker):
                return line

    def elapsed(self) -> float:
        """Seconds since the child was started."""
        return time.perf_counter() - self.started

    def cpu_s(self) -> float:
        """User+system CPU so far (clock-tick resolution)."""
        with open(f"/proc/{self.pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * _TICK_S

    def peak_rss_mb(self) -> float:
        """Peak resident set so far (``VmHWM``).  ``wait4``'s
        ``ru_maxrss`` would not do: it also counts the benchmark's own
        memory, which the child inherits at fork."""
        with open(f"/proc/{self.pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.pid}")

    def wait(self, timeout: float = 60.0) -> int:
        """Close the child's stdin (a child holding on until then may
        exit), and reap it; kill it if it has not exited in ``timeout``."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait(timeout=10.0)
