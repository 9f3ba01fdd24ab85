"""A minimal metrics registry: counters, gauges, histograms.

Algorithm steps that are not timeline events — IAR's category sizes,
local-search move outcomes, cutoff early-exits — are counted here.
Like the tracer, the registry is zero-dependency and wall-clock-free;
instruments accept ``metrics=None`` (the default) and pay one branch
when disabled.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, List, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_RESERVOIR_SIZE = 1024


def _percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (``0 <= q <= 100``) of a non-empty
    ascending sequence, interpolated linearly between closest ranks."""
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming aggregate of observed values.

    Exact count/sum/min/max/mean are maintained online; quantiles come
    from a fixed-size reservoir (Vitter's algorithm R, 1024 slots), so
    instrumented loops may record millions of values at O(1) memory.
    Up to 1024 recordings the quantiles are exact; beyond that they are
    estimates from a uniform sample.  The reservoir's RNG is seeded from
    the histogram *name* (CRC-32, not the salted ``hash``), so a given
    instrument stream yields identical quantiles on every run — metric
    snapshots stay reproducible.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_rng")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < _RESERVOIR_SIZE:
            self._samples.append(value)
        else:
            # ``random()`` is 53-bit, so the slot stays below ``count``
            # for any count under 2**53; ``randrange`` runs in Python.
            slot = int(self._rng.random() * self.count)
            if slot < _RESERVOIR_SIZE:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (``0 <= q <= 100``) of the recorded
        values — exact below 1024 recordings, reservoir-estimated above.
        ``None`` when nothing has been recorded.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._samples:
            return None
        return _percentile(sorted(self._samples), q)


class MetricsRegistry:
    """Name-keyed store of metrics instruments.

    ``counter``/``gauge``/``histogram`` get-or-create; requesting an
    existing name as a different kind raises ``ValueError`` (a metric's
    identity is its name).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: type):
        existing = self._metrics.get(name)
        if existing is None:
            existing = kind(name)
            self._metrics[name] = existing
        elif not isinstance(existing, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, not {kind.__name__}"
            )
        return existing

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, object]:
        """Plain-data view: name → value (counters/gauges) or summary
        dict (histograms), sorted by name.  ``prefix`` restricts the
        view to names starting with it (e.g. ``"service."``)."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            if prefix is not None and not name.startswith(prefix):
                continue
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "total": metric.total,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                    "mean": metric.mean,
                    "p50": metric.percentile(50.0),
                    "p90": metric.percentile(90.0),
                    "p99": metric.percentile(99.0),
                }
            else:
                out[name] = metric.value  # type: ignore[union-attr]
        return out

    def render(self, precision: int = 3) -> str:
        """One ``name = value`` line per metric, sorted by name."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                p50 = value["p50"]
                p99 = value["p99"]
                quantiles = (
                    f" p50={p50:.{precision}f} p99={p99:.{precision}f}"
                    if p50 is not None and p99 is not None
                    else ""
                )
                lines.append(
                    f"{name} = count={value['count']} "
                    f"mean={value['mean']:.{precision}f} "
                    f"min={value['min']} max={value['max']}"
                    f"{quantiles}"
                )
            elif isinstance(value, float):
                lines.append(f"{name} = {value:.{precision}f}")
            else:
                lines.append(f"{name} = {value}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics
