"""Metric catalogue and the result every run prints.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric when
the run is untraced, every per-layer metric when it is traced.  Lines
before it are for people: each metric with its unit and the sample count
a percentile rests on, then every check problem and note.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

from spans import LAYERS, layer_of

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _catalogue():
    """The metric lists, read from ``BENCHMARK.json`` so they exist in
    one place: (name, unit) of the end-to-end metrics a user of
    ``repro`` sees, and of the per-layer ones."""
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return tuple(
        tuple((m["name"], m["unit"]) for m in doc[kind]) for kind in ("end_to_end", "per_layer")
    )


END_TO_END, PER_LAYER = _catalogue()


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Result:
    """What one run measured and found."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.values: Dict[str, Tuple[float, str, str]] = {}
        self.problems: List[str] = []
        self.notes: List[str] = []

    def put(
        self, name: str, value: float, unit: str, samples=None, note: str = "", stat: str = "median"
    ) -> None:
        """One metric; ``samples`` is the count a percentile rests on, or
        the list of per-repeat values ``value`` is the ``stat`` of."""
        if samples is None:
            detail = ""
        elif isinstance(samples, int):
            detail = f"n={samples}"
        else:
            detail = f"{stat} of " + " ".join(f"{v:.4g}" for v in samples)
        if note:
            detail = f"{detail}, {note}" if detail else note
        self.values[name] = (float(value), unit, detail)

    def layer_shares(self, spans: Dict[str, Dict[str, float]], total_s: float, extra=None) -> None:
        """Self time per ``repro`` layer as a share of ``total_s`` (the
        Amdahl table), and the share the spans cover together."""
        own = {layer: 0.0 for layer in LAYERS}
        for name, entry in spans.items():
            own[layer_of(name)] += entry["self_s"]
        for layer, seconds in (extra or {}).items():
            own[layer] += seconds
        for layer in LAYERS:
            self.put(f"layer.{layer}.share", own[layer] / total_s, "ratio")
        self.put("trace.coverage_frac", sum(own.values()) / total_s, "ratio")

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    @property
    def correct(self) -> bool:
        return not self.problems

    def metrics(self, trace: bool) -> Dict[str, Dict[str, object]]:
        out = {}
        if trace:
            for name, unit in PER_LAYER:
                value = self.values.get(name, (0.0, unit, ""))[0]
                out[name] = {"value": value, "unit": unit}
        else:
            for name, unit in END_TO_END:
                if name not in self.values:
                    raise KeyError(f"{self.workload}: metric {name} was not measured")
                out[name] = {"value": self.values[name][0], "unit": unit}
        return out

    def report(self, trace: bool) -> str:
        lines = [f"== {self.workload} (seed {self.seed}, {'traced' if trace else 'untraced'})"]
        names = [n for n, _ in END_TO_END + PER_LAYER]
        for name in names:
            if name in self.values:
                value, unit, detail = self.values[name]
                lines.append(f"  {name:40s} {value:14.6g} {unit:6s} {detail}")
        lines.append(f"  attempted {self.attempted}, failed {self.failed}")
        lines.extend(f"  note: {n}" for n in self.notes)
        lines.extend(f"  CHECK FAILED: {p}" for p in self.problems)
        return "\n".join(lines)

    def json_line(self, trace: bool) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": self.metrics(trace),
            },
            sort_keys=True,
        )
