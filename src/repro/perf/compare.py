"""Noise-aware comparison of benchmark results against baselines.

The two signals gate differently:

* **Counters compare exactly.**  They are machine-independent, so any
  difference is a real behavioural change.  An *increase* is a
  regression (the code does more work per run) and fails the
  comparison; a *decrease* is an improvement that warns until the
  baseline is refreshed — a stale baseline would mask the next
  regression up to the amount just saved.
* **Wall time compares against an IQR-derived threshold.**  The
  baseline's interquartile range is its own noise estimate; the current
  median must exceed ``median + max(IQR_SCALE * iqr, REL_FLOOR *
  median)`` to count as drift.  The relative floor handles the
  zero-IQR case (few repeats on a quiet machine: an IQR of 0 must not
  turn scheduler jitter into alarms).  Drift *warns*, never fails —
  wall time on shared runners is evidence, not proof.  When the machine
  fingerprints differ, timing is not compared at all (noted instead):
  cross-machine wall-clock deltas are meaningless.  A kernel update
  alone does not make another machine: fingerprints that differ only in
  the kernel release inside ``platform`` still compare timing.

Comparability gates (schema version, scale, params, kind) downgrade to
``skip`` with a note — an incomparable baseline is a workflow problem,
not a perf regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .baseline import SCHEMA_VERSION, load_baseline_dir

__all__ = [
    "IQR_SCALE",
    "REL_FLOOR",
    "CounterDiff",
    "Comparison",
    "compare_doc",
    "compare_dirs",
    "worst_status",
]

# Drift threshold: median + max(IQR_SCALE * iqr, REL_FLOOR * median).
IQR_SCALE = 3.0
REL_FLOOR = 0.15

# Severity order for aggregating many comparisons into one verdict.
_SEVERITY = {"pass": 0, "skip": 1, "warn": 2, "fail": 3}


@dataclass(frozen=True)
class CounterDiff:
    """One counter whose value changed (or appeared/disappeared)."""

    counter: str
    baseline: Optional[int]
    current: Optional[int]

    @property
    def regressed(self) -> bool:
        """More work than the baseline recorded."""
        return (
            self.baseline is not None
            and self.current is not None
            and self.current > self.baseline
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "counter": self.counter,
            "baseline": self.baseline,
            "current": self.current,
            "regressed": self.regressed,
        }


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing one benchmark against its baseline.

    ``status``: ``pass`` (both signals clean), ``warn`` (wall-time
    drift, counter improvement, or fingerprint mismatch), ``fail``
    (counter regression), or ``skip`` (no comparable baseline).
    """

    name: str
    status: str
    notes: Tuple[str, ...]
    counter_diffs: Tuple[CounterDiff, ...] = ()
    baseline_median_s: Optional[float] = None
    current_median_s: Optional[float] = None
    time_threshold_s: Optional[float] = None
    time_compared: bool = False

    @property
    def time_ratio(self) -> Optional[float]:
        if (
            self.baseline_median_s
            and self.current_median_s is not None
            and self.baseline_median_s > 0
        ):
            return self.current_median_s / self.baseline_median_s
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "notes": list(self.notes),
            "counter_diffs": [d.as_dict() for d in self.counter_diffs],
            "baseline_median_s": self.baseline_median_s,
            "current_median_s": self.current_median_s,
            "time_threshold_s": self.time_threshold_s,
            "time_ratio": self.time_ratio,
            "time_compared": self.time_compared,
        }


def _skip(name: str, note: str) -> Comparison:
    return Comparison(name=name, status="skip", notes=(note,))


def _without_kernel_release(fingerprint: object) -> object:
    """``fingerprint`` with the kernel release cut out of its ``platform``.

    ``platform.platform()`` writes the system, the release (which may
    hold dashes) and then the ``machine``: ``Linux-6.1.0-x86_64-with-
    glibc2.36`` becomes ``Linux-x86_64-with-glibc2.36``.  A fingerprint
    that does not read that way is returned unchanged.
    """
    if not isinstance(fingerprint, dict):
        return fingerprint
    name = fingerprint.get("platform")
    machine = fingerprint.get("machine")
    if not isinstance(name, str) or not isinstance(machine, str) or not machine:
        return fingerprint
    system, _, rest = name.partition("-")
    at = rest.rfind(f"-{machine}")
    if at < 0:
        return fingerprint
    return dict(fingerprint, platform=f"{system}{rest[at:]}")


def _median(doc: Dict[str, object]) -> Optional[float]:
    timing = doc.get("timing")
    if isinstance(timing, dict) and "median_s" in timing:
        return float(timing["median_s"])
    return None


def compare_doc(
    current: Dict[str, object],
    baseline: Optional[Dict[str, object]],
    iqr_scale: float = IQR_SCALE,
    rel_floor: float = REL_FLOOR,
) -> Comparison:
    """Compare one current result document against its baseline document."""
    name = str(current.get("name", "?"))
    if baseline is None:
        return _skip(name, "no baseline (new benchmark? commit one with "
                           "`repro bench run --update-baselines`)")
    base_schema = baseline.get("schema_version")
    if base_schema != SCHEMA_VERSION:
        return _skip(
            name,
            f"baseline schema_version {base_schema!r} != current "
            f"{SCHEMA_VERSION} (refresh the baseline)",
        )
    if baseline.get("kind") != current.get("kind"):
        return _skip(
            name,
            f"kind mismatch: baseline {baseline.get('kind')!r} vs current "
            f"{current.get('kind')!r}",
        )
    if baseline.get("kind") != "perf":
        return _skip(name, f"kind {baseline.get('kind')!r} is not gated")
    if baseline.get("scale") != current.get("scale"):
        return _skip(
            name,
            f"scale mismatch: baseline {baseline.get('scale')} vs current "
            f"{current.get('scale')} (set REPRO_SCALE to the baseline's "
            "scale or refresh)",
        )
    if baseline.get("params") != current.get("params"):
        return _skip(name, "benchmark params differ from the baseline's")

    notes: List[str] = []
    status = "pass"

    def escalate(to: str) -> None:
        nonlocal status
        if _SEVERITY[to] > _SEVERITY[status]:
            status = to

    # ---- signal 1: exact counters -----------------------------------
    base_counters = dict(baseline.get("counters") or {})
    cur_counters = dict(current.get("counters") or {})
    diffs: List[CounterDiff] = []
    for key in sorted(set(base_counters) | set(cur_counters)):
        b = base_counters.get(key)
        c = cur_counters.get(key)
        if b == c:
            continue
        diffs.append(CounterDiff(counter=key, baseline=b, current=c))
    for diff in diffs:
        if diff.regressed:
            escalate("fail")
            notes.append(
                f"counter regression: {diff.counter} "
                f"{diff.baseline} -> {diff.current} (more work per run)"
            )
        elif diff.baseline is not None and diff.current is not None:
            escalate("warn")
            notes.append(
                f"counter improved: {diff.counter} "
                f"{diff.baseline} -> {diff.current} (refresh the baseline "
                "so the gain is locked in)"
            )
        else:
            escalate("warn")
            notes.append(
                f"counter set changed: {diff.counter} "
                f"{diff.baseline} -> {diff.current} (refresh the baseline)"
            )

    # ---- signal 2: IQR-thresholded wall time ------------------------
    comparison_fields: Dict[str, object] = {}
    base_median = _median(baseline)
    cur_median = _median(current)
    same_machine = _without_kernel_release(
        baseline.get("machine")
    ) == _without_kernel_release(current.get("machine"))
    if base_median is None or cur_median is None:
        notes.append("timing not compared: missing timing stats")
    elif not same_machine:
        escalate("warn")
        notes.append(
            "machine fingerprint differs from the baseline's; wall time "
            "not compared (counters still gate exactly)"
        )
        comparison_fields = {
            "baseline_median_s": base_median,
            "current_median_s": cur_median,
        }
    else:
        iqr = float((baseline.get("timing") or {}).get("iqr_s", 0.0))
        threshold = base_median + max(iqr_scale * iqr, rel_floor * base_median)
        comparison_fields = {
            "baseline_median_s": base_median,
            "current_median_s": cur_median,
            "time_threshold_s": threshold,
            "time_compared": True,
        }
        if cur_median > threshold:
            escalate("warn")
            notes.append(
                f"wall-time drift: median {cur_median * 1e3:.2f} ms exceeds "
                f"threshold {threshold * 1e3:.2f} ms (baseline "
                f"{base_median * 1e3:.2f} ms, iqr {iqr * 1e3:.2f} ms) — "
                "warning only; trust the counters for causality"
            )

    if status == "pass":
        notes.append("counters exact-match; wall time within threshold"
                     if comparison_fields.get("time_compared")
                     else "counters exact-match")
    return Comparison(
        name=name,
        status=status,
        notes=tuple(notes),
        counter_diffs=tuple(diffs),
        **comparison_fields,  # type: ignore[arg-type]
    )


def compare_dirs(
    results_dir: Union[str, Path],
    baselines_dir: Union[str, Path],
    iqr_scale: float = IQR_SCALE,
    rel_floor: float = REL_FLOOR,
) -> List[Comparison]:
    """Compare every result in ``results_dir`` against ``baselines_dir``.

    Results drive the iteration: a baseline without a fresh result is
    reported as a skip (the benchmark was removed or not run), and a
    result without a baseline skips with a "commit one" hint.
    """
    results = load_baseline_dir(results_dir)
    baselines = load_baseline_dir(baselines_dir)
    out: List[Comparison] = []
    for name in sorted(results):
        out.append(
            compare_doc(
                results[name],
                baselines.get(name),
                iqr_scale=iqr_scale,
                rel_floor=rel_floor,
            )
        )
    for name in sorted(set(baselines) - set(results)):
        if baselines[name].get("kind") != "perf":
            continue
        out.append(
            _skip(name, "baseline exists but no fresh result was produced")
        )
    return out


def worst_status(comparisons: List[Comparison]) -> str:
    """The most severe status across ``comparisons`` (``pass`` if empty)."""
    worst = "pass"
    for comparison in comparisons:
        if _SEVERITY[comparison.status] > _SEVERITY[worst]:
            worst = comparison.status
    return worst
