"""Telemetry-disabled overhead of the decision engine's hot path.

The telemetry plane's contract mirrors the tracer's: "disabled means
absent".  With ``telemetry=None`` (the default everywhere) the only
added cost per decision is one ``is None`` branch at each emission
site, so the decide path must stay within ``REPRO_TELEMETRY_OVERHEAD_MAX``
(default 1.05, i.e. < 5%) of the strictly-busier telemetry-attached
path — if the disabled path is measurably *slower* than one doing
extra work, hooks have crept inside the replay loop.  The ratio is the
median of per-pair ratios over interleaved samples
(:func:`repro.perf.paired_ratio`).  The attached path takes about 1.8x
the disabled one, so the gate trips only when the disabled path loses
about that much, not at a few percent.  The committed
``BENCH_service_telemetry.json`` baseline gates the same path's
deterministic counters in the bench-smoke CI job.

The second contract checked here is the important one: the decision
log is bitwise identical with the plane attached or not, clean and
under a nonzero fault spec.

Also usable as a plain script for the CI smoke job::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.perf import paired_ratio
from repro.service import DecisionCache, DecisionEngine, generate_events
from repro.service.driver import decision_line, replay_inproc
from repro.telemetry import ServiceTelemetry

OVERHEAD_MAX = float(os.environ.get("REPRO_TELEMETRY_OVERHEAD_MAX", "1.05"))

FAULTS = "compile_fail=0.1,retries=1,seed=3"

EVENTS = generate_events(tenants=8, events=5_000, scale=0.01, seed=0)


def _engine(telemetry: bool, faults=None) -> DecisionEngine:
    return DecisionEngine(
        faults=faults,
        cache=DecisionCache(),
        telemetry=ServiceTelemetry(shards=8) if telemetry else None,
    )


def _replay(telemetry: bool, faults=None):
    records, _ = replay_inproc(EVENTS, _engine(telemetry, faults))
    return records


def measure_disabled_parity_ratio() -> float:
    """replay with telemetry=None time / telemetry-attached time.

    The attached plane does strictly more work per decision (tagged
    counters, flight ring, SLO windows), so disabled/attached above the
    limit means the disabled path itself regressed.
    """
    _replay(False)  # warm both paths so allocator effects cancel out
    _replay(True)
    return paired_ratio(lambda: _replay(False), lambda: _replay(True))


def test_telemetry_disabled_overhead_is_negligible():
    ratio = measure_disabled_parity_ratio()
    assert ratio < OVERHEAD_MAX, (
        f"decide path with telemetry disabled is {ratio:.3f}x the "
        f"telemetry-attached path (limit {OVERHEAD_MAX})"
    )


def test_telemetry_never_changes_the_log():
    for faults in (None, FAULTS):
        plain = _replay(False, faults)
        observed = _replay(True, faults)
        assert [decision_line(r) for r in observed] == [
            decision_line(r) for r in plain
        ], f"decision log changed with telemetry attached (faults={faults!r})"


def test_telemetry_observed_every_decision():
    engine = _engine(True, FAULTS)
    records, _ = replay_inproc(EVENTS, engine)
    assert engine.telemetry.flight.recorded == len(records)


def main() -> int:
    ratio = measure_disabled_parity_ratio()
    print(
        f"telemetry-disabled / telemetry-attached decide path: "
        f"{ratio:.4f}x (limit {OVERHEAD_MAX}x)"
    )
    if ratio >= OVERHEAD_MAX:
        print("FAIL: telemetry-disabled path above limit")
        return 1
    # An odd number of pairs: the inverse of the median is the median of
    # the inverse ratios, the attached path's own overhead.
    print(f"telemetry-attached overhead: {1 / ratio:.4f}x (informational)")
    test_telemetry_never_changes_the_log()
    print("decision log bitwise-identical with telemetry on/off: ok")
    test_telemetry_observed_every_decision()
    print("flight recorder saw every journaled decision: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
