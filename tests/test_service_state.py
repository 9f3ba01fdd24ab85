"""The decision engine: policy, tenancy, cache, and the fault chain.

The service's promotion test must agree with the Jikes cost/benefit
model, the one degradation chain (:meth:`FaultInjector.degrade`) must
keep the properties its callers rely on, a zero-rate fault spec must be
bitwise indistinguishable from no spec at all, and the shared decision
cache must never change a decision *or* a fault summary.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionProfile, OCSPInstance
from repro.faults import parse_fault_spec
from repro.faults.injector import FaultInjector
from repro.observability import MetricsRegistry
from repro.service import (
    DecisionCache,
    DecisionEngine,
    ServicePolicy,
    promotion_level,
)
from repro.vm.costbenefit import OracleModel

PROFILES = {
    "hot": FunctionProfile("hot", (1.0, 5.0, 20.0), (10.0, 3.0, 1.0)),
    "cold": FunctionProfile("cold", (1.0, 8.0), (2.0, 1.9)),
    "flat": FunctionProfile("flat", (1.0, 2.0), (1.0, 1.0)),
}


def _events(profile, calls, tenant="t0"):
    out = [
        {
            "op": "profile",
            "tenant": tenant,
            "function": profile.name,
            "compile_times": list(profile.compile_times),
            "exec_times": list(profile.exec_times),
        }
    ]
    for seq in range(calls):
        out.append(
            {
                "op": "call",
                "tenant": tenant,
                "function": profile.name,
                "seq": seq,
            }
        )
    return out


def _drain(engine, events):
    return [r for r in map(engine.observe, events) if r is not None]


# ---------------------------------------------------------------------------
# promotion_level ≡ CostBenefitModel.recompilation_level
# ---------------------------------------------------------------------------
class TestPromotionLevel:
    def test_matches_oracle_model_on_a_grid(self):
        instance = OCSPInstance(PROFILES, tuple(PROFILES) * 4, name="grid")
        model = OracleModel(
            instance, hotness_optimism=1.0, hotness_sigma=0.0,
            hotness_floor=0.0,
        )
        for fname, profile in PROFILES.items():
            for current in range(profile.num_levels):
                for k in (0.0, 0.5, 1.0, 3.0, 10.0, 1e4):
                    assert promotion_level(profile, current, k) == (
                        model.recompilation_level(fname, current, k)
                    ), (fname, current, k)

    def test_top_level_never_promotes(self):
        assert promotion_level(PROFILES["hot"], 2, 1e9) is None

    def test_flat_profile_never_promotes(self):
        # No level is faster, so no future is hot enough.
        assert promotion_level(PROFILES["flat"], 0, 1e9) is None


# ---------------------------------------------------------------------------
# Tenancy: LRU budgets
# ---------------------------------------------------------------------------
class TestTenantEviction:
    def test_cold_functions_are_evicted_and_restart(self):
        metrics = MetricsRegistry()
        engine = DecisionEngine(
            policy=ServicePolicy(max_functions=2), metrics=metrics
        )
        profiles = [
            FunctionProfile(f"f{i}", (1.0,), (1.0,)) for i in range(3)
        ]
        for p in profiles:
            _drain(engine, _events(p, calls=1))
        # f0 was coldest and fell off; a new call must re-profile it.
        with pytest.raises(ValueError, match="unregistered function"):
            engine.observe({"op": "call", "tenant": "t0", "function": "f0"})
        assert metrics.counter("service.evictions.functions").value == 1

    def test_tenant_budget_is_per_shard_lru(self):
        metrics = MetricsRegistry()
        engine = DecisionEngine(
            policy=ServicePolicy(max_tenants=1), shards=1, metrics=metrics
        )
        p = PROFILES["hot"]
        _drain(engine, _events(p, calls=1, tenant="a"))
        _drain(engine, _events(p, calls=1, tenant="b"))
        assert metrics.counter("service.evictions.tenants").value == 1
        assert sum(len(s) for s in engine.shards) == 1

    def test_unknown_op_and_missing_tenant_raise(self):
        engine = DecisionEngine()
        with pytest.raises(ValueError, match="unknown event op"):
            engine.observe({"op": "mystery", "tenant": "t0"})
        with pytest.raises(ValueError, match="missing tenant"):
            engine.observe({"op": "call", "function": "f"})


# ---------------------------------------------------------------------------
# Satellite 3: zero-rate specs are bitwise fault-free on the service path
# ---------------------------------------------------------------------------
class TestZeroRateSpec:
    def test_normalized_to_no_injector_like_the_runtime(self):
        engine = DecisionEngine(faults="compile_fail=0.0,seed=7")
        assert engine.faults is None

    def test_decision_stream_is_bitwise_equal_to_fault_free(self):
        events = _events(PROFILES["hot"], calls=50)
        clean = _drain(DecisionEngine(), list(events))
        zeroed = _drain(
            DecisionEngine(faults="compile_fail=0.0,stall=0.0,seed=7"),
            list(events),
        )
        assert json.dumps(clean, sort_keys=True) == json.dumps(
            zeroed, sort_keys=True
        )

    def test_zero_rate_emits_no_fault_metrics(self):
        metrics = MetricsRegistry()
        engine = DecisionEngine(
            faults="compile_fail=0.0,seed=7", metrics=metrics
        )
        _drain(engine, _events(PROFILES["hot"], calls=50))
        assert not [
            name for name in metrics.snapshot() if name.startswith("faults.")
        ]


# ---------------------------------------------------------------------------
# Satellite 3: fault tallies flow on the service path
# ---------------------------------------------------------------------------
SPEC = "compile_fail=0.3,retries=1,seed=5"


class TestServiceFaultPath:
    def test_tallies_reach_metrics_and_summary(self):
        metrics = MetricsRegistry()
        engine = DecisionEngine(faults=SPEC, metrics=metrics)
        _drain(engine, _events(PROFILES["hot"], calls=200))
        summary = engine.summary()["faults"]
        assert summary["compile_failures"] > 0
        snap = metrics.snapshot()
        assert (
            snap["faults.compile_failures"] == summary["compile_failures"]
        )
        assert snap["faults.retries"] == summary["retries"]

    def test_deterministic_across_engines(self):
        events = _events(PROFILES["hot"], calls=200)
        a = DecisionEngine(faults=SPEC)
        b = DecisionEngine(faults=SPEC)
        ra = _drain(a, list(events))
        rb = _drain(b, list(events))
        assert ra == rb
        assert a.summary() == b.summary()

    def test_first_install_is_guaranteed_at_level_zero(self):
        # must_install + retries exhausted + level 0 is the fail-safe:
        # every function ends up installed, never stuck uncompiled.
        engine = DecisionEngine(faults="compile_fail=1.0,retries=2,seed=0")
        records = _drain(engine, _events(PROFILES["hot"], calls=3))
        first = records[0]
        assert first["action"] == "compile"
        assert first["level"] == 0
        assert first["attempts"] == 3  # 2 failed tries + the fail-safe
        assert engine.summary()["faults"]["forced_installs"] == 1


# ---------------------------------------------------------------------------
# FaultInjector.degrade: the one degradation chain
# ---------------------------------------------------------------------------
def _reference_chain(injector, compile_times, fname, level, installed):
    """An independent transcription of the degradation chain, the
    oracle :meth:`FaultInjector.degrade` must match draw for draw."""
    spec = injector.spec
    must_install = installed < 0
    attempts = []
    lvl, attempt = level, 1
    while True:
        if not must_install and lvl <= installed:
            injector.note_fallback()
            return attempts, True
        c = compile_times[lvl]
        factor = injector.compile_time_factor(fname, lvl, attempt)
        if factor != 1.0:
            c *= factor
        guaranteed = must_install and attempt > spec.retries and lvl == 0
        failed = not guaranteed and injector.compile_fails(
            fname, lvl, attempt
        )
        attempts.append((lvl, attempt, c, failed))
        if not failed:
            if must_install and attempt > spec.retries:
                injector.note_forced_install()
            return attempts, False
        injector.note_wasted(c)
        if attempt > spec.retries and not must_install:
            injector.note_fallback()
            return attempts, False
        if attempt <= spec.retries:
            injector.note_retry()
            lvl = max(0, lvl - 1)
        else:
            lvl = 0
        attempt += 1


def _check_chain(attempts, below, level, installed, retries):
    """What the chain's callers rely on."""
    must_install = installed < 0
    if attempts:
        assert attempts[0][:2] == (level, 1)
    # Only the last attempt can install.
    assert all(failed for *_, failed in attempts[:-1])
    # A retry steps one level down, clamped at 0; past the retry
    # budget only a first encounter goes on, to the level-0 fail-safe.
    for (lvl, attempt, _, _), (nxt, nxt_attempt, _, _) in zip(
        attempts, attempts[1:]
    ):
        assert nxt_attempt == attempt + 1
        if attempt <= retries:
            assert nxt == max(0, lvl - 1)
        else:
            assert must_install and nxt == 0
    if must_install:
        # A first encounter always ends installed.
        assert attempts and not attempts[-1][3] and not below
    if below:
        # Set only when the next level is at or below the installed tier.
        if attempts:
            lvl, attempt, _, _ = attempts[-1]
            nxt = max(0, lvl - 1) if attempt <= retries else 0
        else:
            nxt = level
        assert 0 <= nxt <= installed
    elif attempts[-1][3]:
        # Out of retries: the function keeps its installed tier.
        assert attempts[-1][1] > retries and not must_install


@pytest.mark.parametrize(
    "spec",
    [
        "compile_fail=0.5,retries=0,seed=1",
        "compile_fail=0.5,retries=2,seed=2",
        "compile_fail=1.0,retries=1,seed=3",
        "compile_fail=0.3,stall=0.4,stall_factor=3.0,retries=2,seed=4",
    ],
)
@pytest.mark.parametrize("must_install,achieved", [(True, -1), (False, 0)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_degrade_matches_runtime_chain(spec, must_install, achieved, data):
    """:meth:`FaultInjector.degrade` against :func:`_reference_chain`.

    Each case keeps its seed and stall factor and draws the rest: a
    spec with 0-3 retries and its own fail and stall rates, then a run
    of requests on profiles of 1-4 levels, each at a requested level
    over an installed tier (none on a first encounter).  Unrelated
    draws between the requests go to the chain's injector only: its
    verdicts are keyed, so they must not move.
    """
    spec = replace(
        parse_fault_spec(spec),
        retries=data.draw(st.integers(0, 3), label="retries"),
        compile_fail=data.draw(
            st.sampled_from([0.0, 0.3, 0.5, 1.0]), label="compile_fail"
        ),
        stall=data.draw(st.sampled_from([0.0, 0.4, 1.0]), label="stall"),
    )
    chain, oracle = FaultInjector(spec), FaultInjector(spec)
    for _ in range(data.draw(st.integers(1, 6), label="requests")):
        levels = data.draw(st.integers(1, 4), label="levels")
        compile_times = data.draw(
            st.lists(
                st.floats(0.5, 500.0), min_size=levels, max_size=levels
            ),
            label="compile_times",
        )
        fname = data.draw(st.sampled_from(["hot", "other", "f2"]))
        level = data.draw(st.integers(0, levels - 1), label="level")
        installed = (
            -1
            if must_install
            else data.draw(st.integers(achieved, levels - 1), label="installed")
        )
        for k in range(data.draw(st.integers(0, 3), label="unrelated")):
            chain.compile_fails("unrelated", k, 1)
            chain.compile_time_factor("unrelated", k, 1)
        before = dict(chain.tally), chain.wasted_compile_time
        ref_before = dict(oracle.tally), oracle.wasted_compile_time

        attempts, below = chain.degrade(fname, compile_times, level, installed)
        expected = _reference_chain(
            oracle, compile_times, fname, level, installed
        )
        assert (attempts, below) == expected
        assert {
            key: chain.tally[key] - before[0][key] for key in chain.tally
        } == {key: oracle.tally[key] - ref_before[0][key] for key in oracle.tally}
        assert (
            chain.wasted_compile_time - before[1]
            == oracle.wasted_compile_time - ref_before[1]
        )
        _check_chain(attempts, below, level, installed, spec.retries)
        for lvl, _, c, _ in attempts:
            assert c in (compile_times[lvl], compile_times[lvl] * spec.stall_factor)


# ---------------------------------------------------------------------------
# The shared decision cache
# ---------------------------------------------------------------------------
def _strip(records):
    """The tenant-independent decision columns."""
    return [
        {k: r[k] for k in ("call", "action", "level", "attempts")}
        for r in records
    ]


class TestDecisionCache:
    def test_cross_tenant_hits_and_identical_decisions(self):
        cache = DecisionCache()
        engine = DecisionEngine(faults=SPEC, cache=cache)
        a = _drain(engine, _events(PROFILES["hot"], calls=100, tenant="a"))
        hits_before = cache.hits
        b = _drain(engine, _events(PROFILES["hot"], calls=100, tenant="b"))
        assert cache.hits > hits_before
        assert _strip(a) == _strip(b)

    def test_cache_replays_fault_tallies_bitwise(self):
        events = _events(PROFILES["hot"], calls=100, tenant="a") + _events(
            PROFILES["hot"], calls=100, tenant="b"
        )
        cached = DecisionEngine(faults=SPEC, cache=DecisionCache())
        uncached = DecisionEngine(faults=SPEC)
        rc = _drain(cached, list(events))
        ru = _drain(uncached, list(events))
        assert cached.cache.hits > 0
        assert _strip(rc) == _strip(ru)
        # the whole point: summaries including the wasted-time float
        # are bitwise identical whether or not the cache served
        assert cached.summary()["faults"] == uncached.summary()["faults"]

    def test_lru_bound_holds(self):
        cache = DecisionCache(max_entries=4)
        engine = DecisionEngine(cache=cache)
        for i in range(10):
            _drain(
                engine,
                _events(
                    FunctionProfile(f"f{i}", (1.0, 2.0), (5.0, 1.0)),
                    calls=3,
                ),
            )
        assert len(cache.entries) <= 4

    def test_replay_tally_rejects_unknown_keys(self):
        injector = FaultInjector("compile_fail=0.5,seed=0")
        with pytest.raises(KeyError):
            injector.replay_tally({"not_a_tally": 1})
