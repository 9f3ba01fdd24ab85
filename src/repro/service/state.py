"""The deterministic decision core behind ``repro serve``.

Everything that decides lives here, synchronously, with no clock and no
I/O: the asyncio server (:mod:`repro.service.server`) and the replay
driver (:mod:`repro.service.driver`) are thin transports around
:class:`DecisionEngine`.  That split is what makes the service
bit-reproducible — a decision depends only on the owning tenant's event
order (fixed by the event file), the policy knobs, and the fault spec's
seed, never on batch boundaries, socket interleaving, or wall time.

The pieces:

* :func:`promotion_level` — the count-based promotion test, Jikes RVM's
  cost/benefit inequality (``recompile at m iff e_m*k + c_m < e_l*k``,
  :mod:`repro.vm.costbenefit`), applied to the calls a function has
  already received as the predictor of its future;
* :class:`TenantState` — one tenant's hotness shard: per-function call
  counts and installed levels with LRU eviction of cold functions;
* :class:`DecisionEngine` — sharded tenant map, the shared cross-tenant
  decision cache, fault-injected degradation, and ``service.*``
  metrics/trace instrumentation;
* :class:`DecisionCache` — memoized decision outcomes keyed by a
  content fingerprint of *everything* a decision depends on.  A hit
  replays the chain's fault tallies into the injector, so summaries are
  bitwise identical whether or not the cache served.

A compile decision runs the one degradation chain,
:meth:`repro.faults.FaultInjector.degrade`, so a fault verdict is
identical no matter which path asks, and a null spec means no injector
(:func:`repro.faults.active_injector`), so zero-rate runs are bitwise
equal to fault-free runs.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.model import FunctionProfile
from ..faults.injector import FaultInjector, active_injector
from ..faults.spec import FaultSpec
from ..store.fingerprint import canonical_encode
from ..vm.costbenefit import promotion_level

__all__ = [
    "ServicePolicy",
    "promotion_level",
    "FunctionState",
    "TenantState",
    "DecisionCache",
    "DecisionEngine",
]


@dataclass(frozen=True)
class ServicePolicy:
    """Knobs of the online decision policy.

    Attributes:
        optimism: future-calls multiplier — a function seen ``k`` times
            is predicted to run ``k * optimism`` more (the "past
            predicts future" estimator Jikes RVM uses, Section 6.2.1).
        max_functions: per-tenant hotness-state budget; the coldest
            (least recently called) functions are evicted beyond it.
        max_tenants: per-shard tenant budget; least recently active
            tenants are evicted beyond it.
    """

    optimism: float = 1.0
    max_functions: int = 4096
    max_tenants: int = 1024

    def knobs(self) -> Tuple[float, int, int]:
        return (self.optimism, self.max_functions, self.max_tenants)


class FunctionState:
    """One function's hotness state inside one tenant."""

    __slots__ = ("profile", "calls", "installed")

    def __init__(self, profile: FunctionProfile) -> None:
        self.profile = profile
        self.calls = 0
        self.installed = -1  # nothing compiled yet


class TenantState:
    """One tenant's shard: profiles, call counts, installed levels.

    Functions are kept in LRU order (most recently called last); when
    the tenant exceeds its ``max_functions`` budget the coldest entries
    are dropped — their hotness is forgotten, and a re-encountered
    function restarts from scratch (deterministically: eviction depends
    only on the tenant's own event order).
    """

    __slots__ = ("tenant", "shard", "functions")

    def __init__(self, tenant: str, shard: int = 0) -> None:
        self.tenant = tenant
        self.shard = shard
        self.functions: "OrderedDict[str, FunctionState]" = OrderedDict()

    def register(self, fname: str, profile: FunctionProfile) -> None:
        state = self.functions.get(fname)
        if state is None:
            self.functions[fname] = FunctionState(profile)
        else:
            state.profile = profile
        self.functions.move_to_end(fname)

    def evict_cold(self, max_functions: int) -> int:
        evicted = 0
        while len(self.functions) > max_functions:
            self.functions.popitem(last=False)
            evicted += 1
        return evicted


class DecisionCache:
    """Shared cross-tenant memo of decision outcomes.

    The key fingerprints everything a decision depends on — profile
    content, function name (fault draws are keyed by it), call count,
    installed level, policy knobs, and the canonical fault spec — so a
    hit is exact, not heuristic.  The value carries the decision record
    *and* the chain's fault-tally delta; serving from cache replays the
    delta into the injector, keeping fault summaries bitwise identical
    with and without the cache.
    """

    __slots__ = ("max_entries", "entries", "hits", "misses")

    def __init__(self, max_entries: int = 65536) -> None:
        self.max_entries = max_entries
        self.entries: "OrderedDict[str, Tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)


FaultsLike = Union[FaultInjector, FaultSpec, str, None]


class DecisionEngine:
    """Sharded, fault-injectable, cache-backed decision state.

    Args:
        policy: the :class:`ServicePolicy` knobs.
        shards: tenant-map shard count (a deterministic hash of the
            tenant id picks the shard; sharding is a scaling structure
            and never changes a decision).
        faults: optional injector/spec.  A null spec means no
            injector, so zero-rate runs take the untouched clean path
            and stay bitwise equal to fault-free runs.
        cache: optional shared :class:`DecisionCache`.
        metrics: optional :class:`repro.observability.MetricsRegistry`;
            receives ``service.*`` counters and, through the injector,
            the ``faults.*`` tallies.
        tracer: optional :class:`repro.observability.Tracer`; decisions
            and fault events become instants on the virtual timeline
            (the global event sequence number is the clock).
        telemetry: optional
            :class:`repro.telemetry.ServiceTelemetry` — the *wall-clock*
            plane.  Strictly write-only from the engine's point of view:
            decisions are reported to it, nothing is ever read back, so
            attaching it cannot change a decision or a journal byte.
    """

    def __init__(
        self,
        policy: Optional[ServicePolicy] = None,
        shards: int = 8,
        faults: FaultsLike = None,
        cache: Optional[DecisionCache] = None,
        metrics=None,
        tracer=None,
        telemetry=None,
    ) -> None:
        self.policy = policy or ServicePolicy()
        if shards < 1:
            raise ValueError("shards must be >= 1")
        # Each shard maps tenant ids to states in LRU order (most
        # recently active last).
        self.shards: List["OrderedDict[str, TenantState]"] = [
            OrderedDict() for _ in range(shards)
        ]
        self.faults = active_injector(faults, metrics=metrics)
        self._spec_key = (
            self.faults.spec.canonical() if self.faults is not None else ""
        )
        self.cache = cache
        self.metrics = metrics
        self.tracer = tracer
        self.telemetry = telemetry
        self.decisions = 0
        self.events = 0

    # ------------------------------------------------------------------
    # Tenant lookup / eviction
    # ------------------------------------------------------------------
    def _shard_of(self, tenant: str) -> int:
        digest = hashlib.sha256(tenant.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % len(self.shards)

    def tenant_state(self, tenant: str) -> TenantState:
        index = self._shard_of(tenant)
        shard = self.shards[index]
        state = shard.get(tenant)
        if state is None:
            state = shard[tenant] = TenantState(tenant, index)
            self._count("service.tenants.created")
        else:
            shard.move_to_end(tenant)
        while len(shard) > self.policy.max_tenants:
            shard.popitem(last=False)
            self._count("service.evictions.tenants")
        return state

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _instant(self, name: str, seq: int, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                name, "service", float(seq), category="service", args=args
            )

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def observe(self, event: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Apply one event; returns the decision record for a call.

        ``profile`` events register/replace a function's cost table and
        return ``None``; ``call`` events bump the hotness state and
        always return a decision record (``action`` of ``none``,
        ``compile``, or ``fallback``).
        """
        op = event.get("op")
        tenant = str(event.get("tenant", ""))
        if not tenant:
            raise ValueError("event missing tenant")
        self.events += 1
        self._count("service.events")
        state = self.tenant_state(tenant)
        if op == "profile":
            profile = FunctionProfile(
                name=str(event["function"]),
                compile_times=tuple(
                    float(x) for x in event["compile_times"]
                ),
                exec_times=tuple(float(x) for x in event["exec_times"]),
            )
            state.register(profile.name, profile)
            dropped = state.evict_cold(self.policy.max_functions)
            if dropped:
                self._count("service.evictions.functions", dropped)
            self._count("service.profiles")
            return None
        if op == "call":
            return self._decide(state, event)
        raise ValueError(f"unknown event op {op!r}")

    # ------------------------------------------------------------------
    # The decision itself
    # ------------------------------------------------------------------
    def _decide(
        self, state: TenantState, event: Dict[str, object]
    ) -> Dict[str, object]:
        fname = str(event["function"])
        seq = int(event.get("seq", self.events))
        fstate = state.functions.get(fname)
        if fstate is None:
            raise ValueError(
                f"call for unregistered function {fname!r} "
                f"(tenant {state.tenant!r} must send a profile first)"
            )
        state.functions.move_to_end(fname)
        fstate.calls += 1

        action, level, attempts = self._resolve(state, fname, fstate)

        self.decisions += 1
        self._count("service.decisions")
        if action == "compile":
            self._count("service.compiles")
            fstate.installed = level
        # The correlation id is deterministic whether supplied by the
        # client or derived here, so the journal bytes are identical
        # with telemetry on or off.
        corr = event.get("corr")
        record = {
            "tenant": state.tenant,
            "seq": seq,
            "function": fname,
            "call": fstate.calls,
            "action": action,
            "level": level,
            "attempts": attempts,
            "corr": str(corr) if corr is not None else f"{state.tenant}.{seq}",
        }
        self._instant(
            f"decision {fname} {action}",
            seq,
            tenant=state.tenant,
            function=fname,
            action=action,
            level=level,
        )
        if self.telemetry is not None:
            tally = dict(self.faults.tally) if self.faults is not None else None
            self.telemetry.note_decision(event, record, state.shard, tally)
        return record

    def _resolve(
        self, state: TenantState, fname: str, fstate: FunctionState
    ) -> Tuple[str, int, int]:
        """(action, level, attempts) for one call, cache- and
        fault-aware.  Pure in everything but tallies."""
        profile = fstate.profile
        must_install = fstate.installed < 0
        if must_install:
            target: Optional[int] = 0
        else:
            future = fstate.calls * self.policy.optimism
            target = promotion_level(profile, fstate.installed, future)
        if target is None:
            return "none", fstate.installed, 0

        if self.cache is not None:
            key = self._cache_key(fname, fstate, target)
            hit = self.cache.get(key)
            self._count(
                "service.cache.hits" if hit is not None else
                "service.cache.misses"
            )
            if self.telemetry is not None:
                self.telemetry.note_cache(
                    state.tenant, state.shard, hit is not None
                )
            if hit is not None:
                action, level, attempts, delta, wasted = hit
                if self.faults is not None:
                    self.faults.replay_tally(delta, wasted)
                return action, level, attempts
        outcome = self._degrade(fname, profile, target, fstate.installed)
        if self.cache is not None:
            self.cache.put(key, outcome)
        action, level, attempts, _, _ = outcome
        return action, level, attempts

    def _cache_key(
        self, fname: str, fstate: FunctionState, target: int
    ) -> str:
        profile = fstate.profile
        payload = canonical_encode(
            {
                "kind": "service-decision",
                "function": fname,
                "compile_times": list(profile.compile_times),
                "exec_times": list(profile.exec_times),
                "calls": fstate.calls,
                "installed": fstate.installed,
                "target": target,
                "policy": list(self.policy.knobs()),
                "faults": self._spec_key,
            }
        )
        return hashlib.sha256(payload).hexdigest()

    def _degrade(
        self,
        fname: str,
        profile: FunctionProfile,
        level: int,
        installed: int,
    ) -> Tuple[str, int, int, Dict[str, int], float]:
        """One compile decision through the degradation chain
        (:meth:`FaultInjector.degrade`), with its fault instants.

        Returns the resolved ``(action, level, attempts, tally-delta,
        wasted-delta)``; the deltas are a before/after diff of the
        injector's tally so a cache hit can replay *exactly* what the
        chain counted — including the failures and stalls the injector
        tallies internally.
        """
        faults = self.faults
        if faults is None:
            return "compile", level, 1, {}, 0.0
        before = dict(faults.tally)
        wasted_before = faults.wasted_compile_time
        attempts, below = faults.degrade(fname, profile.compile_times, level, installed)
        for lvl, attempt, _, failed in attempts:
            if failed:
                self._instant(
                    f"compile-fail {fname} L{lvl}",
                    self.events,
                    function=fname,
                    level=lvl,
                    attempt=attempt,
                )
        if below:
            # Degraded below what is already installed: keep running at
            # the current tier.
            self._instant(
                f"fallback {fname}",
                self.events,
                function=fname,
                kept_level=installed,
            )
        delta = {
            key: faults.tally[key] - before[key]
            for key in faults.tally
            if faults.tally[key] != before[key]
        }
        wasted = faults.wasted_compile_time - wasted_before
        if below or attempts[-1][3]:
            return "fallback", installed, len(attempts), delta, wasted
        return "compile", attempts[-1][0], len(attempts), delta, wasted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Counts for stats responses and reports (deterministic)."""
        tenants = sum(len(shard) for shard in self.shards)
        doc: Dict[str, object] = {
            "tenants": tenants,
            "events": self.events,
            "decisions": self.decisions,
            "shards": len(self.shards),
        }
        if self.cache is not None:
            doc["cache_hits"] = self.cache.hits
            doc["cache_misses"] = self.cache.misses
        if self.faults is not None:
            doc["faults"] = self.faults.summary()
        return doc
