"""Tests for the priority-ordered compile queue."""

import dataclasses
import functools

import pytest

from repro.core import FunctionProfile, OCSPInstance, lower_bound
from repro.vm.jikes import JikesScheme
from repro.vm.costbenefit import EstimatedModel, OracleModel
from repro.vm.priorityqueue import PriorityRuntimeSimulator, run_with_policy
from repro.vm.runtime import RuntimeRunResult, RuntimeSimulator
from repro.vm.v8 import V8Scheme
from repro.workloads import dacapo


def honest_oracle(instance):
    return OracleModel(
        instance, hotness_optimism=1.0, hotness_sigma=0.0, hotness_floor=0.0
    )


class TestFifoEquivalence:
    """With the FIFO policy, the priority simulator must agree exactly
    with the greedy FIFO simulator."""

    def test_v8_hand_case(self):
        profiles = {"a": FunctionProfile("a", (2.0, 6.0), (5.0, 1.0))}
        inst = OCSPInstance(profiles, ("a",) * 4, name="pq")
        fifo = run_with_policy(inst, V8Scheme(), policy="fifo")
        assert fifo.makespan == 18.0
        assert fifo.calls_at_level == {0: 3, 1: 1}

    def test_matches_runtime_simulator(self, small_synthetic):
        scheme = JikesScheme(honest_oracle(small_synthetic))
        fifo_greedy = RuntimeSimulator(
            small_synthetic, scheme, sample_period=5.0
        ).run()
        scheme2 = JikesScheme(honest_oracle(small_synthetic))
        fifo_event = run_with_policy(
            small_synthetic, scheme2, policy="fifo", sample_period=5.0
        )
        assert_same_run(fifo_event, fifo_greedy)

    def test_matches_with_two_threads(self, small_synthetic):
        scheme = JikesScheme(honest_oracle(small_synthetic))
        greedy = RuntimeSimulator(
            small_synthetic, scheme, compile_threads=2, sample_period=5.0
        ).run()
        event = run_with_policy(
            small_synthetic,
            JikesScheme(honest_oracle(small_synthetic)),
            policy="fifo",
            compile_threads=2,
            sample_period=5.0,
        )
        assert_same_run(event, greedy)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("scheme", ["jikes", "v8"])
    @pytest.mark.parametrize("name", sorted(dacapo.BENCHMARKS))
    def test_matches_on_the_presets(self, name, scheme, threads):
        instance = preset(name)

        def make_scheme():
            if scheme == "jikes":
                return JikesScheme(EstimatedModel(instance, seed=0))
            return V8Scheme()

        greedy = RuntimeSimulator(
            instance, make_scheme(), compile_threads=threads
        ).run()
        event = run_with_policy(
            instance, make_scheme(), policy="fifo", compile_threads=threads
        )
        assert_same_run(event, greedy)


@functools.lru_cache(maxsize=None)
def preset(name):
    return dacapo.load(name, scale=0.002)


def assert_same_run(event, greedy):
    """Every result field is equal, floats bit for bit."""
    for field in dataclasses.fields(RuntimeRunResult):
        assert getattr(event, field.name) == getattr(greedy, field.name), field.name


class _ScriptedScheme:
    """Deliberately creates queue contention: while the thread grinds
    hog's long recompile, warm's recompile and fresh's blocking first
    compile both queue up."""

    def initial_level(self, fname):
        return 0

    def on_call_start(self, runtime, fname, invocation, time):
        if fname == "hog" and invocation == 2:
            runtime.enqueue("hog", 1, time)
        if fname == "hog" and invocation == 3:
            runtime.enqueue("warm", 1, time)

    def on_sample(self, runtime, fname, k, time):
        pass


def _contention_instance():
    profiles = {
        "hog": FunctionProfile("hog", (1.0, 50.0), (5.0, 1.0)),
        "warm": FunctionProfile("warm", (1.0, 20.0), (5.0, 4.0)),
        "fresh": FunctionProfile("fresh", (4.0,), (5.0,)),
    }
    calls = ("hog", "warm", "hog", "hog", "fresh")
    return OCSPInstance(profiles, calls, name="contention")


class TestPriorityPolicies:
    def test_first_compile_jumps_the_queue(self):
        """With warm's recompile and fresh's first compile both queued
        behind hog's 50-unit recompile, FIFO serves the recompile first
        (fresh stalls); the first_compiles policy lets fresh jump."""
        inst = _contention_instance()
        fifo = run_with_policy(inst, _ScriptedScheme(), policy="fifo")
        prio = run_with_policy(inst, _ScriptedScheme(), policy="first_compiles")
        # Thread busy with hog1 [12,62].  Pending at 62: warm1 (arrived
        # 17), fresh0 (arrived 22).  FIFO: warm1 [62,82], fresh0
        # [82,86], exec fresh [86,91].  Priority: fresh0 [62,66], exec
        # fresh [66,71].
        assert fifo.makespan == 91.0
        assert prio.makespan == 71.0

    def test_dispatch_order_recorded(self):
        inst = _contention_instance()
        prio = run_with_policy(inst, _ScriptedScheme(), policy="first_compiles")
        tasks = [(t.function, t.level) for t in prio.schedule]
        assert tasks == [
            ("hog", 0), ("warm", 0), ("hog", 1), ("fresh", 0), ("warm", 1),
        ]

    def test_schedules_valid(self, small_synthetic):
        for policy in ("fifo", "first_compiles", "hotness"):
            result = run_with_policy(
                small_synthetic,
                JikesScheme(honest_oracle(small_synthetic)),
                policy=policy,
                sample_period=5.0,
            )
            result.schedule.validate(small_synthetic)
            assert result.makespan >= lower_bound(small_synthetic) - 1e-9
            assert result.makespan == pytest.approx(
                result.total_exec_time + result.total_bubble_time
            )

    def test_priority_never_delays_first_compiles(self, small_synthetic):
        """first_compiles policy: make-span should not exceed FIFO's by
        more than noise on this workload (first compiles dominate)."""
        fifo = run_with_policy(
            small_synthetic,
            JikesScheme(honest_oracle(small_synthetic)),
            policy="fifo",
            sample_period=5.0,
        )
        prio = run_with_policy(
            small_synthetic,
            JikesScheme(honest_oracle(small_synthetic)),
            policy="first_compiles",
            sample_period=5.0,
        )
        assert prio.makespan <= fifo.makespan * 1.05

    def test_bad_parameters(self, small_synthetic):
        with pytest.raises(ValueError):
            PriorityRuntimeSimulator(small_synthetic, V8Scheme(), policy="lifo")
        with pytest.raises(ValueError):
            PriorityRuntimeSimulator(
                small_synthetic, V8Scheme(), compile_threads=0
            )
        with pytest.raises(ValueError):
            PriorityRuntimeSimulator(
                small_synthetic, V8Scheme(), sample_period=0.0
            )

    def test_enqueue_validates_level(self, small_synthetic):
        sim = PriorityRuntimeSimulator(small_synthetic, V8Scheme())
        with pytest.raises(ValueError):
            sim.enqueue(small_synthetic.called_functions[0], 99, 0.0)
