"""Tests for the reactive runtime co-simulator and the Jikes/V8 schemes."""

import pytest

from repro.core import FunctionProfile, OCSPInstance
from repro.vm.costbenefit import OracleModel
from repro.vm.jikes import run_jikes
from repro.vm.runtime import RuntimeSimulator, default_sample_period
from repro.vm.v8 import V8Scheme, run_v8


def honest_oracle(instance):
    return OracleModel(
        instance, hotness_optimism=1.0, hotness_sigma=0.0, hotness_floor=0.0
    )


@pytest.fixture()
def single_function_instance():
    profiles = {"a": FunctionProfile("a", (2.0, 6.0), (5.0, 1.0))}
    return OCSPInstance(profiles, ("a",) * 6, name="single")


class TestV8Scheme:
    def test_hand_computed_timeline(self):
        profiles = {"a": FunctionProfile("a", (2.0, 6.0), (5.0, 1.0))}
        inst = OCSPInstance(profiles, ("a",) * 4, name="v8hand")
        result = run_v8(inst, sample_period=1000.0)
        # compile0 [0,2]; exec [2,7]; 2nd call enqueues high at t=7,
        # compile1 [7,13]; calls run at: L0 [2,7], L0 [7,12],
        # L0 [12,17], L1 [17,18].
        assert result.makespan == 18.0
        assert result.total_bubble_time == 2.0
        assert result.calls_at_level == {0: 3, 1: 1}

    def test_schedule_records_enqueue_order(self):
        profiles = {
            "a": FunctionProfile("a", (1.0, 2.0), (3.0, 1.0)),
            "b": FunctionProfile("b", (1.0, 2.0), (3.0, 1.0)),
        }
        inst = OCSPInstance(profiles, ("a", "b", "a", "b"), name="v8order")
        result = run_v8(inst)
        tasks = [(t.function, t.level) for t in result.schedule]
        assert tasks == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        assert list(result.enqueue_times) == sorted(result.enqueue_times)

    def test_single_call_functions_never_promoted(self):
        profiles = {"a": FunctionProfile("a", (1.0, 2.0), (3.0, 1.0))}
        inst = OCSPInstance(profiles, ("a",), name="once")
        result = run_v8(inst)
        assert [t.level for t in result.schedule] == [0]

    def test_high_level_capped_by_profile(self):
        profiles = {"a": FunctionProfile("a", (1.0,), (3.0,))}
        inst = OCSPInstance(profiles, ("a", "a"), name="onelevel")
        result = run_v8(inst)  # high level 1 does not exist: no promotion
        assert [t.level for t in result.schedule] == [0]

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            V8Scheme(low=1, high=1)


class TestJikesScheme:
    def test_hand_computed_recompilation(self, single_function_instance):
        result = run_jikes(
            single_function_instance,
            model=honest_oracle(single_function_instance),
            sample_period=5.0,
        )
        # compile0 [0,2]; execs of 5 at [2,7],[7,12],[12,17]; sampler
        # tick at 10 gives k=2 → future 2 → recompile at level 1
        # (cost 2+6 < 10); compile1 [10,16]; remaining calls [17,18],
        # [18,19],[19,20].
        assert result.makespan == 20.0
        assert result.calls_at_level == {0: 3, 1: 3}
        assert [(t.function, t.level) for t in result.schedule] == [
            ("a", 0),
            ("a", 1),
        ]

    def test_sampler_tick_count(self, single_function_instance):
        result = run_jikes(
            single_function_instance,
            model=honest_oracle(single_function_instance),
            sample_period=5.0,
        )
        # Ticks at 5, 10, 15, 20 all land inside executions.
        assert result.samples_taken == 4

    def test_no_recompilation_for_cold_run(self):
        profiles = {"a": FunctionProfile("a", (2.0, 50.0), (5.0, 4.0))}
        inst = OCSPInstance(profiles, ("a",) * 3, name="cold")
        result = run_jikes(inst, model=honest_oracle(inst), sample_period=5.0)
        assert [t.level for t in result.schedule] == [0]

    def test_default_model_used_when_none(self, single_function_instance):
        result = run_jikes(single_function_instance, sample_period=5.0)
        assert result.makespan > 0


class TestRuntimeSimulator:
    def test_first_compile_blocks_execution(self):
        profiles = {"a": FunctionProfile("a", (7.0,), (1.0,))}
        inst = OCSPInstance(profiles, ("a",), name="block")
        result = run_v8(inst)
        assert result.total_bubble_time == 7.0
        assert result.makespan == 8.0

    def test_first_request_arrives_at_call_time(self):
        # Requests are reactive: b's first compile is enqueued when b
        # is first *called*, so a second compiler thread cannot help
        # two functions whose first calls are serialized.
        profiles = {
            "a": FunctionProfile("a", (10.0,), (1.0,)),
            "b": FunctionProfile("b", (10.0,), (1.0,)),
        }
        inst = OCSPInstance(profiles, ("a", "b"), name="threads")
        one = RuntimeSimulator(inst, V8Scheme(), compile_threads=1).run()
        two = RuntimeSimulator(inst, V8Scheme(), compile_threads=2).run()
        assert one.makespan == 22.0
        assert two.makespan == 22.0
        assert list(one.enqueue_times) == [0.0, 11.0]

    def test_two_compiler_threads_overlap_recompile_with_first_compile(self):
        # a's promotion (enqueued at its 2nd call) competes with b's
        # first compile; a second thread removes the queueing delay.
        profiles = {
            "a": FunctionProfile("a", (10.0, 20.0), (1.0, 0.5)),
            "b": FunctionProfile("b", (10.0,), (1.0,)),
        }
        inst = OCSPInstance(profiles, ("a", "a", "b"), name="threads2")
        one = RuntimeSimulator(inst, V8Scheme(), compile_threads=1).run()
        two = RuntimeSimulator(inst, V8Scheme(), compile_threads=2).run()
        # 1 thread: a0 [0,10], exec [10,11]; a1 enq@11 [11,31];
        # exec a [11,12]; b enq@12, queued behind a1 → [31,41];
        # exec b [41,42].
        assert one.makespan == 42.0
        # 2 threads: a1 on thread 1 [11,31]; b on thread 0 [12,22];
        # exec b [22,23].
        assert two.makespan == 23.0

    def test_duplicate_requests_ignored(self):
        profiles = {"a": FunctionProfile("a", (1.0, 2.0), (3.0, 1.0))}
        inst = OCSPInstance(profiles, ("a",) * 5, name="dup")
        result = run_v8(inst)
        # Second invocation promotes once; later invocations must not
        # re-enqueue level 1.
        assert len(result.schedule) == 2

    def test_enqueue_validates_level(self):
        profiles = {"a": FunctionProfile("a", (1.0,), (3.0,))}
        inst = OCSPInstance(profiles, ("a",), name="lvl")
        sim = RuntimeSimulator(inst, V8Scheme(), sample_period=1.0)
        sim._thread_free = [0.0]
        with pytest.raises(ValueError):
            sim.enqueue("a", 3, 0.0)

    def test_bad_parameters(self):
        profiles = {"a": FunctionProfile("a", (1.0,), (3.0,))}
        inst = OCSPInstance(profiles, ("a",), name="bad")
        with pytest.raises(ValueError):
            RuntimeSimulator(inst, V8Scheme(), compile_threads=0)
        with pytest.raises(ValueError):
            RuntimeSimulator(inst, V8Scheme(), sample_period=0.0)

    def test_default_sample_period(self, single_function_instance):
        period = default_sample_period(single_function_instance, ticks=10)
        assert period == pytest.approx(6 * 5.0 / 10)

    def test_default_sample_period_empty(self):
        inst = OCSPInstance({}, ())
        assert default_sample_period(inst) == 1.0

    def test_default_sample_period_adds_left_to_right(self):
        # Each 1.0 vanishes into 1e16 when added in call order; a
        # compensated sum (builtin ``sum`` since Python 3.12) keeps all
        # fifty and gives 1.000000000000005e13.
        profiles = {
            "big": FunctionProfile("big", (1.0,), (1e16,)),
            "small": FunctionProfile("small", (1.0,), (1.0,)),
        }
        inst = OCSPInstance(profiles, ("big",) + ("small",) * 50, name="fp")
        total = 0.0
        for fname in inst.calls:
            total += profiles[fname].exec_times[0]
        assert default_sample_period(inst) == total / 1000 == 1e13

    def test_schedule_is_simulatable(self, small_synthetic):
        """The emergent schedule is a legal OCSP schedule."""
        result = run_jikes(small_synthetic)
        result.schedule.validate(small_synthetic)

    def test_makespan_accounting(self, small_synthetic):
        result = run_jikes(small_synthetic)
        assert result.total_exec_time + result.total_bubble_time == pytest.approx(
            result.makespan
        )


class TestTieredScheme:
    def test_promotion_at_thresholds(self):
        from repro.vm.hotspot import TieredScheme, run_tiered

        profiles = {
            "a": FunctionProfile("a", (1.0, 5.0, 20.0), (8.0, 4.0, 1.0)),
        }
        inst = OCSPInstance(profiles, ("a",) * 12, name="tiered")
        result = run_tiered(inst, thresholds=(1, 3, 10))
        tasks = [(t.function, t.level) for t in result.schedule]
        assert tasks == [("a", 0), ("a", 1), ("a", 2)]

    def test_thresholds_validated(self):
        from repro.vm.hotspot import TieredScheme

        with pytest.raises(ValueError):
            TieredScheme(thresholds=(2, 5))
        with pytest.raises(ValueError):
            TieredScheme(thresholds=(1, 5, 5))
        with pytest.raises(ValueError):
            TieredScheme(thresholds=())

    def test_levels_beyond_profile_skipped(self):
        from repro.vm.hotspot import run_tiered

        profiles = {"a": FunctionProfile("a", (1.0, 5.0), (8.0, 1.0))}
        inst = OCSPInstance(profiles, ("a",) * 30, name="twotier")
        result = run_tiered(inst, thresholds=(1, 3, 10))
        assert [t.level for t in result.schedule] == [0, 1]

    def test_valid_on_synthetic(self, small_synthetic):
        from repro.vm.hotspot import run_tiered

        result = run_tiered(small_synthetic, thresholds=(1, 5, 100, 1000))
        result.schedule.validate(small_synthetic)
        from repro.core import lower_bound

        assert result.makespan >= lower_bound(small_synthetic)
