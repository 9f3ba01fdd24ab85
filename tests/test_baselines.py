"""Tests for the additional baseline schedulers."""

import pytest

from repro.core import FunctionProfile, OCSPInstance, Schedule, lower_bound, simulate
from repro.core.baselines import (
    greedy_budget_schedule,
    hotness_first_schedule,
    ondemand_promotion_schedule,
    random_schedule,
)


ALL_BASELINES = [
    lambda inst: ondemand_promotion_schedule(inst),
    lambda inst: hotness_first_schedule(inst),
    lambda inst: greedy_budget_schedule(inst),
    lambda inst: random_schedule(inst, seed=3),
]


class TestValidity:
    @pytest.mark.parametrize("builder", ALL_BASELINES)
    def test_valid_on_synthetic(self, builder, small_synthetic):
        builder(small_synthetic).validate(small_synthetic)

    @pytest.mark.parametrize("builder", ALL_BASELINES)
    def test_valid_on_fig2(self, builder, fig2_instance):
        builder(fig2_instance).validate(fig2_instance)

    @pytest.mark.parametrize("builder", ALL_BASELINES)
    def test_above_lower_bound(self, builder, small_synthetic):
        span = simulate(
            small_synthetic, builder(small_synthetic), validate=False
        ).makespan
        assert span >= lower_bound(small_synthetic) - 1e-9


class TestOndemandPromotion:
    def test_promotion_order_follows_kth_call(self, two_function_instance):
        # cold called once (never promoted), hot 20 times (promoted at
        # its 2nd call).
        sched = ondemand_promotion_schedule(two_function_instance)
        tasks = [(t.function, t.level) for t in sched]
        assert tasks[:2] == [("cold", 0), ("hot", 0)]
        assert ("hot", 1) in tasks
        assert all(f != "cold" or lvl == 0 for f, lvl in tasks)

    def test_promote_after_larger_than_counts(self, two_function_instance):
        sched = ondemand_promotion_schedule(two_function_instance, promote_after=100)
        assert all(t.level == 0 for t in sched)

    def test_bad_parameter(self, two_function_instance):
        with pytest.raises(ValueError):
            ondemand_promotion_schedule(two_function_instance, promote_after=0)

    def test_matches_v8_ordering_on_interleaved_calls(self):
        from repro.core import FunctionProfile, OCSPInstance

        profiles = {
            "a": FunctionProfile("a", (1.0, 2.0), (3.0, 1.0)),
            "b": FunctionProfile("b", (1.0, 2.0), (3.0, 1.0)),
        }
        inst = OCSPInstance(profiles, ("a", "b", "b", "a"), name="order")
        sched = ondemand_promotion_schedule(inst)
        # b reaches its 2nd call (index 2) before a (index 3).
        promos = [t.function for t in sched if t.level == 1]
        assert promos == ["b", "a"]


class TestHotnessFirst:
    def test_hottest_promoted_first(self, small_synthetic):
        sched = hotness_first_schedule(small_synthetic)
        promos = [t.function for t in sched if t.level > 0]
        counts = [small_synthetic.call_count(f) for f in promos]
        assert counts == sorted(counts, reverse=True)

    def test_unprofitable_functions_skipped(self, two_function_instance):
        sched = hotness_first_schedule(two_function_instance)
        assert sched.highest_level_of("cold") == 0


class TestGreedyBudget:
    def test_zero_budget_is_base_level(self, small_synthetic):
        sched = greedy_budget_schedule(small_synthetic, budget_fraction=0.0)
        assert all(t.level == 0 for t in sched)

    def test_budget_monotone(self, small_synthetic):
        small = greedy_budget_schedule(small_synthetic, budget_fraction=0.1)
        large = greedy_budget_schedule(small_synthetic, budget_fraction=2.0)
        n_small = sum(1 for t in small if t.level > 0)
        n_large = sum(1 for t in large if t.level > 0)
        assert n_large >= n_small

    def test_budget_respected(self, small_synthetic):
        fraction = 0.2
        sched = greedy_budget_schedule(small_synthetic, budget_fraction=fraction)
        total_exec0 = sum(
            small_synthetic.profiles[f].exec_times[0]
            for f in small_synthetic.calls
        )
        spent = sum(
            small_synthetic.profiles[t.function].compile_times[t.level]
            for t in sched
            if t.level > 0
        )
        assert spent <= fraction * total_exec0 + 1e-9

    def test_negative_budget_rejected(self, small_synthetic):
        with pytest.raises(ValueError):
            greedy_budget_schedule(small_synthetic, budget_fraction=-0.5)


class TestRandomSchedule:
    def test_deterministic_per_seed(self, small_synthetic):
        assert random_schedule(small_synthetic, seed=1) == random_schedule(
            small_synthetic, seed=1
        )

    def test_seed_varies(self, small_synthetic):
        assert random_schedule(small_synthetic, seed=1) != random_schedule(
            small_synthetic, seed=2
        )


def test_greedy_budget_adds_left_to_right():
    """The budget is the sequential sum of the trace's level-0 exec
    times: fifty 1.0 calls after a 1e16 one add nothing, so a recompile
    costing 1e16 + 50 does not fit.  A compensated sum (builtin ``sum``
    since Python 3.12) would admit it."""
    profiles = {
        "big": FunctionProfile("big", (1.0,), (1e16,)),
        "small": FunctionProfile("small", (1.0, 1e16 + 50), (1.0, 0.5)),
    }
    inst = OCSPInstance(profiles, ("big",) + ("small",) * 50, name="fp")
    assert greedy_budget_schedule(inst, budget_fraction=1.0) == Schedule.of(
        ("big", 0), ("small", 0)
    )
