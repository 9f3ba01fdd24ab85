"""Tests for A*-search (Section 5.3)."""

import math

import pytest

from repro.analysis.experiments import _astar_instance
from repro.core import (
    AStarMemoryExceeded,
    FunctionProfile,
    OCSPInstance,
    Schedule,
    astar_schedule,
    optimal_schedule,
    simulate,
)
from repro.workloads import WorkloadSpec, generate
from tests.astar_oracle import bitwise, oracle_pushes, search_pushes


class TestOptimality:
    def test_fig1(self, fig1_instance):
        result = astar_schedule(fig1_instance)
        assert result.makespan == 10.0

    def test_fig2(self, fig2_instance):
        result = astar_schedule(fig2_instance)
        assert result.makespan == 12.0

    def test_schedule_simulates_to_reported_makespan(self, fig2_instance):
        result = astar_schedule(fig2_instance)
        assert simulate(fig2_instance, result.schedule).makespan == result.makespan

    def test_reported_makespan_is_the_simulated_one(self):
        """The optimum here simulates to 1.9 + 1.5 = 3.4, but its f plus
        the lower bound rounds to (3.4 - 0.7) + 0.7 = 3.4000000000000004:
        the make-span reported must be the schedule's own."""
        profile = FunctionProfile("f0", (1.9, 3.1), (1.5, 0.7))
        inst = OCSPInstance({"f0": profile}, ("f0",))
        result = astar_schedule(inst)
        assert result.schedule == Schedule.of(("f0", 0))
        assert result.makespan == simulate(inst, result.schedule).makespan == 3.4

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce_on_random_instances(self, seed):
        spec = WorkloadSpec(
            name=f"astar-{seed}",
            num_functions=3,
            num_calls=12,
            num_levels=2,
            base_compile_us=25.0,
            mean_exec_us=10.0,
            max_speedup_range=(1.5, 4.0),
        )
        inst = generate(spec, seed=seed)
        exact = optimal_schedule(inst)
        astar = astar_schedule(inst)
        assert astar.makespan == pytest.approx(exact.makespan)


# The whole search, pinned: status, nodes expanded, the largest frontier
# (or the frontier size at the out-of-memory abort), the exact make-span,
# paths_total and the schedule, on the Figure 1-2 examples and the six
# instances of the Section 6.2.5 table (astar_scaling's defaults).  A
# faster search must reproduce every value exactly, the node counts too.
SEARCH_PINS = {
    "fig1": (
        "optimal", 29, 52, 10.0, 30,
        (("f0", 0), ("f1", 0), ("f2", 0), ("f1", 1)),
    ),
    # The tree has 30 = 5!/(1!*2!*2!) full permutations; A* expands far
    # fewer nodes than 5! would suggest.
    "fig2": (
        "optimal", 43, 68, 12.0, 30,
        (("f0", 0), ("f1", 0), ("f2", 1)),
    ),
    "m2": (
        "optimal", 16, 21, 2165.1305426308936, 6,
        (("f0000", 0), ("f0001", 1)),
    ),
    "m3": (
        "optimal", 47, 120, 2953.2637166952622, 90,
        (("f0001", 0), ("f0002", 0), ("f0000", 0), ("f0002", 1)),
    ),
    "m4": (
        "optimal", 159, 526, 2324.2174173497397, 2520,
        (("f0002", 0), ("f0003", 0), ("f0001", 0), ("f0000", 0), ("f0001", 1)),
    ),
    "m5": (
        "optimal", 392, 2104, 1906.3107338379664, 113400,
        (("f0000", 0), ("f0001", 0), ("f0003", 0), ("f0002", 0), ("f0004", 0)),
    ),
    "m6": (
        "optimal", 3365, 20844, 1735.6986484951071, 7484400,
        (
            ("f0001", 0), ("f0000", 0), ("f0002", 0),
            ("f0004", 0), ("f0005", 0), ("f0003", 0),
        ),
    ),
    "m7": ("out-of-memory", 27968, 200006, None, None, None),
}


class TestSearchPins:
    @pytest.mark.parametrize("case", sorted(SEARCH_PINS))
    def test_search_is_pinned(self, case, request):
        if case.startswith("fig"):
            instance = request.getfixturevalue(f"{case}_instance")
        else:
            instance = _astar_instance(int(case[1:]))
        status, expanded, frontier, makespan, paths, tasks = SEARCH_PINS[case]
        if status == "out-of-memory":
            with pytest.raises(AStarMemoryExceeded) as info:
                astar_schedule(instance, max_frontier=200_000)
            assert info.value.nodes_expanded == expanded
            assert info.value.frontier_size == frontier
            return
        result = astar_schedule(instance, max_frontier=200_000)
        assert result.nodes_expanded == expanded
        assert result.max_frontier == frontier
        assert result.makespan == makespan
        assert result.paths_total == paths
        assert result.schedule == Schedule.of(*tasks)


class TestPushOrder:
    @pytest.mark.parametrize("case", sorted(set(SEARCH_PINS) - {"m7"}))
    def test_pushes_equal_the_from_zero_oracle(self, case, request):
        """Every ``(f, counter)`` pushed equals the from-zero oracle's,
        bitwise and in order (m7's 227,973 pushes are left to the pins)."""
        if case.startswith("fig"):
            instance = request.getfixturevalue(f"{case}_instance")
        else:
            instance = _astar_instance(int(case[1:]))
        pushes = bitwise(search_pushes(instance, max_frontier=200_000))
        assert pushes == bitwise(oracle_pushes(instance, max_frontier=200_000))
        assert len(pushes) > 1


class TestPathsTotal:
    def test_multinomial(self):
        profiles = {
            f"f{i}": FunctionProfile(f"f{i}", (1.0, 2.0), (2.0, 1.0))
            for i in range(6)
        }
        calls = tuple(f"f{i}" for i in range(6))
        inst = OCSPInstance(profiles, calls)
        result = astar_schedule(inst, max_frontier=2_000_000)
        # 12 tasks, 2 per function: 12! / 2^6
        assert result.paths_total == math.factorial(12) // 2 ** 6


class TestMemoryBound:
    def test_frontier_blowup_raises(self):
        spec = WorkloadSpec(
            name="astar-big",
            num_functions=8,
            num_calls=60,
            num_levels=2,
            base_compile_us=25.0,
            mean_exec_us=10.0,
        )
        inst = generate(spec, seed=0)
        with pytest.raises(AStarMemoryExceeded) as info:
            astar_schedule(inst, max_frontier=2000)
        assert info.value.nodes_expanded > 0
        assert info.value.frontier_size > 2000

    def test_expansion_budget(self, fig2_instance):
        """Figure 2 needs its pinned 43 expansions: a budget of 43 finds
        the pinned optimum and one less stops the search."""
        _, expanded, frontier, makespan, _, tasks = SEARCH_PINS["fig2"]
        result = astar_schedule(fig2_instance, max_expansions=expanded)
        assert result.nodes_expanded == expanded
        assert result.max_frontier == frontier
        assert result.makespan == makespan
        assert result.schedule == Schedule.of(*tasks)
        with pytest.raises(RuntimeError, match="exceeded 42 node expansions"):
            astar_schedule(fig2_instance, max_expansions=expanded - 1)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError):
            astar_schedule(OCSPInstance({}, ()))
