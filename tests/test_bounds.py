"""Tests for the make-span lower bounds (Section 5.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FunctionProfile,
    OCSPInstance,
    lower_bound,
    optimal_schedule,
    simulate,
    warmup_aware_lower_bound,
)
from repro.core.iar import iar_schedule
from repro.core.single_level import base_level_schedule
from repro.workloads import dacapo


class TestLowerBound:
    def test_sums_highest_level_exec_times(self, fig2_instance):
        # e at top levels: f0=1, f1=2, f2=1, f1=2, f2=1
        assert lower_bound(fig2_instance) == 7.0

    def test_empty_instance(self):
        assert lower_bound(OCSPInstance({}, ())) == 0.0

    def test_single_level_functions_count_their_only_level(self):
        inst = OCSPInstance(
            {"a": FunctionProfile("a", (1.0,), (5.0,))}, ("a", "a")
        )
        assert lower_bound(inst) == 10.0

    def test_below_true_optimum(self, fig2_instance):
        opt = optimal_schedule(fig2_instance)
        assert lower_bound(fig2_instance) <= opt.makespan

    def test_below_true_optimum_synthetic(self, tiny_synthetic):
        opt = optimal_schedule(tiny_synthetic)
        assert lower_bound(tiny_synthetic) <= opt.makespan

    def test_below_every_scheduler(self, small_synthetic):
        lb = lower_bound(small_synthetic)
        for sched in (
            iar_schedule(small_synthetic),
            base_level_schedule(small_synthetic),
        ):
            assert simulate(small_synthetic, sched, validate=False).makespan >= lb


def loop_lower_bound(instance):
    """The paper's bound as a per-call loop: the reference sum."""
    profiles = instance.profiles
    total = 0.0
    for fname in instance.calls:
        total += profiles[fname].exec_times[-1]
    return total


# Exec times spanning sixteen orders of magnitude: the last bits of a
# sum depend on its association order.
wide_times = st.floats(min_value=1e-3, max_value=1e16, allow_nan=False)


@st.composite
def wide_instances(draw):
    profiles = {}
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        exec_times = sorted(
            draw(st.lists(wide_times, min_size=1, max_size=3)), reverse=True
        )
        profiles[f"f{i}"] = FunctionProfile(
            f"f{i}", (1.0,) * len(exec_times), tuple(exec_times)
        )
    calls = draw(st.lists(st.sampled_from(sorted(profiles)), max_size=60))
    return OCSPInstance(profiles, tuple(calls), name="wide")


@settings(max_examples=200, deadline=None)
@given(wide_instances())
def test_lower_bound_is_the_left_to_right_loop(instance):
    assert lower_bound(instance) == loop_lower_bound(instance)


def test_lower_bound_adds_left_to_right():
    """After a 1e16 call, fifty 1.0 calls add nothing to a sequential
    sum; a pairwise or compensated sum would keep them."""
    inst = OCSPInstance(
        {
            "big": FunctionProfile("big", (1.0,), (1e16,)),
            "one": FunctionProfile("one", (1.0,), (1.0,)),
        },
        ("big",) + ("one",) * 50,
    )
    assert lower_bound(inst) == 1e16 == loop_lower_bound(inst)


def loop_warmup_aware_lower_bound(instance):
    """The warmup-aware bound as per-call loops over the names: the
    reference its numpy passes must match bit for bit."""
    calls = tuple(instance.calls)
    if not calls:
        return 0.0
    profiles = instance.profiles
    tail = 0.0
    exec_tail = [0.0] * (len(calls) + 1)
    for i in range(len(calls) - 1, -1, -1):
        tail += profiles[calls[i]].exec_times[-1]
        exec_tail[i] = tail
    best = exec_tail[0]
    seen = set()
    compile_prefix = 0.0
    for k, fname in enumerate(calls):
        if fname not in seen:
            seen.add(fname)
            compile_prefix += profiles[fname].compile_times[0]
        candidate = compile_prefix + exec_tail[k]
        if candidate > best:
            best = candidate
    return best


# Costs whose sums depend on the order they are added in.
order_costs = st.sampled_from([0.0, 1.0, 1e16])


@st.composite
def order_sensitive_instances(draw):
    """Profiles in a drawn order, unlike the first-call order, with
    level counts of one to three."""
    names = draw(st.permutations([f"f{i}" for i in range(draw(st.integers(1, 6)))]))
    profiles = {}
    for name in names:
        levels = draw(st.integers(1, 3))
        costs = st.lists(order_costs, min_size=levels, max_size=levels)
        profiles[name] = FunctionProfile(
            name, tuple(sorted(draw(costs))), tuple(sorted(draw(costs), reverse=True))
        )
    calls = draw(st.lists(st.sampled_from(sorted(names)), max_size=60))
    return OCSPInstance(profiles, tuple(calls), name="order")


@settings(max_examples=300, deadline=None)
@given(order_sensitive_instances())
def test_warmup_aware_bound_is_the_per_call_loop(instance):
    expected = loop_warmup_aware_lower_bound(instance)
    assert warmup_aware_lower_bound(instance).hex() == expected.hex()


@pytest.mark.parametrize("name", ["antlr", "jython", "pmd"])
def test_warmup_aware_bound_is_the_per_call_loop_on_presets(name):
    instance = dacapo.load(name, scale=0.002)
    expected = loop_warmup_aware_lower_bound(instance)
    assert warmup_aware_lower_bound(instance).hex() == expected.hex()


class TestWarmupAwareLowerBound:
    def test_dominates_exec_bound(self, fig2_instance, small_synthetic):
        from repro.core import warmup_aware_lower_bound

        for inst in (fig2_instance, small_synthetic):
            assert warmup_aware_lower_bound(inst) >= lower_bound(inst)

    def test_adds_first_function_base_compile(self, fig2_instance):
        # The k = 0 term: every call at its top level (7.0) after the
        # first function's level-0 compile (1.0), which no execution
        # overlaps.  On Figure 2 no later k raises it.
        assert warmup_aware_lower_bound(fig2_instance) == 7.0 + 1.0

    def test_below_true_optimum(self, fig2_instance, tiny_synthetic):
        from repro.core import warmup_aware_lower_bound

        for inst in (fig2_instance, tiny_synthetic):
            opt = optimal_schedule(inst)
            assert warmup_aware_lower_bound(inst) <= opt.makespan + 1e-9

    def test_hand_computed(self):
        from repro.core import FunctionProfile, OCSPInstance, warmup_aware_lower_bound

        profiles = {
            "a": FunctionProfile("a", (5.0,), (1.0,)),
            "b": FunctionProfile("b", (5.0,), (1.0,)),
        }
        inst = OCSPInstance(profiles, ("a", "b"), name="wb")
        # k=0: 5 + 2 = 7; k=1: 10 + 1 = 11.
        assert warmup_aware_lower_bound(inst) == 11.0

    def test_empty(self):
        from repro.core import OCSPInstance, warmup_aware_lower_bound

        assert warmup_aware_lower_bound(OCSPInstance({}, ())) == 0.0

    def test_tightens_the_bracket_on_synthetic(self, small_synthetic):
        """The whole point: the bracket [bound, IAR] narrows."""
        from repro.core import iar_schedule, simulate, warmup_aware_lower_bound

        exec_lb = lower_bound(small_synthetic)
        warm_lb = warmup_aware_lower_bound(small_synthetic)
        iar_span = simulate(
            small_synthetic, iar_schedule(small_synthetic), validate=False
        ).makespan
        assert exec_lb <= warm_lb <= iar_span + 1e-9
