"""Tests for the OCSP data model (Definition 1)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import FunctionProfile, ModelError, OCSPInstance
from repro.core.model import merge_instances, validate_monotone_levels


class TestValidateMonotoneLevels:
    def test_accepts_single_level(self):
        validate_monotone_levels([1.0], [2.0])

    def test_accepts_monotone(self):
        validate_monotone_levels([1.0, 2.0, 2.0], [3.0, 3.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ModelError, match="at least one"):
            validate_monotone_levels([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ModelError, match="one entry per level"):
            validate_monotone_levels([1.0, 2.0], [1.0])

    def test_rejects_decreasing_compile(self):
        with pytest.raises(ModelError, match="non-decreasing"):
            validate_monotone_levels([2.0, 1.0], [2.0, 1.0])

    def test_rejects_increasing_exec(self):
        with pytest.raises(ModelError, match="non-increasing"):
            validate_monotone_levels([1.0, 2.0], [1.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(ModelError, match="negative"):
            validate_monotone_levels([-1.0], [1.0])

    def test_rejects_nan(self):
        with pytest.raises(ModelError, match="not finite"):
            validate_monotone_levels([float("nan")], [1.0])

    def test_rejects_inf_exec(self):
        with pytest.raises(ModelError, match="not finite"):
            validate_monotone_levels([1.0], [float("inf")])


class TestFunctionProfile:
    def test_basic_accessors(self):
        prof = FunctionProfile("f", (1.0, 2.0), (4.0, 3.0))
        assert prof.num_levels == 2
        assert list(prof.levels) == [0, 1]
        assert prof.compile_time(1) == 2.0
        assert prof.exec_time(0) == 4.0

    def test_times_coerced_to_tuples(self):
        prof = FunctionProfile("f", [1.0, 2.0], [4.0, 3.0])
        assert isinstance(prof.compile_times, tuple)
        assert isinstance(prof.exec_times, tuple)

    def test_total_cost(self):
        prof = FunctionProfile("f", (1.0, 10.0), (5.0, 1.0))
        assert prof.total_cost(0, 3) == 1.0 + 15.0
        assert prof.total_cost(1, 3) == 10.0 + 3.0

    def test_most_cost_effective_level_prefers_cheap_for_cold(self):
        prof = FunctionProfile("f", (1.0, 10.0), (5.0, 1.0))
        assert prof.most_cost_effective_level(1) == 0

    def test_most_cost_effective_level_prefers_deep_for_hot(self):
        prof = FunctionProfile("f", (1.0, 10.0), (5.0, 1.0))
        assert prof.most_cost_effective_level(100) == 1

    def test_most_cost_effective_tie_break_low(self):
        # n=2: level0 cost 1+6=7, level1 cost 5+2=7 (tie)
        prof = FunctionProfile("f", (1.0, 5.0), (3.0, 1.0))
        assert prof.most_cost_effective_level(2, tie_break="low") == 0
        assert prof.most_cost_effective_level(2, tie_break="high") == 1

    def test_most_cost_effective_rejects_bad_tie_break(self):
        prof = FunctionProfile("f", (1.0,), (1.0,))
        with pytest.raises(ModelError):
            prof.most_cost_effective_level(1, tie_break="middle")

    def test_most_cost_effective_rejects_negative_calls(self):
        prof = FunctionProfile("f", (1.0,), (1.0,))
        with pytest.raises(ModelError):
            prof.most_cost_effective_level(-1)

    def test_most_responsive_level_is_zero(self):
        prof = FunctionProfile("f", (1.0, 2.0, 3.0), (3.0, 2.0, 1.0))
        assert prof.most_responsive_level == 0

    def test_reduced_to_two_levels(self):
        prof = FunctionProfile("f", (1.0, 5.0, 20.0), (9.0, 3.0, 1.0))
        reduced = prof.reduced_to_two_levels(100)  # hot: top level wins
        assert reduced.num_levels == 2
        assert reduced.compile_times == (1.0, 20.0)
        assert reduced.exec_times == (9.0, 1.0)

    def test_reduced_to_two_levels_collapses_when_cold(self):
        prof = FunctionProfile("f", (1.0, 50.0), (2.0, 1.9))
        reduced = prof.reduced_to_two_levels(1)
        assert reduced.num_levels == 1
        assert reduced.compile_times == (1.0,)

    def test_with_times(self):
        prof = FunctionProfile("f", (1.0, 2.0), (4.0, 3.0))
        new = prof.with_times(exec_times=(5.0, 2.0))
        assert new.exec_times == (5.0, 2.0)
        assert new.compile_times == prof.compile_times
        assert prof.exec_times == (4.0, 3.0)  # original untouched

    def test_invalid_profile_rejected_at_construction(self):
        with pytest.raises(ModelError):
            FunctionProfile("f", (2.0, 1.0), (1.0, 1.0))


class TestOCSPInstance:
    def _instance(self):
        profiles = {
            "a": FunctionProfile("a", (1.0,), (2.0,)),
            "b": FunctionProfile("b", (1.0, 3.0), (4.0, 2.0)),
            "unused": FunctionProfile("unused", (1.0,), (1.0,)),
        }
        return OCSPInstance(profiles, ("a", "b", "a", "a"), name="t")

    def test_counts_and_first_index(self):
        inst = self._instance()
        assert inst.num_calls == 4
        assert inst.num_functions == 2
        assert inst.call_count("a") == 3
        assert inst.call_count("b") == 1
        assert inst.call_count("unused") == 0
        assert inst.first_call_index("a") == 0
        assert inst.first_call_index("b") == 1

    def test_first_call_index_missing_raises(self):
        inst = self._instance()
        with pytest.raises(KeyError):
            inst.first_call_index("unused")

    def test_called_functions_in_first_call_order(self):
        inst = self._instance()
        assert inst.called_functions == ["a", "b"]

    def test_unknown_function_in_calls_rejected(self):
        with pytest.raises(ModelError, match="no profile"):
            OCSPInstance({"a": FunctionProfile("a", (1.0,), (1.0,))}, ("a", "x"))

    def test_max_level(self):
        inst = self._instance()
        assert inst.max_level("a") == 0
        assert inst.max_level("b") == 1

    def test_prefix(self):
        inst = self._instance()
        pre = inst.prefix(2)
        assert pre.calls == ("a", "b")
        assert pre.call_count("a") == 1

    def test_reduced_to_two_levels_drops_uncalled(self):
        inst = self._instance()
        reduced = inst.reduced_to_two_levels()
        assert "unused" not in reduced.profiles
        assert reduced.calls == inst.calls

    def test_restricted_to_levels(self):
        inst = self._instance()
        restricted = inst.restricted_to_levels({"b": [1]})
        assert restricted.profiles["b"].num_levels == 1
        assert restricted.profiles["b"].compile_times == (3.0,)
        assert restricted.profiles["a"].num_levels == 1  # untouched
        # The call counts and first-call indices carried over from the
        # source equal a fresh recount of the trace.
        fresh = OCSPInstance(restricted.profiles, inst.calls, name=inst.name)
        assert restricted == fresh
        assert restricted.called_functions == fresh.called_functions
        for fname in ("a", "b", "unused"):
            assert restricted.call_count(fname) == fresh.call_count(fname)
        assert restricted.first_call_index("b") == fresh.first_call_index("b")
        assert restricted.summary() == fresh.summary()

    def test_restricted_to_levels_rejects_empty(self):
        inst = self._instance()
        with pytest.raises(ModelError, match="at least one level"):
            inst.restricted_to_levels({"b": []})

    def test_restricted_to_levels_rejects_out_of_range(self):
        inst = self._instance()
        with pytest.raises(ModelError, match="out of range"):
            inst.restricted_to_levels({"b": [5]})

    def test_summary(self):
        inst = self._instance()
        summary = inst.summary()
        assert summary["num_functions"] == 2
        assert summary["call_seq_length"] == 4
        assert summary["levels"] == 2

    def test_empty_calls_allowed(self):
        inst = OCSPInstance({}, ())
        assert inst.num_calls == 0
        assert inst.called_functions == []


class TestMergeInstances:
    def test_merges_disjoint(self):
        a = OCSPInstance({"a": FunctionProfile("a", (1.0,), (1.0,))}, ("a",))
        b = OCSPInstance({"b": FunctionProfile("b", (1.0,), (1.0,))}, ("b", "b"))
        merged = merge_instances([a, b], name="ab")
        assert merged.calls == ("a", "b", "b")
        assert merged.num_functions == 2
        assert merged.name == "ab"

    def test_identical_profiles_ok(self):
        prof = FunctionProfile("a", (1.0,), (1.0,))
        a = OCSPInstance({"a": prof}, ("a",))
        b = OCSPInstance({"a": prof}, ("a",))
        merged = merge_instances([a, b])
        assert merged.call_count("a") == 2

    def test_conflicting_profiles_rejected(self):
        a = OCSPInstance({"a": FunctionProfile("a", (1.0,), (1.0,))}, ("a",))
        b = OCSPInstance({"a": FunctionProfile("a", (2.0,), (1.0,))}, ("a",))
        with pytest.raises(ModelError, match="conflicting"):
            merge_instances([a, b])


@st.composite
def traced_instances(draw):
    """Profiles in a drawn order, calls drawn independently of it: the
    profile order differs from the first-call order, some profiles go
    uncalled, and the sequence may hold one call or none."""
    names = draw(st.permutations([f"f{i}" for i in range(draw(st.integers(1, 7)))]))
    profiles = {name: FunctionProfile(name, (1.0,), (1.0,)) for name in names}
    calls = draw(st.lists(st.sampled_from(sorted(names)), max_size=40))
    return OCSPInstance(profiles, tuple(calls))


_ONE_PROFILE = {"f0": FunctionProfile("f0", (1.0,), (1.0,))}


class TestInternedTrace:
    """The ids, counts and first calls interned at construction, against
    a per-call loop."""

    @settings(max_examples=200, deadline=None)
    @given(traced_instances())
    @example(OCSPInstance(_ONE_PROFILE, ()))
    @example(OCSPInstance(_ONE_PROFILE, ("f0",)))
    def test_ids_counts_and_first_calls_match_a_per_call_loop(self, inst):
        names = list(inst.profiles)
        ids = inst.calls.ids
        assert ids.dtype.kind == "u" and ids.itemsize == 1
        assert [names[fid] for fid in ids.tolist()] == list(inst.calls)
        counts = {}
        first = {}
        for index, fname in enumerate(inst.calls):
            counts[fname] = counts.get(fname, 0) + 1
            if fname not in first:
                first[fname] = index
        assert inst.called_functions == list(first)
        assert inst.num_functions == len(counts)
        for fname in names:
            assert inst.call_count(fname) == counts.get(fname, 0)
            if fname in first:
                assert inst.first_call_index(fname) == first[fname]
            else:
                with pytest.raises(KeyError):
                    inst.first_call_index(fname)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from(["f0", "f1", "x", "y"]), min_size=1, max_size=20)
        .filter(lambda calls: {"x", "y"} & set(calls))
    )
    def test_unprofiled_call_names_its_first_index(self, calls):
        profiles = {
            name: FunctionProfile(name, (1.0,), (1.0,)) for name in ("f1", "f0")
        }
        index = min(i for i, fname in enumerate(calls) if fname in ("x", "y"))
        with pytest.raises(ModelError, match=rf"^call #{index} invokes "):
            OCSPInstance(profiles, tuple(calls))
