"""Due-date objectives (max tardiness, weighted tardiness, weighted
completion) behind the engine seam: semantics on hand-checked examples,
bitwise equality across reference/vector."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DueDateTable,
    FunctionProfile,
    ModelError,
    OCSPInstance,
    Schedule,
    due_date_objectives,
    objectives_from_timeline,
    simulate,
)
from repro.core.engine import ENGINES


@pytest.fixture()
def instance():
    profiles = {
        "a": FunctionProfile("a", (1.0, 3.0), (4.0, 1.0)),
        "b": FunctionProfile("b", (2.0,), (5.0,)),
    }
    return OCSPInstance(profiles, ("a", "b", "a"), name="due")


@pytest.fixture()
def schedule():
    return Schedule.of(("a", 0), ("b", 0))


class TestSemantics:
    def test_hand_checked_values(self, instance, schedule):
        # Single compile thread: compile a (1.0), run a (4.0) -> C_a
        # candidates; compile b (2.0), run b (5.0); run a again (4.0).
        due = DueDateTable({"a": (10.0, 2.0), "b": (4.0, 1.0)})
        obj = due_date_objectives(instance, schedule, due)
        result = simulate(instance, schedule, record_timeline=True)
        finishes = {}
        for timing in result.call_timings:
            finishes[timing.function] = max(
                finishes.get(timing.function, 0.0), timing.finish
            )
        want_max = max(
            max(0.0, finishes["a"] - 10.0), max(0.0, finishes["b"] - 4.0)
        )
        assert obj.makespan == result.makespan
        assert obj.max_tardiness == want_max
        assert obj.num_jobs == 2
        assert obj.completions["a"] == finishes["a"]

    def test_completion_is_last_invocation(self, instance, schedule):
        due = DueDateTable({"a": (0.0, 1.0)})
        obj = due_date_objectives(instance, schedule, due)
        result = simulate(instance, schedule, record_timeline=True)
        last_a = max(t.finish for t in result.call_timings if t.function == "a")
        assert obj.completions == {"a": last_a}
        assert obj.total_weighted_tardiness == last_a  # due 0, weight 1

    def test_on_time_function_contributes_zero_tardiness(
        self, instance, schedule
    ):
        due = DueDateTable({"a": (1e9, 3.0)})
        obj = due_date_objectives(instance, schedule, due)
        assert obj.max_tardiness == 0.0
        assert obj.total_weighted_tardiness == 0.0
        assert obj.num_late == 0

    def test_uncalled_dued_function_is_skipped(self, schedule):
        profiles = {
            "a": FunctionProfile("a", (1.0,), (4.0,)),
            "b": FunctionProfile("b", (2.0,), (5.0,)),
        }
        instance = OCSPInstance(profiles, ("a",), name="uncalled")
        due = DueDateTable({"a": (0.0, 1.0), "b": (0.0, 1.0)})
        obj = due_date_objectives(instance, Schedule.of(("a", 0)), due)
        assert obj.num_jobs == 1
        assert "b" not in obj.completions

    def test_as_dict_round_trips_fields(self, instance, schedule):
        due = DueDateTable({"a": (5.0, 1.0)})
        obj = due_date_objectives(instance, schedule, due)
        doc = obj.as_dict()
        assert doc["makespan"] == obj.makespan
        assert doc["max_tardiness"] == obj.max_tardiness
        assert doc["num_late"] == obj.num_late

    def test_requires_timeline(self, instance, schedule):
        result = simulate(instance, schedule)
        with pytest.raises(ValueError, match="timeline"):
            objectives_from_timeline(result, DueDateTable({"a": (1.0, 1.0)}))


class TestTableValidation:
    def test_unknown_function_rejected_on_validate(self, instance):
        table = DueDateTable({"ghost": (1.0, 1.0)})
        with pytest.raises(ModelError, match="ghost"):
            table.validate_against(instance)

    @pytest.mark.parametrize(
        "entries",
        [
            {"a": (-1.0, 1.0)},             # negative due
            {"a": (1.0, -1.0)},             # negative weight
            {"a": (float("nan"), 1.0)},
            {"a": (1.0, float("inf"))},
            {"a": (True, 1.0)},             # bool is not a number
            {"": (1.0, 1.0)},               # empty name
        ],
    )
    def test_malformed_entries(self, entries):
        with pytest.raises(ModelError):
            DueDateTable(entries)

    def test_items_sorted(self):
        table = DueDateTable({"z": (1.0, 1.0), "a": (2.0, 2.0)})
        assert [name for name, _ in table.items()] == ["a", "z"]


class TestEngineSeam:
    def test_all_engines_bitwise_identical(self, instance, schedule):
        due = DueDateTable({"a": (3.0, 2.0), "b": (4.5, 1.5)})
        objs = [
            due_date_objectives(instance, schedule, due, engine=engine)
            for engine in ENGINES
        ]
        assert objs[0] == objs[1]

    @settings(max_examples=40, deadline=None)
    @given(
        dues=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=2,
        ),
        threads=st.integers(min_value=1, max_value=3),
    )
    def test_property_engines_agree(self, dues, threads):
        profiles = {
            "a": FunctionProfile("a", (1.0, 3.0), (4.0, 1.0)),
            "b": FunctionProfile("b", (2.0,), (5.0,)),
        }
        instance = OCSPInstance(profiles, ("a", "b", "a"), name="due")
        schedule = Schedule.of(("a", 0), ("b", 0))
        names = ["a", "b"]
        due = DueDateTable(
            {names[i]: pair for i, pair in enumerate(dues)}
        )
        objs = [
            due_date_objectives(
                instance, schedule, due, compile_threads=threads, engine=e
            )
            for e in ENGINES
        ]
        assert objs[0] == objs[1]
