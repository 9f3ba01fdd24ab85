"""Tests for compilation schedules and their legality rules."""

import pytest

from repro.core import (
    CompileTask,
    FunctionProfile,
    OCSPInstance,
    Schedule,
    ScheduleError,
    simulate,
)


@pytest.fixture()
def instance():
    profiles = {
        "a": FunctionProfile("a", (1.0, 2.0), (4.0, 2.0)),
        "b": FunctionProfile("b", (1.0,), (1.0,)),
    }
    return OCSPInstance(profiles, ("a", "b", "a"))


class TestConstruction:
    def test_of_builder(self):
        sched = Schedule.of(("a", 0), ("b", 1))
        assert len(sched) == 2
        assert sched[0] == CompileTask("a", 0)
        assert sched[1].level == 1

    def test_empty(self):
        assert len(Schedule.empty()) == 0

    def test_append_returns_new(self):
        s0 = Schedule.empty()
        s1 = s0.append(CompileTask("a", 0))
        assert len(s0) == 0
        assert len(s1) == 1

    def test_extend(self):
        sched = Schedule.empty().extend([CompileTask("a", 0), CompileTask("b", 0)])
        assert [t.function for t in sched] == ["a", "b"]

    def test_replace_at(self):
        sched = Schedule.of(("a", 0), ("b", 0))
        new = sched.replace_at(0, CompileTask("a", 1))
        assert new[0].level == 1
        assert sched[0].level == 0

    def test_replace_at_out_of_range(self):
        with pytest.raises(IndexError):
            Schedule.of(("a", 0)).replace_at(3, CompileTask("a", 1))

    def test_delete_at(self):
        sched = Schedule.of(("a", 0), ("b", 0))
        assert [t.function for t in sched.delete_at(0)] == ["b"]

    def test_delete_at_out_of_range(self):
        with pytest.raises(IndexError):
            Schedule.of(("a", 0)).delete_at(1)


class TestViews:
    def test_functions_in_first_task_order(self):
        sched = Schedule.of(("b", 0), ("a", 0), ("b", 1))
        assert sched.functions() == ["b", "a"]

    def test_tasks_for(self):
        sched = Schedule.of(("b", 0), ("a", 0), ("b", 1))
        assert [t.level for t in sched.tasks_for("b")] == [0, 1]

    def test_index_of_first(self):
        sched = Schedule.of(("b", 0), ("a", 0))
        assert sched.index_of_first("a") == 1
        assert sched.index_of_first("zzz") is None

    def test_highest_level_of(self):
        sched = Schedule.of(("b", 0), ("b", 1))
        assert sched.highest_level_of("b") == 1
        assert sched.highest_level_of("a") is None

    def test_str(self):
        assert str(Schedule.of(("a", 0))) == "(C0(a))"


class TestValidation:
    def test_valid_schedule(self, instance):
        Schedule.of(("a", 0), ("b", 0), ("a", 1)).validate(instance)

    def test_missing_function_rejected(self, instance):
        with pytest.raises(ScheduleError, match="never compiled"):
            Schedule.of(("a", 0)).validate(instance)

    def test_unknown_function_rejected(self, instance):
        with pytest.raises(ScheduleError, match="unknown function"):
            Schedule.of(("zzz", 0), ("a", 0), ("b", 0)).validate(instance)

    def test_level_out_of_range_rejected(self, instance):
        with pytest.raises(ScheduleError, match="levels"):
            Schedule.of(("b", 1), ("a", 0)).validate(instance)

    def test_non_increasing_recompilation_rejected(self, instance):
        with pytest.raises(ScheduleError, match="strictly increase"):
            Schedule.of(("a", 1), ("a", 0), ("b", 0)).validate(instance)

    def test_duplicate_same_level_rejected(self, instance):
        with pytest.raises(ScheduleError, match="strictly increase"):
            Schedule.of(("a", 0), ("a", 0), ("b", 0)).validate(instance)

    def test_is_valid_for(self, instance):
        assert Schedule.of(("a", 0), ("b", 0)).is_valid_for(instance)
        assert not Schedule.of(("a", 0)).is_valid_for(instance)

    def test_total_compile_time(self, instance):
        sched = Schedule.of(("a", 0), ("b", 0), ("a", 1))
        assert sched.total_compile_time(instance) == 1.0 + 1.0 + 2.0

    def test_total_compile_time_adds_left_to_right(self):
        """Fifty 1.0 compiles after a 1e16 one add nothing, as on the
        simulators' sequential compile clock; a compensated sum (builtin
        ``sum`` since Python 3.12) would keep them."""
        profiles = {"big": FunctionProfile("big", (1e16,), (1.0,))}
        for i in range(50):
            profiles[f"s{i}"] = FunctionProfile(f"s{i}", (1.0,), (1.0,))
        inst = OCSPInstance(profiles, tuple(profiles), name="fp")
        sched = Schedule.of(*((name, 0) for name in profiles))
        assert sched.total_compile_time(inst) == 1e16
        assert simulate(inst, sched).compile_end == 1e16
