"""The call ids an instance interns when it is built.

* **Id widths.**  Ids take the narrowest unsigned type that holds the
  function count: one byte up to 256 functions, two from 257.  On both
  sides of that edge the engines, the bound and the runtime must give
  what their name-reading references give, bit for bit.
* **Sharing.**  A projection that keeps every name and call holds its
  source's id array, the study drivers intern no trace of their own,
  and a pickled instance carries its trace instead of re-interning.
* **The trace is ``calls``.**  It behaves like the tuple of names it
  replaces, whether built from names or from ids, maps ids to names a
  block at a time, and is the only per-call store an instance holds.
"""

from __future__ import annotations

import gc
import pickle
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import (
    figure5,
    figure6,
    figure7,
    figure8,
    project_to_model_levels,
    table2,
)
from repro.core import model
from repro.core.bounds import lower_bound
from repro.core.iar import iar
from repro.core.makespan import simulate
from repro.core.model import FunctionProfile, ModelError, OCSPInstance
from repro.core.single_level import base_level_schedule
from repro.faults import FaultInjector, degrade
from repro.vm.costbenefit import EstimatedModel
from repro.workloads import dacapo

from test_runtime_differential import SCHEMES, _assert_same_as_per_call
from test_vecsim_differential import assert_results_equal


def _wide_instance(num_profiles: int, seed: int = 0) -> OCSPInstance:
    """Every function called, with profiles in an order unlike the
    first-call order, so the highest id occurs in the trace."""
    rng = random.Random(seed)
    names = [f"m{i:03d}" for i in range(num_profiles)]
    profiles = {}
    for name in rng.sample(names, num_profiles):
        levels = rng.randint(1, 3)
        profiles[name] = FunctionProfile(
            name,
            sorted(rng.uniform(0.5, 4.0) for _ in range(levels)),
            sorted((rng.uniform(0.05, 1.0) for _ in range(levels)), reverse=True),
        )
    calls = names + rng.choices(names, weights=range(1, num_profiles + 1), k=4000)
    rng.shuffle(calls)
    return OCSPInstance(profiles, tuple(calls), name=f"wide{num_profiles}")


WIDTHS = [(256, 1), (257, 2)]


@pytest.fixture(scope="module", params=WIDTHS, ids=lambda w: f"{w[0]}fn")
def wide(request):
    num_profiles, itemsize = request.param
    return _wide_instance(num_profiles), num_profiles, itemsize


def test_ids_take_the_narrowest_unsigned_type(wide):
    instance, num_profiles, itemsize = wide
    ids = instance.calls.ids
    assert ids.dtype.kind == "u" and ids.itemsize == itemsize
    assert int(ids.max()) == num_profiles - 1
    names = list(instance.profiles)
    assert [names[fid] for fid in ids.tolist()] == list(instance.calls)


def test_engines_agree_bitwise_on_either_width(wide):
    instance, _, _ = wide
    schedules = [
        iar(instance, engine="vector").schedule,
        base_level_schedule(instance),
    ]
    for schedule in schedules:
        for threads in (1, 3):
            for timeline in (False, True):
                kwargs = dict(compile_threads=threads, record_timeline=timeline)
                assert_results_equal(
                    simulate(instance, schedule, engine="vector", **kwargs),
                    simulate(instance, schedule, engine="reference", **kwargs),
                )


def test_lower_bound_is_the_left_to_right_loop_on_either_width(wide):
    instance, _, _ = wide
    total = 0.0
    for fname in instance.calls:
        total += instance.profiles[fname].exec_times[-1]
    assert lower_bound(instance) == total


def test_runtime_matches_the_per_call_loop_on_either_width(wide):
    instance, _, _ = wide
    for scheme in ("jikes-estimated", "v8"):
        for threads in (1, 2):
            _assert_same_as_per_call(
                instance, SCHEMES[scheme], compile_threads=threads
            )


@pytest.fixture(scope="module")
def antlr():
    return dacapo.load("antlr", scale=0.002)


def test_projections_hold_their_sources_ids(antlr, monkeypatch):
    ids = antlr.calls.ids
    restricted = antlr.restricted_to_levels(
        {fname: [0, 1] for fname in antlr.profiles}
    )
    assert restricted.calls.ids is ids
    projected = project_to_model_levels(antlr, EstimatedModel(antlr, seed=0))
    assert projected.calls.ids is ids
    seen = []
    run_v8 = degrade.run_v8

    def recording(instance, *args, **kwargs):
        seen.append(instance)
        return run_v8(instance, *args, **kwargs)

    monkeypatch.setattr(degrade, "run_v8", recording)
    degrade.v8_comparison(antlr)
    assert len(seen) == 1 and seen[0] is not antlr
    assert seen[0].calls.ids is ids


@pytest.fixture()
def traces_built(monkeypatch):
    """Every trace interned while the test runs, one entry each."""
    built = []
    intern = model._Trace.__init__

    def counted(self, *args):
        built.append(args)
        intern(self, *args)

    monkeypatch.setattr(model._Trace, "__init__", counted)
    return built


def test_study_drivers_intern_no_further_trace(antlr, traces_built):
    suite = {"antlr": antlr}
    for driver in (figure5, figure6, figure7, figure8, table2):
        assert driver(suite)
    assert traces_built == []
    antlr.reduced_to_two_levels()  # new profiles, so a trace of its own
    assert len(traces_built) == 1


def test_trace_pickles_with_its_instance(antlr, traces_built):
    """Spawned ``--jobs`` workers receive the trace with the instance
    and do not intern it again; the engines' caches stay behind."""
    projected = antlr.restricted_to_levels(
        {fname: [0, 1] for fname in antlr.profiles}
    )
    expected = lower_bound(projected)
    clone = pickle.loads(pickle.dumps(projected))
    assert traces_built == []
    assert not hasattr(clone, "_arrays")
    assert np.array_equal(clone.calls.ids, antlr.calls.ids)
    assert clone.called_functions == antlr.called_functions
    assert lower_bound(clone) == expected


@st.composite
def built_both_ways(draw):
    """Names in a drawn profile order and calls drawn apart from it; the
    same calls interned from names and handed over as ids."""
    names = draw(st.permutations([f"f{i}" for i in range(draw(st.integers(1, 6)))]))
    profiles = {name: FunctionProfile(name, (1.0,), (1.0,)) for name in names}
    calls = tuple(draw(st.lists(st.sampled_from(sorted(names)), max_size=30)))
    ids = np.array([names.index(fname) for fname in calls], dtype=np.intp)
    from_names = OCSPInstance(profiles, calls)
    from_ids = OCSPInstance(profiles, model._Trace(list(names), ids))
    return calls, from_names, from_ids


@settings(max_examples=200, deadline=None)
@given(built_both_ways(), st.slices(35))
def test_trace_reads_as_the_tuple_of_its_names(built, cut):
    calls, *instances = built
    names = list(instances[0].profiles)
    for instance in instances:
        trace = instance.calls
        assert len(trace) == instance.num_calls == len(calls)
        assert list(trace) == list(calls) and tuple(trace) == calls
        for index in range(-len(calls), len(calls)):
            assert trace[index] == calls[index]
        for index in (len(calls), -len(calls) - 1):
            with pytest.raises(IndexError):
                trace[index]
        assert trace[cut] == calls[cut] and type(trace[cut]) is tuple
        for fname in [*instance.profiles, "absent"]:
            assert (fname in trace) is (fname in calls)
        assert trace == calls and calls == trace
        assert trace == list(calls) and list(calls) == trace
        assert not trace != calls
        assert trace != calls + ("f0",) and trace != calls[:-1] + ("absent",)
        assert trace != "f0" and trace != None  # noqa: E711
        assert trace + ("absent",) == calls + ("absent",)
        assert type(trace + ()) is tuple
        assert repr(trace) == f"<{len(calls)} calls to {instance.num_functions} functions>"
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance and clone.calls == calls
    from_names, from_ids = instances
    assert from_names.calls == from_ids.calls and from_names == from_ids
    longer = OCSPInstance(from_ids.profiles, calls + (names[0],))
    assert longer.calls != from_ids.calls and longer != from_ids
    # Profiles in another order re-intern the names; in the same order
    # they share the trace.
    reordered = OCSPInstance(dict(reversed(from_ids.profiles.items())), from_ids.calls)
    assert reordered.calls == from_ids.calls
    assert (reordered.calls is from_ids.calls) is (len(names) == 1)


def test_trace_maps_names_a_block_at_a_time():
    """Iterating a long trace builds one block of names at a time, and
    blocks join without a seam."""
    names = [f"m{i:03d}" for i in range(300)]
    ids = np.random.default_rng(0).integers(0, len(names), 600_000)
    trace = model._Trace(names, ids)
    assert trace.ids.itemsize == 2
    tracemalloc.start()
    try:
        calls = iter(trace)
        assert next(calls) == names[ids[0]]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(ids) / 2
    assert list(trace) == [names[fid] for fid in ids.tolist()]


def test_reference_replay_holds_no_copy_of_the_trace():
    """The reference replay's fast tail walks the rest of the trace off
    the loop's own iterator: beyond the block of names that walking the
    trace holds, it allocates under 2 bytes a call (a tuple of the
    remaining names took 8)."""
    jython = dacapo.load("jython", scale=0.01)
    schedule = base_level_schedule(jython)
    tracemalloc.start()
    try:
        for _ in jython.calls:
            pass
        walk = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        simulate(jython, schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - walk < 2 * jython.num_calls


def test_bad_ids_and_unprofiled_names_raise_model_errors():
    names = ["f0", "f1"]
    for ids in ([0, 2], [-1, 0]):
        with pytest.raises(ModelError, match="function ids must lie in 0..1"):
            model._Trace(names, np.array(ids))
    profiles = {name: FunctionProfile(name, (1.0,), (1.0,)) for name in names}
    with pytest.raises(ModelError, match="^call #2 invokes 'g' which has no profile$"):
        OCSPInstance(profiles, ("f0", "f1", "g", "g"))
    other = OCSPInstance({"g": profiles["f0"], **profiles}, ("f1", "g"))
    with pytest.raises(ModelError, match="^call #1 invokes 'g' which has no profile$"):
        OCSPInstance(profiles, other.calls)


def test_views_of_an_instance_share_its_trace(antlr):
    restricted = antlr.restricted_to_levels(
        {fname: [0, 1] for fname in antlr.profiles}
    )
    views = [
        restricted,
        project_to_model_levels(antlr, EstimatedModel(antlr, seed=0)),
        FaultInjector("mispredict=0.5,seed=1").scheduler_view(antlr),
        OCSPInstance(restricted.profiles, restricted.calls),
        OCSPInstance(antlr.profiles, antlr.calls, name="renamed"),
    ]
    for view in views:
        assert view is not antlr and view.calls is antlr.calls
    prefix = antlr.prefix(100)
    assert prefix.calls == antlr.calls[:100] and prefix.calls.names is antlr.calls.names


def _per_call_sequences(root, num_calls):
    """Tuples and lists of ``num_calls`` or more entries reachable from
    ``root`` (classes, modules and functions are not walked)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        if isinstance(obj, (tuple, list)) and len(obj) >= num_calls:
            found.append(type(obj).__name__)
        stack.extend(gc.get_referents(obj))
    return found


def test_an_instance_holds_no_per_call_sequence(antlr):
    restricted = antlr.restricted_to_levels(
        {fname: [0, 1] for fname in antlr.profiles}
    )
    lower_bound(restricted)  # builds the projection's shared tables
    assert antlr.num_calls > 2 * len(antlr.profiles)
    for instance in (antlr, restricted):
        assert _per_call_sequences(instance, instance.num_calls) == []
