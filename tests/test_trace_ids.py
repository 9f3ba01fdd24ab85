"""The call ids an instance interns when it is built.

* **Id widths.**  Ids take the narrowest unsigned type that holds the
  function count: one byte up to 256 functions, two from 257.  On both
  sides of that edge the engines, the bound and the runtime must give
  what their name-reading references give, bit for bit.
* **Sharing.**  A projection that keeps every name and call holds its
  source's id array, the study drivers intern no trace of their own,
  and a pickled instance carries its trace instead of re-interning.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

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
from repro.core.model import FunctionProfile, OCSPInstance
from repro.core.single_level import base_level_schedule
from repro.faults import degrade
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
    ids = instance._trace.ids
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
    ids = antlr._trace.ids
    restricted = antlr.restricted_to_levels(
        {fname: [0, 1] for fname in antlr.profiles}
    )
    assert restricted._trace.ids is ids
    projected = project_to_model_levels(antlr, EstimatedModel(antlr, seed=0))
    assert projected._trace.ids is ids
    seen = []
    run_v8 = degrade.run_v8

    def recording(instance, *args, **kwargs):
        seen.append(instance)
        return run_v8(instance, *args, **kwargs)

    monkeypatch.setattr(degrade, "run_v8", recording)
    degrade.v8_comparison(antlr)
    assert len(seen) == 1 and seen[0] is not antlr
    assert seen[0]._trace.ids is ids


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
    assert np.array_equal(clone._trace.ids, antlr._trace.ids)
    assert clone.called_functions == antlr.called_functions
    assert lower_bound(clone) == expected
