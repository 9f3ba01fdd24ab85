"""Property tests of the fault layer (hypothesis).

Three invariants the degradation machinery must hold on *any* instance:

* a fault-injected make-span never beats the clean lower bound (faults
  only add work);
* the recorded timeline stays physically consistent (calls execute
  back-to-back, compile attempts fit their charged durations);
* the reference and vector engines agree bitwise on degraded plans, and a
  re-run under the same seed reproduces every number.
"""

from __future__ import annotations

import random
from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.core import (
    CompileTask,
    FunctionProfile,
    OCSPInstance,
    Schedule,
    VectorSimulator,
    lower_bound,
    simulate,
)
from repro.faults import FaultInjector, FaultSpec, apply_to_schedule, simulate_with_faults

times = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)


@st.composite
def instances(draw, max_functions=6, max_levels=4, max_calls=20):
    n_funcs = draw(st.integers(min_value=1, max_value=max_functions))
    profiles: Dict[str, FunctionProfile] = {}
    for i in range(n_funcs):
        n_levels = draw(st.integers(min_value=1, max_value=max_levels))
        compile_times = sorted(
            draw(st.lists(times, min_size=n_levels, max_size=n_levels))
        )
        exec_times = sorted(
            draw(st.lists(times, min_size=n_levels, max_size=n_levels)),
            reverse=True,
        )
        name = f"f{i}"
        profiles[name] = FunctionProfile(
            name, tuple(compile_times), tuple(exec_times)
        )
    names = sorted(profiles)
    calls = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=max_calls)
    )
    return OCSPInstance(profiles, tuple(calls), name="prop")


def random_schedule(instance: OCSPInstance, rng: random.Random) -> Schedule:
    """A random valid schedule: strictly increasing level chain per
    called function, chains interleaved randomly."""
    chains: List[List[CompileTask]] = []
    for fname in instance.called_functions:
        levels = sorted(
            rng.sample(
                range(instance.profiles[fname].num_levels),
                rng.randint(1, instance.profiles[fname].num_levels),
            )
        )
        chains.append([CompileTask(fname, lvl) for lvl in levels])
    tasks: List[CompileTask] = []
    while chains:
        chain = rng.choice(chains)
        tasks.append(chain.pop(0))
        if not chain:
            chains.remove(chain)
    return Schedule(tuple(tasks))


fault_specs = st.builds(
    FaultSpec,
    compile_fail=st.floats(min_value=0.0, max_value=1.0),
    stall=st.floats(min_value=0.0, max_value=1.0),
    stall_factor=st.floats(min_value=1.0, max_value=8.0),
    retries=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=999),
)


@settings(max_examples=80, deadline=None)
@given(instances(), fault_specs, st.randoms())
def test_faulty_makespan_at_least_lower_bound(instance, spec, hyp_rng):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    result, _ = simulate_with_faults(instance, schedule, spec)
    assert result.makespan >= lower_bound(instance)


@settings(max_examples=80, deadline=None)
@given(instances(), fault_specs, st.randoms())
def test_timeline_is_physically_consistent(instance, spec, hyp_rng):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    result, plan = simulate_with_faults(
        instance, schedule, spec, record_timeline=True
    )
    # Calls run back-to-back on the execution thread: monotone
    # non-decreasing, and each finish is start plus a real duration.
    prev_finish = 0.0
    for call in result.call_timings:
        assert call.start >= prev_finish
        assert call.finish >= call.start
        prev_finish = call.finish
    assert result.makespan == prev_finish
    # Every attempt (failed ones included) occupies its thread for
    # exactly the charged time.
    assert len(result.task_timings) == len(plan.tasks)
    for timing, charged in zip(result.task_timings, plan.compile_times):
        assert timing.finish - timing.start >= 0.0
        assert timing.finish == timing.start + charged


@settings(max_examples=80, deadline=None)
@given(
    instances(),
    fault_specs,
    st.integers(min_value=1, max_value=3),
    st.randoms(),
)
def test_engines_agree_bitwise_and_seed_reproduces(
    instance, spec, threads, hyp_rng
):
    rng = random.Random(hyp_rng.randrange(1 << 30))
    schedule = random_schedule(instance, rng)
    plan = apply_to_schedule(instance, schedule, FaultInjector(spec))
    rerun = apply_to_schedule(instance, schedule, FaultInjector(spec))
    assert plan == rerun  # same seed → identical degradation, bit for bit

    ref = simulate(
        instance,
        plan.tasks,
        compile_threads=threads,
        record_timeline=True,
        validate=False,
        task_compile_times=plan.compile_times,
        task_installs=plan.installs,
    )
    vec = VectorSimulator(instance, compile_threads=threads).evaluate(
        plan.tasks,
        record_timeline=True,
        task_compile_times=plan.compile_times,
        task_installs=plan.installs,
    )
    assert vec.makespan == ref.makespan
    assert vec.compile_end == ref.compile_end
    assert vec.total_bubble_time == ref.total_bubble_time
    assert vec.total_exec_time == ref.total_exec_time
    assert vec.calls_at_level == ref.calls_at_level
    assert vec.task_timings == ref.task_timings
    assert vec.call_timings == ref.call_timings
