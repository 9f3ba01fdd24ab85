"""Property-based tests (hypothesis) for the core invariants.

Strategies build random-but-valid OCSP instances (monotone cost tables,
arbitrary call sequences) and random valid schedules, then check the
structural invariants the rest of the library relies on.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CompileTask,
    FunctionProfile,
    OCSPInstance,
    Schedule,
    iar,
    iar_schedule,
    lower_bound,
    optimal_schedule,
    simulate,
    simulate_single_core,
)
from repro.core.iar import IARParams
from repro.core.singlecore import (
    single_core_optimal_makespan,
    single_core_optimal_schedule,
)
from repro.workloads import traces

times = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
# validate_monotone_levels accepts zero compile and exec times; equal
# finish times are the edge of A*'s resumable replay.
zero_times = st.one_of(st.just(0.0), times)


@st.composite
def profiles_strategy(draw, max_functions=4, max_levels=3, values=times):
    n_funcs = draw(st.integers(min_value=1, max_value=max_functions))
    profiles: Dict[str, FunctionProfile] = {}
    for i in range(n_funcs):
        n_levels = draw(st.integers(min_value=1, max_value=max_levels))
        compile_times = sorted(
            draw(st.lists(values, min_size=n_levels, max_size=n_levels))
        )
        exec_times = sorted(
            draw(st.lists(values, min_size=n_levels, max_size=n_levels)),
            reverse=True,
        )
        name = f"f{i}"
        profiles[name] = FunctionProfile(name, tuple(compile_times), tuple(exec_times))
    return profiles


@st.composite
def instances(draw, max_functions=4, max_levels=3, max_calls=12, values=times):
    profiles = draw(profiles_strategy(max_functions, max_levels, values))
    names = sorted(profiles)
    calls = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=max_calls)
    )
    return OCSPInstance(profiles, tuple(calls), name="prop")


@st.composite
def instance_and_schedule(draw):
    inst = draw(instances())
    tasks: List[CompileTask] = []
    last: Dict[str, int] = {}
    # Cover every called function, then sprinkle random recompiles.
    for fname in inst.called_functions:
        level = draw(
            st.integers(min_value=0, max_value=inst.max_level(fname))
        )
        tasks.append(CompileTask(fname, level))
        last[fname] = level
    extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        candidates = [
            f for f in inst.called_functions if last[f] < inst.max_level(f)
        ]
        if not candidates:
            break
        fname = draw(st.sampled_from(sorted(candidates)))
        level = draw(
            st.integers(min_value=last[fname] + 1, max_value=inst.max_level(fname))
        )
        tasks.append(CompileTask(fname, level))
        last[fname] = level
    order = draw(st.permutations(range(len(tasks))))
    # Keep per-function relative order (levels must increase).
    by_func: Dict[str, List[CompileTask]] = {}
    for t in tasks:
        by_func.setdefault(t.function, []).append(t)
    cursor = {f: 0 for f in by_func}
    shuffled: List[CompileTask] = []
    for idx in order:
        f = tasks[idx].function
        shuffled.append(by_func[f][cursor[f]])
        cursor[f] += 1
    return inst, Schedule(tuple(shuffled))


@settings(max_examples=120, deadline=None)
@given(instance_and_schedule())
def test_makespan_decomposition(data):
    """makespan == total exec + total bubbles (one execution thread)."""
    inst, sched = data
    result = simulate(inst, sched)
    assert result.makespan == pytest.approx(
        result.total_exec_time + result.total_bubble_time
    )


@settings(max_examples=120, deadline=None)
@given(instance_and_schedule())
def test_makespan_at_least_lower_bound(data):
    inst, sched = data
    result = simulate(inst, sched)
    # The compile-aware bound lower-bounds the OPTIMUM, not every
    # schedule; only the plain exec bound must hold universally.
    assert result.makespan >= lower_bound(inst) - 1e-9


@settings(max_examples=100, deadline=None)
@given(instance_and_schedule(), st.integers(min_value=2, max_value=4))
def test_more_compile_threads_never_hurt_without_recompiles(data, threads):
    """Thread-count monotonicity holds for single-compile-per-function
    schedules: extra threads only make code available earlier, and with
    one version per function "earlier" can only shrink bubbles.

    It does NOT hold for general schedules — see
    ``test_thread_anomaly_with_recompiles`` below.
    """
    inst, sched = data
    seen = set()
    single_tasks = []
    for task in sched:
        if task.function not in seen:
            seen.add(task.function)
            single_tasks.append(task)
    single = Schedule(tuple(single_tasks))
    one = simulate(inst, single).makespan
    many = simulate(inst, single, compile_threads=threads).makespan
    assert many <= one + 1e-9


def test_thread_anomaly_with_recompiles():
    """A Graham-style anomaly, found by hypothesis: adding a compiler
    thread can INCREASE the make-span.  With two threads, f1's compile
    no longer queues behind f0's slow recompile, execution starts
    earlier — and f0's call now catches the slow level-0 version that a
    later start would have skipped."""
    profiles = {
        "f0": FunctionProfile("f0", (1.0, 4.0), (6.0, 1.0)),
        "f1": FunctionProfile("f1", (1.0,), (1.0,)),
    }
    inst = OCSPInstance(profiles, ("f1", "f0"), name="anomaly")
    sched = Schedule.of(("f0", 0), ("f0", 1), ("f1", 0))
    one = simulate(inst, sched).makespan
    two = simulate(inst, sched, compile_threads=2).makespan
    assert one == 8.0   # f1 waits for the whole queue; f0 runs at L1
    assert two == 9.0   # f1 ready at 2, f0 starts at 3 on L0 code
    assert two > one


@settings(max_examples=80, deadline=None)
@given(instance_and_schedule())
def test_calls_at_level_counts_every_call(data):
    inst, sched = data
    result = simulate(inst, sched)
    assert sum(result.calls_at_level.values()) == inst.num_calls


@settings(max_examples=60, deadline=None)
@given(instances())
def test_iar_produces_valid_schedule(inst):
    sched = iar_schedule(inst)
    sched.validate(inst)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_iar_never_beats_lower_bound(inst):
    span = simulate(inst, iar_schedule(inst), validate=False).makespan
    assert span >= lower_bound(inst) - 1e-9


@pytest.mark.parametrize(
    "params",
    [IARParams(), IARParams(refine_slack=False), IARParams(fill_gap=False)],
    ids=["default", "no-slack", "no-gap"],
)
@settings(max_examples=200, deadline=None)
@given(inst=instances())
def test_iar_returns_its_schedules_makespan(params, inst):
    for engine in ("vector", "reference"):
        result = iar(inst, params, engine=engine)
        expected = simulate(
            inst, result.schedule, validate=False, engine=engine
        ).makespan
        assert result.makespan.hex() == expected.hex()


@settings(max_examples=30, deadline=None)
@given(instances(max_functions=3, max_levels=2, max_calls=8))
def test_iar_never_beats_true_optimum(inst):
    opt = optimal_schedule(inst)
    span = simulate(inst, iar_schedule(inst), validate=False).makespan
    assert span >= opt.makespan - 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        instances(max_functions=3, max_levels=2, max_calls=8),
        instances(max_functions=3, max_levels=2, max_calls=8, values=zero_times),
    )
)
def test_astar_matches_bruteforce(inst):
    from repro.core import astar_schedule

    exact = optimal_schedule(inst)
    astar = astar_schedule(inst)
    assert astar.makespan == pytest.approx(exact.makespan)
    # The reported make-span is its schedule's, bitwise.
    assert astar.makespan == simulate(inst, astar.schedule).makespan


@st.composite
def instance_and_task_path(draw):
    """A zero-time instance and a random path of A*'s tree: tasks in
    which each function's levels only rise, possibly skipping some."""
    inst = draw(instances(max_functions=3, max_levels=3, values=zero_times))
    last = {fname: -1 for fname in inst.called_functions}
    path: List[CompileTask] = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        open_functions = [f for f in sorted(last) if last[f] < inst.max_level(f)]
        if not open_functions:
            break
        fname = draw(st.sampled_from(open_functions))
        level = draw(
            st.integers(min_value=last[fname] + 1, max_value=inst.max_level(fname))
        )
        path.append(CompileTask(fname, level))
        last[fname] = level
    return inst, path


def _task_ids(tree, path):
    return [tree.task.index(task) for task in path]


@settings(max_examples=200, deadline=None)
@given(instances(max_functions=3, max_levels=3, values=zero_times))
def test_astar_pushes_equal_the_from_zero_oracle(inst):
    """Every heap entry the search pushes, priced from its parent's
    resume state, equals the from-zero oracle's, bitwise and in order
    (zero compile and exec times make finish and start ties common)."""
    from tests.astar_oracle import bitwise, oracle_pushes, search_pushes

    assert bitwise(search_pushes(inst)) == bitwise(oracle_pushes(inst))


@settings(max_examples=200, deadline=None)
@given(instance_and_task_path())
def test_astar_resumed_replay_equals_full_replay(case):
    """At every node on the path, one sweep over the children's window
    ends gives each child the f of its own replay from time 0, bitwise."""
    from tests.astar_oracle import _Tree, _sweep

    inst, path = case
    tree = _Tree(inst)
    ids = _task_ids(tree, path)
    for j in range(len(ids) + 1):
        events, last, t_end = tree.window(ids[:j])
        children = tree.children(last)
        ends = [t_end + tree.compile[tid] for tid in children]
        values, _ = _sweep(tree.calls, events, ends)
        for tid, f in zip(children, values):
            child_events, _, t_child = tree.window(ids[:j] + [tid])
            (replayed,), _ = _sweep(tree.calls, child_events, [t_child])
            assert f.hex() == replayed.hex()


@settings(max_examples=200, deadline=None)
@given(instance_and_task_path(), st.data())
def test_astar_sweep_prices_every_window_end(case, data):
    """For window ends at or after t(v), in any order and with repeats,
    the sweep's value at each end is, bitwise, a replay from time 0 of
    the path plus a task finishing at that end."""
    from tests.astar_oracle import _Tree, _sweep

    inst, path = case
    tree = _Tree(inst)
    events, last, t_end = tree.window(_task_ids(tree, path))
    ends = [t_end + c for c in data.draw(st.lists(zero_times, max_size=6))]
    if ends:
        ends += data.draw(st.lists(st.sampled_from(ends), max_size=3))
    ends = data.draw(st.permutations(ends))
    children = tree.children(last)
    values, _ = _sweep(tree.calls, events, ends)
    assert len(values) == len(ends)
    for end, f in zip(ends, values):
        with_task = [list(fevents) for fevents in events]
        if children:
            tid = data.draw(st.sampled_from(children))
            with_task[tree.fn[tid]].append((end,) + tree.exec[tid])
        (replayed,), _ = _sweep(tree.calls, with_task, [end])
        assert f.hex() == replayed.hex()


@settings(max_examples=200, deadline=None)
@given(instance_and_task_path())
def test_astar_sweep_to_the_end_is_the_makespan(case):
    """On every path that compiles all called functions, the sweep run
    past its children's windows to the end of the trace stops its clock
    at simulate's make-span, bitwise."""
    from tests.astar_oracle import _Tree, _sweep

    inst, path = case
    tree = _Tree(inst)
    ids = _task_ids(tree, path)
    for j in range(1, len(ids) + 1):
        events, last, t_end = tree.window(ids[:j])
        if min(last) < 0:
            continue
        ends = [t_end + tree.compile[tid] for tid in tree.children(last)]
        _, clock = _sweep(tree.calls, events, ends, to_end=True)
        exact = simulate(inst, Schedule(tuple(path[:j])), validate=False).makespan
        assert clock.hex() == exact.hex()


@settings(max_examples=100, deadline=None)
@given(instance_and_task_path())
def test_astar_heuristic_never_overestimates(case):
    """f(v) + LB is at most the make-span of any completion of v, here v
    itself once it compiles every called function (ties in finish and
    start times included)."""
    from tests.astar_oracle import _Tree, _sweep

    inst, path = case
    tree = _Tree(inst)
    ids = _task_ids(tree, path)
    for j in range(1, len(ids) + 1):
        events, last, t_end = tree.window(ids[:j])
        if min(last) < 0:
            continue
        (f,), _ = _sweep(tree.calls, events, [t_end])
        exact = simulate(inst, Schedule(tuple(path[:j])), validate=False).makespan
        assert f + lower_bound(inst) <= exact + 1e-9 * max(1.0, exact)


@settings(max_examples=60, deadline=None)
@given(instance_and_schedule())
def test_single_core_theorem_lower_bounds_all_schedules(data):
    """Theorem 1's formula is <= the single-core make-span of ANY
    valid schedule."""
    inst, sched = data
    formula = single_core_optimal_makespan(inst)
    assert simulate_single_core(inst, sched).makespan >= formula - 1e-9


@settings(max_examples=60, deadline=None)
@given(instances())
def test_single_core_optimal_schedule_achieves_formula(inst):
    sched = single_core_optimal_schedule(inst)
    span = simulate_single_core(inst, sched).makespan
    assert span == pytest.approx(single_core_optimal_makespan(inst))


@settings(max_examples=60, deadline=None)
@given(instances())
def test_trace_roundtrip(inst):
    back = traces.from_json(traces.to_json(inst))
    assert back.calls == inst.calls
    assert back.profiles == dict(inst.profiles)


@settings(max_examples=60, deadline=None)
@given(instance_and_schedule())
def test_useless_tail_never_extends_makespan(data):
    inst, sched = data
    base = simulate(inst, sched).makespan
    fname = inst.called_functions[0]
    top = inst.max_level(fname)
    if (sched.highest_level_of(fname) or 0) >= top:
        return
    extended = Schedule(sched.tasks + (CompileTask(fname, top),))
    assert simulate(inst, extended).makespan <= base + 1e-9


def _reference_simulate(inst, sched, compile_threads=1):
    """Naive O(N*T) re-implementation of the make-span semantics, used
    to differential-test the optimized simulator."""
    # Compile task timing: each task goes to the earliest-free thread.
    free = [0.0] * compile_threads
    events = []  # (finish, level) per task, grouped later
    for task in sched:
        tid = min(range(compile_threads), key=lambda i: free[i])
        start = free[tid]
        finish = start + inst.profiles[task.function].compile_times[task.level]
        free[tid] = finish
        events.append((task.function, finish, task.level))
    t = 0.0
    bubbles = 0.0
    exec_total = 0.0
    for fname in inst.calls:
        mine = [(f, lvl) for name, f, lvl in events if name == fname]
        earliest = min(f for f, _lvl in mine)
        start = max(t, earliest)
        bubbles += start - t
        best = max(lvl for f, lvl in mine if f <= start)
        e = inst.profiles[fname].exec_times[best]
        exec_total += e
        t = start + e
    return t, bubbles, exec_total


@settings(max_examples=80, deadline=None)
@given(instance_and_schedule(), st.integers(min_value=1, max_value=3))
def test_simulator_matches_reference(data, threads):
    """Differential test: the optimized simulator agrees with a naive
    re-implementation of the semantics, for any thread count."""
    inst, sched = data
    fast = simulate(inst, sched, compile_threads=threads)
    span, bubbles, exec_total = _reference_simulate(inst, sched, threads)
    assert fast.makespan == pytest.approx(span)
    assert fast.total_bubble_time == pytest.approx(bubbles)
    assert fast.total_exec_time == pytest.approx(exec_total)


@settings(max_examples=40, deadline=None)
@given(instances(max_functions=4, max_levels=3, max_calls=14))
def test_reactive_runtimes_produce_valid_schedules(inst):
    """Whatever the workload, the Jikes/V8/tiered co-simulations emit
    legal OCSP schedules and respect the make-span decomposition."""
    from repro.vm.hotspot import run_tiered
    from repro.vm.jikes import run_jikes
    from repro.vm.v8 import run_v8

    for result in (
        run_jikes(inst, sample_period=1.0),
        run_v8(inst),
        run_tiered(inst, thresholds=(1, 3)),
    ):
        result.schedule.validate(inst)
        assert result.makespan >= lower_bound(inst) - 1e-9
        assert result.makespan == pytest.approx(
            result.total_exec_time + result.total_bubble_time
        )


@settings(max_examples=40, deadline=None)
@given(instances())
def test_diagnose_decomposition_is_exact(inst):
    from repro.analysis.diagnose import diagnose

    sched = iar_schedule(inst)
    d = diagnose(inst, sched)
    assert d.makespan == pytest.approx(
        d.lower_bound
        + d.bubbles
        + d.excess_before_upgrade
        + d.excess_never_upgraded
    )


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=400))
def test_localsearch_never_worse(inst, iterations):
    from repro.core import improve_schedule

    start = iar_schedule(inst)
    improved, stats = improve_schedule(inst, start, iterations=iterations, seed=1)
    improved.validate(inst)
    assert stats.final_makespan <= stats.initial_makespan + 1e-9


@settings(max_examples=60, deadline=None)
@given(instance_and_schedule())
def test_osr_never_slower_than_call_start_rule(data):
    """On-stack replacement can only help: with zero switch cost its
    make-span is bounded by the call-start-rule simulator's."""
    from repro.core.osr import simulate_osr

    inst, sched = data
    plain = simulate(inst, sched).makespan
    osr = simulate_osr(inst, sched).makespan
    assert osr <= plain + 1e-6
    assert osr >= lower_bound(inst) - 1e-9


@settings(max_examples=60, deadline=None)
@given(instances(max_functions=3, max_levels=2, max_calls=8))
def test_warmup_bound_brackets_the_optimum(inst):
    """exec-LB <= warmup-LB <= true optimum, on random tiny instances."""
    from repro.core import warmup_aware_lower_bound

    opt = optimal_schedule(inst)
    warm = warmup_aware_lower_bound(inst)
    assert lower_bound(inst) <= warm + 1e-9
    assert warm <= opt.makespan + 1e-9
