"""Tests for cross-run call-sequence prediction (Section 8)."""

from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FunctionProfile, MarkovPredictor, OCSPInstance, cross_run_iar
from repro.workloads import WorkloadSpec, dacapo, generate


def _per_index_tables(order, sequence):
    """The per-index fit loop the one-pass fit replaced."""
    tables = [defaultdict(Counter) for _ in range(order + 1)]
    for k in range(order + 1):
        table = tables[k]
        for i in range(len(sequence)):
            if i < k:
                continue
            context = tuple(sequence[i - k : i])
            table[context][sequence[i]] += 1
    return tables


def _per_index_accuracy(predictor, sequence):
    """The per-index scoring loop the one-pass accuracy replaced."""
    hits = 0
    for i in range(len(sequence)):
        context = tuple(sequence[max(0, i - predictor.order) : i])
        if predictor._next(context) == sequence[i]:
            hits += 1
    return hits / len(sequence)


def _ordered(tables):
    """Keys, counts and insertion order of every table."""
    return [
        [(context, list(counter.items())) for context, counter in table.items()]
        for table in tables
    ]


def _assert_one_pass_is_per_index(order, train, test):
    predictor = MarkovPredictor(order=order).fit(train)
    assert _ordered(predictor._tables) == _ordered(_per_index_tables(order, train))
    assert predictor.accuracy(test) == _per_index_accuracy(predictor, test)


class TestMarkovPredictor:
    def test_fit_required(self):
        with pytest.raises(RuntimeError):
            MarkovPredictor().predict(5)
        with pytest.raises(RuntimeError):
            MarkovPredictor().accuracy(["a"])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            MarkovPredictor().fit([])

    def test_bad_order(self):
        with pytest.raises(ValueError):
            MarkovPredictor(order=0)

    def test_learns_a_cycle(self):
        seq = ["a", "b", "c"] * 50
        predictor = MarkovPredictor(order=2).fit(seq)
        predicted = predictor.predict(9, prefix=["a", "b"])
        assert predicted == ("c", "a", "b", "c", "a", "b", "c", "a", "b")

    def test_perfect_accuracy_on_training_cycle(self):
        seq = ["x", "y"] * 40
        predictor = MarkovPredictor(order=1).fit(seq)
        assert predictor.accuracy(seq) > 0.95

    def test_backoff_for_unseen_context(self):
        seq = ["a", "a", "b"] * 30
        predictor = MarkovPredictor(order=2).fit(seq)
        # Context never seen: falls back to shorter contexts / global.
        out = predictor.predict(1, prefix=["zzz", "qqq"])
        assert out[0] in {"a", "b"}

    def test_prediction_emits_requested_length(self):
        predictor = MarkovPredictor().fit(["a", "b"] * 10)
        assert len(predictor.predict(17)) == 17


_NAMES = st.lists(st.sampled_from("abcde"), min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(min_value=1, max_value=4), train=_NAMES, test=_NAMES)
def test_one_pass_fit_and_accuracy_are_the_per_index_loops(order, train, test):
    _assert_one_pass_is_per_index(order, train, test)


def test_one_pass_is_the_per_index_loop_on_a_preset_trace():
    calls = dacapo.load("antlr", scale=0.002).calls
    for order in (1, 2, 3):
        _assert_one_pass_is_per_index(order, calls, calls)


class TestCrossRunIAR:
    def _runs(self):
        from repro.core import perturb_sequence

        spec = WorkloadSpec(
            name="xrun",
            num_functions=25,
            num_calls=4000,
            num_levels=2,
            base_compile_us=40.0,
            mean_exec_us=2.0,
            zipf_s=1.3,
        )
        # Two runs of the "same program on different input": run B is a
        # perturbed replay of run A (same hot set, locally reshuffled).
        run_a = generate(spec, seed=31)
        run_b = perturb_sequence(run_a, error_rate=0.25, seed=99)
        run_b = OCSPInstance(run_a.profiles, run_b.calls, name="xrun-b")
        return run_a, run_b

    def test_cross_run_planning_beats_nothing_blows_up(self):
        run_a, run_b = self._runs()
        result = cross_run_iar(run_a, run_b)
        assert result.makespan >= result.lower_bound
        assert 0.0 <= result.prediction_accuracy <= 1.0

    def test_same_run_prediction_is_nearly_oracle(self):
        run_a, _ = self._runs()
        result = cross_run_iar(run_a, run_a)
        assert result.degradation < 1.25

    def test_cross_run_degradation_is_bounded(self):
        run_a, run_b = self._runs()
        result = cross_run_iar(run_a, run_b)
        # The two runs share hotness structure, so the planned schedule
        # must stay in the oracle's neighbourhood.
        assert result.degradation < 1.6

    def test_profile_mismatch_rejected(self):
        run_a, run_b = self._runs()
        tampered_profiles = dict(run_b.profiles)
        fname = next(iter(tampered_profiles))
        prof = tampered_profiles[fname]
        tampered_profiles[fname] = FunctionProfile(
            fname, tuple(c * 2 for c in prof.compile_times), prof.exec_times
        )
        tampered = OCSPInstance(tampered_profiles, run_b.calls, name="bad")
        with pytest.raises(ValueError, match="mismatch"):
            cross_run_iar(run_a, tampered)

    def test_unknown_functions_in_actual_get_fallback(self):
        run_a, run_b = self._runs()
        extra = dict(run_b.profiles)
        extra["newcomer"] = FunctionProfile("newcomer", (5.0, 50.0), (4.0, 1.0))
        actual = OCSPInstance(
            extra, run_b.calls + ("newcomer",) * 5, name="with-new"
        )
        result = cross_run_iar(run_a, actual)
        assert result.makespan >= result.lower_bound
