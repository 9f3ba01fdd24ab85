"""Cross-run call-sequence prediction (Section 8, first barrier).

"The first barrier is in getting or estimating the call sequence of a
production run.  It could be tackled through some recently developed
techniques, such as cross-run learning and prediction."  The paper
cites sequence-prediction work ([34]) but builds none; this module
supplies a concrete, simple instance so the online-IAR pipeline can be
exercised end to end:

* :class:`MarkovPredictor` — an order-``k`` Markov model over function
  names fitted on one (training) run, generating the most-likely
  continuation for the next run;
* :func:`cross_run_iar` — fit on run A, predict run B's sequence, plan
  IAR on the prediction, execute on the true run B.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import lower_bound
from .iar import IARParams, iar
from .makespan import simulate
from .model import OCSPInstance
from .schedule import CompileTask, Schedule

__all__ = ["MarkovPredictor", "CrossRunResult", "cross_run_iar"]


class MarkovPredictor:
    """Order-``k`` Markov model over a call sequence.

    Generation samples the learned conditional distribution with a
    seeded RNG (greedy argmax collapses into a fixed point on skewed
    traces — the single hottest function self-loops forever — whereas
    sampling preserves the hotness mix).  Next-call *scoring* uses the
    argmax.  Unseen contexts back off to shorter ones, ultimately to
    the global frequency distribution.

    Args:
        order: context length ``k`` (>= 1).
    """

    def __init__(self, order: int = 2):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self._tables: List[Dict[Tuple[str, ...], Counter]] = [
            defaultdict(Counter) for _ in range(order + 1)
        ]
        self._fitted = False

    def fit(self, sequence: Sequence[str]) -> "MarkovPredictor":
        """Count successor frequencies for every context length up to
        ``order`` (shorter contexts serve as back-off)."""
        if not sequence:
            raise ValueError("cannot fit on an empty sequence")
        tables = self._tables
        window: Tuple[str, ...] = ()
        for fname in sequence:
            for k in range(len(window) + 1):
                tables[k][window[len(window) - k :]][fname] += 1
            window = (window + (fname,))[-self.order :]
        self._fitted = True
        return self

    def _successor_counts(self, context: Tuple[str, ...]) -> Counter:
        for k in range(min(self.order, len(context)), -1, -1):
            key = context[len(context) - k :] if k else ()
            counter = self._tables[k].get(key)
            if counter:
                return counter
        raise RuntimeError("unreachable: order-0 table is never empty")

    def _next(self, context: Tuple[str, ...]) -> str:
        counter = self._successor_counts(context)
        # Most frequent; ties resolve alphabetically.
        return min(counter, key=lambda f: (-counter[f], f))

    def _sample(self, context: Tuple[str, ...], rng) -> str:
        counter = self._successor_counts(context)
        names = sorted(counter)
        total = sum(counter[f] for f in names)
        pick = rng.random() * total
        acc = 0.0
        for fname in names:
            acc += counter[fname]
            if pick < acc:
                return fname
        return names[-1]

    def predict(
        self,
        length: int,
        prefix: Optional[Sequence[str]] = None,
        seed: int = 0,
    ) -> Tuple[str, ...]:
        """Generate a sequence of ``length`` calls by seeded sampling.

        Args:
            length: number of calls to emit.
            prefix: seed context (defaults to the empty context).
            seed: RNG seed; identical seeds reproduce the sequence.

        Raises:
            RuntimeError: if :meth:`fit` has not been called.
        """
        if not self._fitted:
            raise RuntimeError("fit() the predictor before predicting")
        rng = random.Random(seed)
        out: List[str] = list(prefix or ())
        generated: List[str] = []
        for _ in range(length):
            nxt = self._sample(tuple(out[-self.order :]), rng)
            out.append(nxt)
            generated.append(nxt)
        return tuple(generated)

    def accuracy(self, sequence: Sequence[str]) -> float:
        """Fraction of next-call predictions that match ``sequence``."""
        if not self._fitted:
            raise RuntimeError("fit() the predictor before evaluating")
        if not sequence:
            return 0.0
        hits = 0
        window: Tuple[str, ...] = ()
        for fname in sequence:
            if self._next(window) == fname:
                hits += 1
            window = (window + (fname,))[-self.order :]
        return hits / len(sequence)


@dataclass(frozen=True)
class CrossRunResult:
    """Outcome of planning on a predicted sequence.

    Attributes:
        makespan: make-span of the cross-run-planned schedule on the
            actual run.
        oracle_makespan: IAR with the actual sequence (the offline
            limit).
        lower_bound: exec-only bound of the actual run.
        prediction_accuracy: next-call accuracy of the predictor on the
            actual sequence.
    """

    makespan: float
    oracle_makespan: float
    lower_bound: float
    prediction_accuracy: float

    @property
    def degradation(self) -> float:
        return (
            self.makespan / self.oracle_makespan if self.oracle_makespan else 1.0
        )


def cross_run_iar(
    train_instance: OCSPInstance,
    actual_instance: OCSPInstance,
    order: int = 2,
    params: IARParams = IARParams(),
) -> CrossRunResult:
    """Fit on a training run, plan for the actual run, measure reality.

    Both instances must share their profile table (same program,
    different inputs/run).  Functions the prediction misses fall back
    to on-demand level-0 compiles appended at the end.

    Raises:
        ValueError: if the instances disagree on a shared function's
            profile.
    """
    for fname, prof in train_instance.profiles.items():
        other = actual_instance.profiles.get(fname)
        if other is not None and other != prof:
            raise ValueError(f"profile mismatch for {fname!r} across runs")

    predictor = MarkovPredictor(order=order).fit(train_instance.calls)
    predicted_calls = predictor.predict(actual_instance.num_calls)
    predicted = OCSPInstance(
        profiles=train_instance.profiles,
        calls=predicted_calls,
        name=f"{actual_instance.name}~predicted",
    )

    planned = iar(predicted, params).schedule
    # Drop tasks for functions the actual run does not know (they would
    # be unloadable there); compiling them would be wasted time anyway.
    planned = Schedule(
        tuple(t for t in planned if t.function in actual_instance.profiles)
    )
    compiled = set(planned.functions())
    missing = [
        f for f in actual_instance.called_functions if f not in compiled
    ]
    if missing:
        planned = planned.extend(CompileTask(f, 0) for f in missing)

    truth = simulate(actual_instance, planned, validate=False)
    oracle_sched = iar(actual_instance, params).schedule
    oracle = simulate(actual_instance, oracle_sched, validate=False)
    return CrossRunResult(
        makespan=truth.makespan,
        oracle_makespan=oracle.makespan,
        lower_bound=lower_bound(actual_instance),
        prediction_accuracy=predictor.accuracy(actual_instance.calls),
    )
