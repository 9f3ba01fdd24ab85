"""Cost-benefit models used by adaptive runtime systems (Sections 2, 6.2.2).

A cost-benefit model supplies the runtime's *beliefs* about two things:

1. **times** — compile and per-invocation execution time of a method at
   each level.  Jikes RVM estimates these "through some simple linear
   functions of the size of the function" trained offline (Section 8);
   such static estimates are "often quite rough".
2. **hotness** — how often the method will run in the future.  Jikes
   RVM's adaptive system extrapolates from sampling under the
   assumption that "a hot method in the past will remain hot in the
   future" (Section 9), which systematically over-assigns expensive
   optimization levels to merely warm methods.

The paper's oracle experiment (Section 6.2.2) "simply replace[s] the
estimated time with the actual time" — times only; the hotness
prediction machinery is untouched.  We model accordingly:
:class:`EstimatedModel` distorts times with correlated noise and shares
the optimistic hotness predictor; :class:`OracleModel` reports exact
times but keeps the same predictor.  Both substitutions are documented
in DESIGN.md.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Dict, Optional

from ..core.model import FunctionProfile, OCSPInstance
from ..core.online import perturb_times

__all__ = [
    "promotion_level",
    "CostBenefitModel",
    "OracleModel",
    "EstimatedModel",
    "DEFAULT_ESTIMATION_ERROR",
    "DEFAULT_LEVEL_BIAS",
    "DEFAULT_HOTNESS_OPTIMISM",
    "DEFAULT_HOTNESS_SIGMA",
]

DEFAULT_ESTIMATION_ERROR = 0.6
"""Relative error of the default model's time estimates."""

DEFAULT_LEVEL_BIAS = 0.6
"""Per-level pessimism of the default model about optimization payoff:
the estimated execution time at level ``j`` is inflated by
``(1 + bias)**j``.  Offline-trained size-based estimators are fit to
average code and systematically understate how much the optimizing
levels help the code that matters, so the default model assigns lower
"suitable" levels than the oracle — which is why fixing the times alone
(Figure 6) lowers the reachable bound and widens every scheme's gap.
"""

DEFAULT_HOTNESS_OPTIMISM = 3.0
"""Median factor by which the hotness predictor over-extrapolates a
method's future invocation count ("hot stays hot")."""

DEFAULT_HOTNESS_SIGMA = 1.2
"""Lognormal spread of the hotness prediction across methods."""

DEFAULT_HOTNESS_FLOOR = 0.003
"""The predictor's prior: any loaded method is assumed to run at least
this fraction of the program's calls.  This is what makes offline-trained
models assign expensive optimization levels to methods that turn out to
be cold — harmless for the achievable bound (those methods barely
execute) but ruinous for schemes that eagerly compile everything at its
assigned level."""


def promotion_level(
    profile: FunctionProfile, current_level: int, future_calls: float
) -> Optional[int]:
    """Jikes RVM's recompilation test (Section 6.2.1).

    The cost of (re)compiling at level ``j`` is ``e_j * k + c_j`` where
    ``k`` estimates the method's future invocations.  With ``l`` the
    current level and ``m`` the minimal-cost level above ``l``:
    recompile at ``m`` iff ``e_m * k + c_m < e_l * k``.  The runtime's
    cost-benefit models apply it to their believed profile
    (:meth:`CostBenefitModel.recompilation_level`); the decision
    service applies it to the profile a tenant streamed.

    Returns:
        The level to recompile at, or ``None`` if staying put wins.
    """
    levels = profile.num_levels
    if current_level >= levels - 1:
        return None
    best_level: Optional[int] = None
    best_cost = float("inf")
    for j in range(current_level + 1, levels):
        cost = profile.exec_times[j] * future_calls + profile.compile_times[j]
        if cost < best_cost:
            best_cost = cost
            best_level = j
    stay_cost = profile.exec_times[current_level] * future_calls
    if best_level is not None and best_cost < stay_cost:
        return best_level
    return None


class CostBenefitModel(ABC):
    """The runtime's view of costs and future hotness.

    All level decisions in :mod:`repro.vm` and the experiment drivers go
    through one of these, so swapping the default model for the oracle
    reproduces the paper's Figure 5 → Figure 6 change.

    Args:
        instance: the workload the model is attached to (used only to
            key the deterministic prediction noise and to size the
            hotness floor).
        hotness_optimism: median over-extrapolation factor of the
            hotness predictor.
        hotness_sigma: lognormal spread of the prediction factor.
        hotness_floor: prior fraction of the program's calls any loaded
            method is assumed to reach.  ``optimism=1, sigma=0,
            floor=0`` makes the predictor exact.
        seed: RNG seed for all model noise.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        hotness_optimism: float = DEFAULT_HOTNESS_OPTIMISM,
        hotness_sigma: float = DEFAULT_HOTNESS_SIGMA,
        hotness_floor: float = DEFAULT_HOTNESS_FLOOR,
        seed: int = 0,
    ):
        if hotness_optimism <= 0:
            raise ValueError("hotness_optimism must be positive")
        if hotness_sigma < 0:
            raise ValueError("hotness_sigma must be non-negative")
        if hotness_floor < 0:
            raise ValueError("hotness_floor must be non-negative")
        self._instance_name = instance.name
        self._hotness_optimism = hotness_optimism
        self._hotness_sigma = hotness_sigma
        self._hotness_floor_calls = hotness_floor * instance.num_calls
        self._seed = seed
        self._hotness_cache: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Times (subclass responsibility)
    # ------------------------------------------------------------------
    @abstractmethod
    def profile(self, fname: str) -> FunctionProfile:
        """The believed cost table of ``fname``."""

    def compile_time(self, fname: str, level: int) -> float:
        """Estimated compilation time of ``fname`` at ``level``."""
        return self.profile(fname).compile_times[level]

    def exec_time(self, fname: str, level: int) -> float:
        """Estimated per-invocation execution time at ``level``."""
        return self.profile(fname).exec_times[level]

    def num_levels(self, fname: str) -> int:
        """Number of levels available for ``fname``."""
        return self.profile(fname).num_levels

    # ------------------------------------------------------------------
    # Hotness prediction (shared mechanism)
    # ------------------------------------------------------------------
    def _hotness_noise(self, fname: str) -> float:
        """Deterministic per-method standard-normal draw."""
        cached = self._hotness_cache.get(fname)
        if cached is not None:
            return cached
        rng = random.Random(
            repr((self._instance_name, self._seed, "hotness", fname))
        )
        z = rng.gauss(0.0, 1.0)
        self._hotness_cache[fname] = z
        return z

    def predicted_calls(self, fname: str, actual_calls: int) -> float:
        """The model's belief about ``fname``'s invocation count.

        Prediction quality improves with observed hotness: a method the
        sampler sees constantly is well characterized, while a barely-
        seen method's future is a guess dominated by the prior.  With
        ``w = 1 / (1 + (n/floor)^2)`` (1 for cold methods, falling fast
        once a method is demonstrably hot) the belief is::

            (n + w*floor) * optimism**w * exp(sigma * w * z_f)

        — exact for hot methods, optimistic and noisy for cold ones.
        """
        floor = self._hotness_floor_calls
        if floor <= 0 and self._hotness_sigma == 0 and self._hotness_optimism == 1:
            return float(actual_calls)
        w = 1.0 / (1.0 + (actual_calls / floor) ** 2) if floor > 0 else 0.0
        if w == 0.0:
            return float(actual_calls)
        z = self._hotness_noise(fname)
        factor = (self._hotness_optimism ** w) * math.exp(
            self._hotness_sigma * w * z
        )
        return (actual_calls + w * floor) * factor

    def hotness_factor(self, fname: str) -> float:
        """The cold-end prediction factor (``w = 1``); informational."""
        z = self._hotness_noise(fname)
        return self._hotness_optimism * math.exp(self._hotness_sigma * z)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def most_cost_effective_level(self, fname: str, n_calls: float) -> int:
        """Level minimizing believed ``c[l] + n_calls * e[l]`` (ties to
        the deeper level, which the predictor favours)."""
        best_level = 0
        best_cost = self.compile_time(fname, 0) + n_calls * self.exec_time(fname, 0)
        for level in range(1, self.num_levels(fname)):
            cost = self.compile_time(fname, level) + n_calls * self.exec_time(
                fname, level
            )
            if cost <= best_cost:
                best_level = level
                best_cost = cost
        return best_level

    def suitable_level(self, fname: str, actual_calls: int) -> int:
        """The "suitable" optimization level the runtime would assign:
        the most cost-effective level under the *predicted* hotness."""
        return self.most_cost_effective_level(
            fname, self.predicted_calls(fname, actual_calls)
        )

    def estimated_future_calls(
        self, fname: str, current_level: int, samples: int, sample_period: float
    ) -> float:
        """Turn a sample count into an invocation estimate.

        Jikes RVM's sampler is timer-based: ``samples * sample_period``
        approximates the time spent inside ``fname`` so far, and the
        adaptive system assumes a method's future equals its past.  The
        paper's ``k`` in the recompilation test denotes that estimate;
        dividing by the believed per-invocation time converts it to
        invocations so the test is unit-correct.
        """
        if samples <= 0:
            return 0.0
        believed_exec = self.exec_time(fname, current_level)
        if believed_exec <= 0:
            return 0.0
        return samples * sample_period / believed_exec

    def recompilation_level(
        self, fname: str, current_level: int, future_calls: float
    ) -> Optional[int]:
        """Jikes RVM's recompilation test (:func:`promotion_level`) on
        the believed profile, with ``future_calls`` the estimate ``k``
        (see :meth:`estimated_future_calls`).

        Returns:
            The level to recompile at, or ``None`` if staying put wins.
        """
        return promotion_level(self.profile(fname), current_level, future_calls)


class OracleModel(CostBenefitModel):
    """Actual times, default hotness predictor (the paper's oracle).

    "In our oracle cost-benefit model, we simply replace the estimated
    time with the actual time.  The model is not necessarily the
    optimal model, but it is the best the default cost-benefit model
    can do." (Section 6.2.2)

    Pass ``hotness_optimism=1.0, hotness_sigma=0.0`` for a fully honest
    model (exact times *and* exact future counts).
    """

    def __init__(
        self,
        instance: OCSPInstance,
        hotness_optimism: float = DEFAULT_HOTNESS_OPTIMISM,
        hotness_sigma: float = DEFAULT_HOTNESS_SIGMA,
        hotness_floor: float = DEFAULT_HOTNESS_FLOOR,
        seed: int = 0,
    ):
        super().__init__(
            instance,
            hotness_optimism=hotness_optimism,
            hotness_sigma=hotness_sigma,
            hotness_floor=hotness_floor,
            seed=seed,
        )
        self._profiles = instance.profiles

    def profile(self, fname: str) -> FunctionProfile:
        return self._profiles[fname]


class EstimatedModel(CostBenefitModel):
    """The default model: noisy time estimates plus the optimistic
    hotness predictor.

    Args:
        instance: the true instance.
        rel_error: relative magnitude of the (lognormal, per-function
            correlated) time-estimation error; 0 reproduces the oracle's
            times.
        hotness_optimism / hotness_sigma / seed: see the base class.
    """

    def __init__(
        self,
        instance: OCSPInstance,
        rel_error: float = DEFAULT_ESTIMATION_ERROR,
        level_bias: float = DEFAULT_LEVEL_BIAS,
        hotness_optimism: float = DEFAULT_HOTNESS_OPTIMISM,
        hotness_sigma: float = DEFAULT_HOTNESS_SIGMA,
        hotness_floor: float = DEFAULT_HOTNESS_FLOOR,
        seed: int = 0,
    ):
        super().__init__(
            instance,
            hotness_optimism=hotness_optimism,
            hotness_sigma=hotness_sigma,
            hotness_floor=hotness_floor,
            seed=seed,
        )
        if level_bias < 0:
            raise ValueError("level_bias must be non-negative")
        rng = random.Random(repr((instance.name, seed, "times")))
        # Correlated noise: a size-based linear estimator is wrong about
        # magnitudes but mostly consistent across levels of one method.
        self._estimates: Dict[str, FunctionProfile] = {}
        for fname, prof in sorted(instance.profiles.items()):
            noisy = perturb_times(prof, rel_error, rng, correlated=True)
            if level_bias > 0:
                biased_exec = [
                    e * (1.0 + level_bias) ** j
                    for j, e in enumerate(noisy.exec_times)
                ]
                # Pessimism must not break monotonicity outright.
                for j in range(1, len(biased_exec)):
                    if biased_exec[j] > biased_exec[j - 1]:
                        biased_exec[j] = biased_exec[j - 1]
                noisy = noisy.with_times(exec_times=biased_exec)
            self._estimates[fname] = noisy

    def profile(self, fname: str) -> FunctionProfile:
        return self._estimates[fname]
