"""Concentration-parameter training.

The objective is the mean squared gap between the ensemble's distance
statistic and the truth's: f(beta) = E[ |d(u) - d(u_truth)|^2 ], with
d(u) the L2 distance to the deterministic reduced-order prediction.
Its Monte-Carlo estimate (common random numbers across beta) is
``pipeline._mc_objective`` of a driver's predictions, at one seed and
sample count per search.  Here it is memoized at integer beta (one
``ObjectiveCache`` per integer search), linearly interpolated in
between, and minimized with a bounded golden-section/parabolic scalar
search.  An optional refinement stage re-optimizes over real-valued
beta with a larger sample budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from scipy.optimize import minimize_scalar


class ObjectiveCache:
    """Memoizes the integer-beta objective estimates of one evaluator.

    At most one entry per integer, and an entry is never recomputed.
    A cache is private to one ``train_integer_beta`` call, so all its
    entries share that call's seed and sample count.
    """

    def __init__(self):
        self.entries: dict[int, float] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, beta_int: int, evaluator: Callable[[int], float]) -> float:
        if beta_int in self.entries:
            self.hits += 1
            return self.entries[beta_int]
        value = float(evaluator(beta_int))
        self.entries[beta_int] = value
        self.misses += 1
        return value

    def best(self) -> tuple[int, float]:
        beta = min(self.entries, key=lambda b: (self.entries[b], b))
        return beta, self.entries[beta]


@dataclass(frozen=True)
class RefinementConfig:
    enabled: bool = False
    window: float = 1.0
    mc_samples: int = 100_000
    tolerance: float = 1e-10
    max_iter: int = 100


@dataclass(frozen=True)
class TrainingConfig:
    beta_bounds: tuple[float, float]
    mc_samples: int = 1000
    tolerance: float = 1e-3
    max_iter: int = 100
    refinement: RefinementConfig = field(default_factory=RefinementConfig)

    def __post_init__(self):
        lo, hi = self.beta_bounds
        if not lo < hi:
            raise ValueError("beta bounds must be ordered")
        if self.mc_samples < 2 or self.refinement.mc_samples < 2:
            raise ValueError("Monte-Carlo sample counts must be >= 2")


def interpolated_objective(beta: float, cache: ObjectiveCache,
                           evaluator: Callable[[int], float]) -> float:
    """Objective at real beta via linear interpolation of integer estimates.

    Integer queries return the cached value directly (no new evaluation).
    """
    lo = int(math.floor(beta))
    hi = int(math.ceil(beta))
    f_lo = cache.get_or_compute(lo, evaluator)
    if hi == lo:
        return f_lo
    f_hi = cache.get_or_compute(hi, evaluator)
    t = beta - lo
    return (1.0 - t) * f_lo + t * f_hi


@dataclass(frozen=True)
class BetaSearchResult:
    beta: float
    value: float
    trace: tuple          # ((beta, f) per objective query, in call order)
    converged: bool


def optimize_beta(config: TrainingConfig, objective: Callable[[float], float],
                  bounds: tuple[float, float] | None = None,
                  tolerance: float | None = None,
                  max_iter: int | None = None) -> BetaSearchResult:
    """Bounded scalar minimization (golden section + parabolic steps).

    Records every (beta, f) query.  When the minimizer lands within the
    tolerance of an integer, the result snaps to that integer so grid
    minima are reported exactly.  Non-convergence within the iteration
    cap returns the best point found, flagged via ``converged``.
    """
    lo, hi = bounds if bounds is not None else config.beta_bounds
    xatol = config.tolerance if tolerance is None else tolerance
    cap = config.max_iter if max_iter is None else max_iter
    trace: list[tuple[float, float]] = []

    def traced(b: float) -> float:
        value = float(objective(float(b)))
        trace.append((float(b), value))
        return value

    res = minimize_scalar(traced, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": cap})
    beta_star, f_star = float(res.x), float(res.fun)
    snapped = round(beta_star)
    if abs(beta_star - snapped) <= 2.0 * xatol and lo <= snapped <= hi:
        f_snapped = traced(float(snapped))
        if f_snapped <= f_star + 1e-15 * max(1.0, abs(f_star)):
            beta_star, f_star = float(snapped), f_snapped
    return BetaSearchResult(beta=beta_star, value=f_star, trace=tuple(trace),
                            converged=bool(res.success))


@dataclass(frozen=True)
class IntegerTrainingResult:
    beta: int
    value: float
    cache: ObjectiveCache
    trace: tuple
    converged: bool


def train_integer_beta(config: TrainingConfig,
                       evaluator: Callable[[int], float]) -> IntegerTrainingResult:
    """Integer training stage: minimize the interpolated Monte-Carlo objective.

    Each integer is evaluated at most once (cache discipline); the
    returned beta is the best evaluated integer, which for a piecewise
    linear interpolant is its global minimizer over the searched region.
    """
    cache = ObjectiveCache()
    result = optimize_beta(
        config, lambda b: interpolated_objective(b, cache, evaluator))
    beta_best, value_best = cache.best()
    return IntegerTrainingResult(beta=int(beta_best), value=value_best,
                                 cache=cache, trace=result.trace,
                                 converged=result.converged)


def refinement_bounds(beta_int: float, config: TrainingConfig) -> tuple[float, float]:
    """[beta_int - w, beta_int + w] clipped to the training bounds: the
    betas the refinement can ask its objective for."""
    lo, hi = config.beta_bounds
    window = config.refinement.window
    return max(lo, beta_int - window), min(hi, beta_int + window)


def refine_beta_real(beta_int: float, config: TrainingConfig,
                     objective: Callable[[float], float]) -> BetaSearchResult:
    """Real-valued refinement around the integer optimum.

    Searches [beta_int - w, beta_int + w] clipped to the training bounds,
    evaluating the fractional-beta objective directly (no interpolation).
    A degenerate window returns beta_int unchanged.
    """
    ref = config.refinement
    lo, hi = refinement_bounds(beta_int, config)
    if hi <= lo:
        value = float(objective(float(beta_int)))
        return BetaSearchResult(beta=float(beta_int), value=value,
                                trace=((float(beta_int), value),),
                                converged=True)
    return optimize_beta(config, objective, bounds=(lo, hi),
                         tolerance=ref.tolerance, max_iter=ref.max_iter)
