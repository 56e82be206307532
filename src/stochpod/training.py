"""Concentration-parameter training.

The objective is the mean squared gap between the ensemble's distance
statistic and the truth's: f(beta) = E[ |d(u) - d(u_truth)|^2 ], with
d(u) the L2 distance to the deterministic reduced-order prediction.
Its Monte-Carlo estimate (common random numbers across beta) is
``pipeline._mc_objective`` of a driver's predictions, at one seed and
sample count per search.  Here it is memoized at integer beta (one
``ObjectiveCache`` per integer search), linearly interpolated in
between, and minimized with Brent's bounded search (golden-section
steps with parabolic interpolation; Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 5).  ``_bounded_brent`` is a port of
scipy 1.17.1's ``minimize_scalar(method="bounded")``: it makes the same
queries in the same order, to the bit, so that importing stochpod loads
no scipy module.  An optional refinement stage re-optimizes over
real-valued beta with a larger sample budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

# scipy's constants (2.2e-16, not float epsilon), so that every step has its bits
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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
    The ceiling comes first, so that a loop holding its widest streams so
    far (``pipeline._mc_draws``) fills once per new ceiling of a rising search.
    """
    lo = int(math.floor(beta))
    hi = int(math.ceil(beta))
    f_hi = cache.get_or_compute(hi, evaluator)
    if hi == lo:
        return f_hi
    f_lo = cache.get_or_compute(lo, evaluator)
    t = beta - lo
    return (1.0 - t) * f_lo + t * f_hi


def _bounded_brent(func: Callable[[float], float], lo: float, hi: float,
                   xatol: float, maxiter: int) -> tuple[float, float, bool]:
    """Minimize ``func`` on [lo, hi]: (x, f(x), converged).

    Each step is a parabola through the three best points when it is
    acceptable, and a golden-section step otherwise; no step is shorter
    than tol1 = sqrt(eps) |x| + xatol / 3.  The search stops when the
    bracket around x is within 2 tol1, unconverged when ``maxiter``
    queries have been made or when x or a value is NaN.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"bounds must be finite and ordered, got ({lo}, {hi})")
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    capped = False
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        # a zero step counts as positive; rat is finite (finite bounds)
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            capped = True
            break
    converged = not (capped or math.isnan(xf) or math.isnan(fx) or math.isnan(fu))
    return xf, fx, converged


@dataclass(frozen=True)
class BetaSearchResult:
    """A beta search's minimizer, value, queries and convergence; ``cache``
    is an integer search's ``ObjectiveCache`` (``train_integer_beta``)."""
    beta: float
    value: float
    trace: tuple          # ((beta, f) per objective query, in call order)
    converged: bool
    cache: ObjectiveCache | None = None


def optimize_beta(config: TrainingConfig,
                  objective: Callable[[float], float]) -> BetaSearchResult:
    """Minimize ``objective`` over ``config.beta_bounds`` (``_bounded_brent``),
    to ``config.tolerance`` in at most ``config.max_iter`` queries.

    Records every (beta, f) query.  When the minimizer lands within the
    tolerance of an integer, the result snaps to that integer so grid
    minima are reported exactly.  Non-convergence within the iteration
    cap returns the best point found, flagged via ``converged``.
    """
    lo, hi = config.beta_bounds
    xatol = config.tolerance
    trace: list[tuple[float, float]] = []

    def traced(b: float) -> float:
        value = float(objective(float(b)))
        trace.append((float(b), value))
        return value

    beta_star, f_star, converged = _bounded_brent(traced, lo, hi, xatol, config.max_iter)
    snapped = round(beta_star)
    if abs(beta_star - snapped) <= 2.0 * xatol and lo <= snapped <= hi:
        f_snapped = traced(float(snapped))
        if f_snapped <= f_star + 1e-15 * max(1.0, abs(f_star)):
            beta_star, f_star = float(snapped), f_snapped
    return BetaSearchResult(beta=beta_star, value=f_star, trace=tuple(trace),
                            converged=converged)


def train_integer_beta(config: TrainingConfig,
                       evaluator: Callable[[int], float]) -> BetaSearchResult:
    """Integer training stage: minimize the interpolated Monte-Carlo objective.

    The search runs on [lo, floor(hi)], so no integer above the bounds is
    evaluated.  Each integer is evaluated at most once (cache discipline);
    the returned beta is the best evaluated integer (an int), which for a
    piecewise linear interpolant is its global minimizer over the searched
    region, and ``cache`` holds every evaluated integer.
    """
    lo, hi = config.beta_bounds
    cache = ObjectiveCache()
    result = optimize_beta(replace(config, beta_bounds=(lo, float(math.floor(hi)))),
                           lambda b: interpolated_objective(b, cache, evaluator))
    best = min(cache.entries, key=lambda b: (cache.entries[b], b))     # ties: the smaller beta
    return replace(result, beta=int(best), value=cache.entries[best], cache=cache)


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
    return optimize_beta(replace(config, beta_bounds=(lo, hi), tolerance=ref.tolerance,
                                 max_iter=ref.max_iter), objective)
