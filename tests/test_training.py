import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import stochpod as sp
from stochpod.pipeline import _mc_objective
from stochpod.training import (ObjectiveCache, RefinementConfig, TrainingConfig,
                               _bounded_brent)


def make_config(lo=4.0, hi=20.0, **kw):
    return TrainingConfig(beta_bounds=(lo, hi), **kw)


# ---------------------------------------------------------------------------
# the Monte-Carlo objective (pipeline._mc_objective)

SCALES = np.array([3.0, 2.0, 1.0, 0.5])


def tiled(values):
    """A ``predict(draws, indices)`` that returns ``values`` for every draw."""
    def predict(draws, indices):
        assert draws.shape[0] == len(indices)
        return np.tile(values, (len(indices), 1))

    return predict


def test_objective_degenerate_expectation():
    ref = np.array([1.0, 2.0, 3.0])
    truth = np.array([1.5, 2.0, 2.5])
    fixed = np.array([0.5, 2.5, 3.5])
    d_truth = np.linalg.norm(truth - ref)
    value = _mc_objective(SCALES, 2, 0, 10, 4, tiled(fixed), ref, d_truth)(3)
    expected = (np.linalg.norm(fixed - ref) - d_truth)**2
    assert value == pytest.approx(expected, rel=1e-14)


def test_objective_zero_when_stub_reproduces_truth():
    ref = np.array([1.0, 2.0])
    assert _mc_objective(SCALES, 2, 0, 5, 2, tiled(ref), ref, 0.0)(2) == 0.0


def test_objective_seed_stability_within_mc_error():
    # first column of each draw, stretched so its norm varies between draws
    def predict(draws, indices):
        return draws[:, :, 0] * np.array([2.0, 1.0, 0.5, 0.25])

    d_truth = np.linalg.norm(0.5 * np.ones(4))
    n = 1000
    a = _mc_objective(SCALES, 2, 1, n, 256, predict, np.zeros(4), d_truth)(3)
    b = _mc_objective(SCALES, 2, 2, n, 256, predict, np.zeros(4), d_truth)(3)
    # standard-error oracle from one sample set
    model = sp.StochasticSubspaceModel(SCALES, 2, 3)
    preds = predict(sp.batch_fractional_draws(model, 1, range(n)), range(n))
    values = (np.linalg.norm(preds, axis=1) - d_truth)**2
    se = values.std(ddof=1) / np.sqrt(n)
    assert abs(a - b) <= 5.0 * np.sqrt(2.0) * se


# ---------------------------------------------------------------------------
# cache + interpolation


def test_interpolation_linear_blend():
    cache = ObjectiveCache()
    table = {3: 10.0, 4: 6.0}
    value = sp.interpolated_objective(3.5, cache, lambda b: table[b])
    assert value == pytest.approx(8.0)


def test_integer_query_hits_cache():
    cache = ObjectiveCache()
    calls = {"n": 0}

    def evaluator(b):
        calls["n"] += 1
        return float(b)

    assert sp.interpolated_objective(5.0, cache, evaluator) == 5.0
    assert sp.interpolated_objective(5.0, cache, evaluator) == 5.0
    assert calls["n"] == 1
    assert cache.hits == 1 and cache.misses == 1


def test_interpolant_is_convex_combination():
    cache = ObjectiveCache()
    table = {7: 2.0, 8: 9.0}
    for beta in (7.1, 7.5, 7.9):
        v = sp.interpolated_objective(beta, cache, lambda b: table[b])
        assert 2.0 <= v <= 9.0


# ---------------------------------------------------------------------------
# the bounded Brent search against scipy's


def interpolated_table(b):
    """A piecewise-linear interpolant of a noisy integer table, as in training."""
    table = np.random.default_rng(3).random(64) * 1e-7 + 1e-6
    return sp.interpolated_objective(b, ObjectiveCache(), lambda i: float(table[i]))


def nan_above_nine(b):
    return math.nan if b > 9.0 else (b - 10.0)**2


@pytest.mark.parametrize("func,lo,hi,xatol,maxiter", [
    pytest.param(lambda b: (b - 7.3)**2 + 0.1 * math.sin(3.0 * b), 4.0, 20.0, 1e-3, 100,
                 id="smooth"),
    pytest.param(lambda b: (b - 4.32)**2, 4.0, 6.0, 1e-10, 100, id="smooth-refinement"),
    pytest.param(interpolated_table, 3.0, 60.0, 1e-3, 100, id="interpolant"),
    pytest.param(interpolated_table, 10.0, 12.0, 1e-10, 100, id="interpolant-window"),
    pytest.param(lambda b: 1.0, 4.0, 20.0, 1e-3, 100, id="constant"),
    pytest.param(lambda b: (b - 7.3)**2, 4.0, 20.0, 1e-12, 5, id="maxiter"),
    pytest.param(nan_above_nine, 4.0, 20.0, 1e-3, 100, id="nan"),
    pytest.param(lambda b: math.nan, 4.0, 20.0, 1e-3, 100, id="all-nan"),
])
def test_bounded_search_is_scipys(func, lo, hi, xatol, maxiter):
    # the same queries in the same order, bit for bit, and the same result
    def recorder(queries):
        def f(b):
            value = func(float(b))
            queries.append((float(b).hex(), float(value).hex()))
            return value
        return f

    ours, theirs = [], []
    x, fx, converged = _bounded_brent(recorder(ours), lo, hi, xatol, maxiter)
    res = minimize_scalar(recorder(theirs), bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    assert ours == theirs
    assert (x.hex(), float(fx).hex(), converged) == (
        float(res.x).hex(), float(res.fun).hex(), bool(res.success))


def test_bounded_search_flags():
    assert not _bounded_brent(lambda b: (b - 7.3)**2, 4.0, 20.0, 1e-12, 5)[2]
    assert not _bounded_brent(nan_above_nine, 4.0, 20.0, 1e-3, 100)[2]
    assert _bounded_brent(lambda b: (b - 7.3)**2, 4.0, 20.0, 1e-3, 100)[2]
    with pytest.raises(ValueError):
        _bounded_brent(lambda b: b, 5.0, 4.0, 1e-3, 100)
    with pytest.raises(ValueError):
        _bounded_brent(lambda b: b, 4.0, math.inf, 1e-3, 100)


# ---------------------------------------------------------------------------
# optimize_beta


def test_optimizer_recovers_quadratic_minimum():
    config = make_config()
    result = sp.optimize_beta(config, lambda b: (b - 7.3)**2)
    assert result.beta == pytest.approx(7.3, abs=config.tolerance * 3)
    assert result.converged


def test_optimizer_boundary_minimum():
    config = make_config()
    result = sp.optimize_beta(config, lambda b: b)
    assert result.beta == 4.0


def test_optimizer_trace_records_queries():
    config = make_config()
    seen = []
    result = sp.optimize_beta(config, lambda b: seen.append(b) or (b - 9.0)**2)
    assert [b for b, _ in result.trace] == seen


def test_integer_training_finds_grid_minimum():
    config = make_config(4.0, 20.0)
    calls = {"n": 0}

    def evaluator(b):
        calls["n"] += 1
        return (b - 12)**2 + 1.0

    result = sp.train_integer_beta(config, evaluator)
    assert result.beta == 12
    assert result.value == pytest.approx(1.0)
    # each integer evaluated at most once, and no more than the bounds width
    assert calls["n"] == len(result.cache.entries)
    assert calls["n"] <= 16
    assert result.cache.misses == len(result.cache.entries)


def test_integer_training_interpolated_minimizer_lands_in_cell():
    # continuous minimum at 7.3: the interpolated objective's minimum node
    # lies in [7, 8]
    config = make_config(4.0, 20.0)
    result = sp.train_integer_beta(config, lambda b: (b - 7.3)**2)
    assert result.beta in (7, 8)
    assert result.beta == 7   # f(7)=0.09 < f(8)=0.49


def test_training_reproducible():
    config = make_config(3.0, 15.0)
    ev = lambda b: (b - 6)**2 + 0.25 * np.sin(b)
    a = sp.train_integer_beta(config, ev)
    b = sp.train_integer_beta(config, ev)
    assert a.beta == b.beta
    assert a.trace == b.trace


# ---------------------------------------------------------------------------
# refinement


def test_refinement_degenerate_window():
    config = make_config(4.0, 20.0,
                         refinement=RefinementConfig(enabled=True, window=0.0))
    result = sp.refine_beta_real(5, config, lambda b: (b - 4.3)**2)
    assert result.beta == 5.0


def test_refinement_finds_fractional_minimum():
    config = make_config(4.0, 20.0,
                         refinement=RefinementConfig(enabled=True, window=1.0,
                                                     tolerance=1e-10))
    result = sp.refine_beta_real(5, config, lambda b: (b - 4.32)**2)
    assert result.beta == pytest.approx(4.32, abs=1e-8)


def test_refinement_clips_to_bounds():
    config = make_config(4.0, 20.0,
                         refinement=RefinementConfig(enabled=True, window=3.0,
                                                     tolerance=1e-8))
    result = sp.refine_beta_real(5, config, lambda b: (b - 2.0)**2)
    assert result.beta >= 4.0
    assert result.beta == pytest.approx(4.0, abs=1e-3)


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(beta_bounds=(5.0, 4.0))
    with pytest.raises(ValueError):
        TrainingConfig(beta_bounds=(4.0, 8.0), mc_samples=1)
