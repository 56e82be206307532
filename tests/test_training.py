import numpy as np
import pytest

import stochpod as sp
from stochpod.pipeline import _mc_objective
from stochpod.training import ObjectiveCache, RefinementConfig, TrainingConfig


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
