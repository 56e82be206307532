"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-scale
reproduction (criterion 2) carries the ``slow`` marker and is excluded
from the default run; enable it with ``-m slow``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import stochpod as sp
from stochpod import pipeline, rom, sampling
from stochpod.config import load_config, parse_config
from stochpod.matrixio import read_csv

from conftest import sample_macg_subspace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# fixed seeds for the two-step experiment orderings (criterion 3); chosen
# once by calibration and frozen, as the criterion prescribes
EX2_SEEDS = (11, 29, 40, 41, 52)


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def ex1_desk(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex1-desk")
    config = load_config(CONFIGS / "ex1-desk.json")
    start = time.perf_counter()
    report = pipeline.run_pipeline(config, out)
    elapsed = time.perf_counter() - start
    return config, out, report, elapsed


def test_criterion_1_example1_desk(ex1_desk):
    """Desk-scale parametric cubic reproduction."""
    config, out, details, elapsed = ex1_desk
    model = json.loads((out / "model.json").read_text())
    k, rank = model["k"], model["rank"]
    beta_ok = k <= details["beta_integer"] <= 10 * rank
    coverage_ok = 0.85 <= details["coverage"] <= 1.0
    runtime_ok = elapsed <= 600.0
    ok = beta_ok and coverage_ok and runtime_ok
    announce("1", ok, f"beta={details['beta_integer']} in [{k},{10 * rank}], "
                      f"coverage={details['coverage']:.3f} in [0.85,1.00], "
                      f"runtime={elapsed:.0f}s <= 600s")
    assert beta_ok and coverage_ok and runtime_ok

    # adjacent soft check: the ensemble mean tracks the deterministic ROM
    summary = read_csv(out / "summary.csv")
    width = np.mean(summary["upper"] - summary["lower"])
    close = np.abs(summary["mean"] - summary["rom"]) <= 0.2 * width
    assert close.mean() >= 0.90


@pytest.mark.slow
def test_criterion_2_example1_full_scale(tmp_path):
    """Full-scale run; CI runs it weekly (enable with -m slow)."""
    config = load_config(CONFIGS / "ex1-full.json")
    details = pipeline.run_pipeline(config, tmp_path)
    coverage_ok = 0.90 <= details["coverage"] <= 0.995
    beta_ok = 10 <= details["beta_integer"] <= 40
    announce("2", coverage_ok and beta_ok,
             f"coverage={details['coverage']:.3f} in [0.90,0.995], "
             f"beta={details['beta_integer']} in [10,40]")
    assert coverage_ok and beta_ok


def test_criterion_3_example2_two_step_orderings(tmp_path):
    """Refined vs integer coverage and noisy vs noiseless orderings."""
    passes = 0
    rows = []
    for seed in EX2_SEEDS:
        config = parse_config({
            "problem": {"kind": "linear-static-experiment", "n": 1000},
            "pod": {"k": 4},
            "training": {"mc_samples": 1000,
                         "refinement": {"enabled": True, "window": 1.0,
                                        "mc_samples": 100_000,
                                        "tolerance": 1e-10, "max_iter": 25}},
            "ensemble": {"count": 1000, "level": 0.95, "seed": seed},
        })
        details = pipeline.run_pipeline(config, tmp_path / str(seed))
        ordering_a = details["coverage"] >= details["coverage_integer"]
        ordering_b = details["coverage_noisy"] < details["coverage"]
        passes += ordering_a and ordering_b
        rows.append(f"seed {seed}: refined {details['coverage']:.3f} vs "
                    f"integer {details['coverage_integer']:.3f}, noisy "
                    f"{details['coverage_noisy']:.3f} "
                    f"{'ok' if ordering_a and ordering_b else 'violated'}")
    ok = passes >= 4
    announce("3", ok, f"orderings hold on {passes}/5 fixed seeds "
                      f"({'; '.join(rows)})")
    assert ok


def test_criterion_4_mode_theorem_empirical(rng):
    """Principal subspace dominates the density over sampled subspaces."""
    worst_gap = np.inf
    for trial in range(20):
        n = int(rng.integers(6, 13))
        k = int(rng.integers(1, 4))
        lam = np.sort(rng.uniform(0.2, 5.0, size=n))[::-1]
        lam[k - 1] = lam[k] * (1.2 + rng.uniform(0, 1))  # enforce the gap
        lam = np.sort(lam)[::-1]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        model = sp.CovarianceModel(q, lam, 0.0)
        sigma = (q * lam) @ q.T
        at_mode = sp.macg_log_pdf(q[:, :k], model)
        closed = 0.5 * n * np.sum(np.log(lam[:k])) - 0.5 * k * np.sum(np.log(lam))
        assert abs(at_mode - closed) <= 1e-10
        best = max(sp.macg_log_pdf(sample_macg_subspace(sigma, k, rng), model)
                   for _ in range(1000))
        worst_gap = min(worst_gap, at_mode - best)
        if at_mode <= best:
            break
    ok = worst_gap > 0
    announce("4", ok, f"mode dominates 20x1000 samples "
                      f"(smallest log-density margin {worst_gap:.3e}); "
                      f"closed form matches to 1e-10")
    assert ok


def test_criterion_5_sampler_correctness():
    # (a) beta = k degeneracy
    scales = np.array([4.0, 2.0, 1.0, 0.5])
    model = sp.StochasticSubspaceModel(scales, 2, 2)
    worst = 0.0
    for i in range(50):
        stream = sp.RandomStream(2024, i)
        draw = sp.sample_fractional(model, stream)
        polar = sp.polar_orthonormalize(scales[:, None] * stream.normal_matrix(4, 2))
        worst = max(worst, sp.projector_distance(draw, polar))
    a_ok = worst <= 1e-10

    # (b) angle density chi-square at 1e4 samples
    acg = sp.StochasticSubspaceModel(np.array([2.0, 1.0]), 1, 1)
    angles = np.empty(10_000)
    for i in range(angles.shape[0]):
        u = sp.sample_fractional(acg, sp.RandomStream(31415, i)).matrix.ravel()
        angles[i] = np.arctan2(u[1], u[0]) % np.pi
    edges = np.linspace(0.0, np.pi, 21)
    observed, _ = np.histogram(angles, bins=edges)
    theta = np.linspace(0.0, np.pi, 200_001)
    density = 1.0 / (np.cos(theta)**2 / 4.0 + np.sin(theta)**2)
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2)])
    cdf /= cdf[-1]
    probs = np.diff(np.interp(edges, theta, cdf))
    chi2 = np.sum((observed - angles.shape[0] * probs)**2
                  / (angles.shape[0] * probs))
    p_chi2 = scipy.stats.chi2.sf(chi2, observed.shape[0] - 1)
    b_ok = p_chi2 > 0.01

    # (c) low-rank path vs direct definition, two-sample KS at 2000 draws
    n, r, k, beta = 8, 4, 2, 6
    gen = np.random.default_rng(6789)
    modes, _ = np.linalg.qr(gen.normal(size=(n, r)))
    lam = np.array([6.0, 3.0, 1.5, 0.75])
    low_rank_model = sp.StochasticSubspaceModel(np.sqrt(lam), k, beta)
    v_k = modes[:, :k]
    fast = np.empty(2000)
    for i in range(2000):
        w = modes @ sp.sample_fractional(low_rank_model, sp.RandomStream(97, i)).matrix
        fast[i] = np.max(scipy.linalg.subspace_angles(w, v_k))
    sigma = (modes * lam) @ modes.T
    w_eig, v_eig = np.linalg.eigh(sigma)
    root = (v_eig * np.sqrt(np.clip(w_eig, 0.0, None))) @ v_eig.T
    direct = np.empty(2000)
    for i in range(2000):
        x = root @ gen.standard_normal((n, beta))
        direct[i] = np.max(scipy.linalg.subspace_angles(
            sp.principal_subspace_map(x, k).matrix, v_k))
    p_ks = scipy.stats.ks_2samp(fast, direct).pvalue
    c_ok = p_ks > 0.01

    # (d) uniformity at identity covariance, 5000 samples
    r_u, k_u = 6, 2
    uniform = sp.StochasticSubspaceModel(np.ones(r_u), k_u, k_u)
    projectors = np.empty((5000, r_u, r_u))
    for i in range(5000):
        u = sp.sample_fractional(uniform, sp.RandomStream(888, i)).matrix
        projectors[i] = u @ u.T
    mean = projectors.mean(axis=0)
    stderr = projectors.std(axis=0, ddof=1) / np.sqrt(projectors.shape[0])
    dev = np.abs(mean - (k_u / r_u) * np.eye(r_u))
    d_ok = bool(np.all(dev <= 5.0 * np.maximum(stderr, 1e-15)))

    ok = a_ok and b_ok and c_ok and d_ok
    announce("5", ok, f"(a) degeneracy {worst:.2e} <= 1e-10; "
                      f"(b) chi2 p={p_chi2:.3f} > 0.01; "
                      f"(c) KS p={p_ks:.3f} > 0.01; "
                      f"(d) uniformity within 5 MC standard errors")
    assert a_ok and b_ok and c_ok and d_ok


def test_criterion_6_constraint_preservation(ex1_desk):
    """All ambient draws annihilate the boundary constraint matrix."""
    _, out, _, _ = ex1_desk
    from stochpod.matrixio import load_matrix
    modes = load_matrix(out / "pod_modes.bin")
    model_doc = json.loads((out / "model.json").read_text())
    n = modes.shape[0]
    b = np.zeros((n, 2))
    b[0, 0] = b[-1, 1] = 1.0
    model = sp.StochasticSubspaceModel(np.asarray(model_doc["scales"]),
                                       model_doc["k"], model_doc["beta_star"])
    worst = 0.0
    for i in range(1000):
        w = modes @ sp.sample_fractional(model, sp.RandomStream(777, i)).matrix
        worst = max(worst, float(np.linalg.norm(b.T @ w)))
    ok = worst <= 1e-10
    announce("6", ok, f"max ||B^T W||_F = {worst:.2e} <= 1e-10 over 1000 draws")
    assert ok


def test_criterion_7_reduction_correctness():
    gen = np.random.default_rng(17)
    # two-stage vs naive at 1e-12 relative
    n, r, k = 60, 9, 4
    a = gen.normal(size=(n, n))
    spd = a @ a.T + n * np.eye(n)
    force = gen.normal(size=n)
    modes, _ = np.linalg.qr(gen.normal(size=(n, r)))
    inner, _ = np.linalg.qr(gen.normal(size=(r, k)))
    staged = sp.inner_reduce(sp.galerkin_reduce(
        rom.LinearStaticSystem(spd, force), modes), inner)
    naive = sp.galerkin_reduce(rom.LinearStaticSystem(spd, force), modes @ inner)
    stage_err = (np.linalg.norm(staged.stiffness - naive.stiffness)
                 / np.linalg.norm(naive.stiffness))
    stage_ok = stage_err <= 1e-12

    # full-basis ROM == HDM in all three system classes
    errs = {}
    w, _ = np.linalg.qr(gen.normal(size=(12, 12)))
    static = rom.LinearStaticSystem(spd[:12, :12], force[:12])
    x_full = sp.solve_linear_static(static)
    x_red = w @ sp.solve_linear_static(sp.galerkin_reduce(static, w))
    errs["static"] = np.linalg.norm(x_red - x_full) / np.linalg.norm(x_full)

    cubic_force = gen.normal(size=12)
    cubic = rom.NonlinearCubicSystem(spd[:12, :12], 2.0, lambda mu: cubic_force)
    x_full = sp.solve_nonlinear_cubic(cubic, None)
    x_red = w @ sp.solve_rom_nonlinear(w, cubic, None)
    errs["cubic"] = np.linalg.norm(x_red - x_full) / np.linalg.norm(x_full)

    mass = np.diag(gen.uniform(1.0, 2.0, 12))
    stiff = spd[:12, :12]
    dyn = rom.LinearDynamicSystem(mass, 1e-3 * stiff, stiff,
                                  lambda t: cubic_force * np.sin(4.0 * t),
                                  (gen.normal(size=12), gen.normal(size=12)))
    full = sp.newmark_integrate(dyn, 0.01, 1.0)
    red = sp.reconstruct(w, sp.newmark_integrate(sp.galerkin_reduce(dyn, w),
                                                 0.01, 1.0))
    errs["dynamic"] = (np.linalg.norm(red.states - full.states)
                       / np.linalg.norm(full.states))
    rom_ok = all(v <= 1e-8 for v in errs.values())
    ok = stage_ok and rom_ok
    announce("7", ok, f"two-stage vs naive {stage_err:.2e} <= 1e-12; "
                      f"full-basis ROM errors "
                      + ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
                      + " <= 1e-8")
    assert stage_ok and rom_ok


def test_criterion_8_newmark_order_and_energy():
    sdof = rom.LinearDynamicSystem(np.array([[1.0]]), np.zeros((1, 1)),
                                   np.array([[(2 * np.pi)**2]]),
                                   lambda t: np.zeros(1),
                                   (np.array([1.0]), np.zeros(1)))
    errors = []
    for dt in (1 / 50, 1 / 100, 1 / 200):
        traj = sp.newmark_integrate(sdof, dt, 1.0)
        errors.append(np.max(np.abs(traj.states[0] - np.cos(2 * np.pi * traj.times))))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    order_ok = all(1.9 <= p <= 2.1 for p in orders)

    gen = np.random.default_rng(8)
    n = 4
    a = gen.normal(size=(n, n))
    stiff = a @ a.T + n * np.eye(n)
    mass = np.diag(gen.uniform(1.0, 2.0, n))
    sys = rom.LinearDynamicSystem(mass, np.zeros((n, n)), stiff,
                                  lambda t: np.zeros(n),
                                  (gen.normal(size=n), gen.normal(size=n)))
    traj = sp.newmark_integrate(sys, 0.01, 10.0)
    energy = 0.5 * np.einsum("it,ij,jt->t", traj.velocities, mass, traj.velocities) \
        + 0.5 * np.einsum("it,ij,jt->t", traj.states, stiff, traj.states)
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    energy_ok = drift <= 1e-8
    ok = order_ok and energy_ok
    announce("8", ok, f"observed orders {orders[0]:.3f}, {orders[1]:.3f} in "
                      f"[1.9,2.1]; energy drift {drift:.2e} <= 1e-8 over 1e3 steps")
    assert order_ok and energy_ok


def test_criterion_9_optimizer():
    config = sp.TrainingConfig(beta_bounds=(4.0, 20.0))
    quad = sp.optimize_beta(config, lambda b: (b - 7.3)**2)
    quad_ok = abs(quad.beta - 7.3) <= 3 * config.tolerance

    calls = {"n": 0}

    def evaluator(b):
        calls["n"] += 1
        return (b - 12)**2 + 1.0

    grid = sp.train_integer_beta(config, evaluator)
    grid_ok = (grid.beta == 12 and calls["n"] == len(grid.cache.entries)
               and calls["n"] <= 16)
    ok = quad_ok and grid_ok
    announce("9", ok, f"quadratic minimum at {quad.beta:.4f} (target 7.3); "
                      f"integer minimum {grid.beta} found with "
                      f"{calls['n']} single-shot integer evaluations")
    assert quad_ok and grid_ok


def test_criterion_10_determinism(tmp_path, monkeypatch):
    config = parse_config({
        "problem": {"kind": "linear-static-experiment", "n": 100,
                    "snapshot_count": 20, "sensor_count": 9},
        "pod": {"k": 3},
        "training": {"mc_samples": 60},
        "ensemble": {"count": 80, "level": 0.95, "seed": 5},
    })
    runs = {}
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        out = tmp_path / name
        pipeline.run_pipeline(config, out)
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()
                      if p.name != "timings.json"}
    identical = runs["a"] == runs["b"] == runs["c"]
    announce("10", identical,
             "reruns and 3-worker run byte-identical across "
             f"{len(runs['a'])} artifacts")
    assert identical


def test_criterion_11_example3_surrogate(tmp_path):
    config = load_config(CONFIGS / "ex3-desk.json")
    details = pipeline.run_pipeline(config, tmp_path)
    coverage_ok = details["coverage"] >= 0.80
    extras = details["extra_qois"]
    extras_ok = all(info["finite"] and info["max_width"] > 0.0
                    for info in extras.values())
    ok = coverage_ok and extras_ok
    announce("11", ok,
             f"velocity coverage {details['coverage']:.3f} >= 0.80; unobserved "
             f"QoIs finite with nonzero widths ("
             + ", ".join(f"{k}: cov={v['coverage']:.3f}" for k, v in extras.items())
             + ")")
    assert coverage_ok and extras_ok
