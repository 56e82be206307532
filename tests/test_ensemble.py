import os
import sys
import time

import numpy as np
import pytest

import stochpod as sp
from stochpod import pipeline, rom, sampling
from stochpod.errors import ConvergenceError


def spd(n, seed=0):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def orthonormal(n, k, seed=1):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, k)))
    return q


def linear_setup(n=40, r=6, k=3, seed=3):
    gen = np.random.default_rng(seed)
    system = rom.LinearStaticSystem(spd(n, seed), gen.normal(size=n))
    modes = orthonormal(n, r, seed + 1)
    scales = np.sort(gen.uniform(0.5, 3.0, size=r))[::-1]
    model = sp.StochasticSubspaceModel(scales, k, 2 * k)
    return system, modes, model


# ---------------------------------------------------------------------------
# batched kernels on fixed draws


def test_degenerate_sampler_reproduces_rom():
    system, modes, model = linear_setup()
    k = model.k
    staged = rom.galerkin_reduce(system, modes)
    draws = np.stack([np.eye(modes.shape[1], k)] * 2)   # the principal subspace
    pred = pipeline._linear_qoi_predictions(draws, staged.stiffness, staged.force,
                                            modes)
    basis = modes[:, :k]
    red = sp.galerkin_reduce(system, basis)
    expected = basis @ sp.solve_linear_static(red)
    assert np.allclose(pred[0], expected, atol=1e-12)
    assert np.array_equal(pred[0], pred[1])


def test_full_basis_sampler_reproduces_hdm():
    n = 12
    system = rom.LinearStaticSystem(spd(n, 5), np.random.default_rng(6).normal(size=n))
    modes = orthonormal(n, n, 7)
    staged = rom.galerkin_reduce(system, modes)
    pred = pipeline._linear_qoi_predictions(np.stack([np.eye(n)] * 3),
                                            staged.stiffness, staged.force, modes)
    hdm = sp.solve_linear_static(system)
    for row in pred:
        assert np.linalg.norm(row - hdm) <= 1e-8 * np.linalg.norm(hdm)


def test_dynamic_kernel_dof_series_matches_newmark():
    n, r, k = 10, 4, 2
    gen = np.random.default_rng(31)
    mass = np.diag(gen.uniform(1.0, 2.0, n))
    stiff = spd(n, 32)
    dt, t_end = 0.01, 0.3
    steps = int(round(t_end / dt))
    times = np.arange(steps + 1) * dt
    load = np.outer(np.sin(5.0 * times), gen.normal(size=n))
    system = rom.LinearDynamicSystem(mass, 1e-3 * stiff, stiff, load,
                                     (np.zeros(n), np.zeros(n)))
    modes = orthonormal(n, r, 33)
    series = pipeline._dynamic_qoi_predictions(
        np.eye(r, k)[None], rom.galerkin_reduce(system, modes), modes, dt, steps,
        [(4, 1)])
    # oracle: deterministic ROM trajectory at the same basis
    red = sp.galerkin_reduce(system, modes[:, :k])
    traj = sp.newmark_integrate(red, dt, t_end)
    expected = modes[4, :k] @ traj.velocities
    assert np.allclose(series[0, 0], expected, atol=1e-10)


def test_cubic_newton_error_names_stalled_draws():
    n, k = 30, 3
    stiffness = spd(n, 41)
    w = np.stack([orthonormal(n, k, seed) for seed in (1, 2, 3)])
    stiffness_r = np.matmul(w.transpose(0, 2, 1), np.matmul(stiffness, w))
    force = np.ones(n)
    # draws 0 and 2 start at their solution q = 0 of a zero load; draw 1
    # carries a load too large to solve in two Newton steps
    forces_r = np.matmul(force[None], w) * np.array([0.0, 1e4, 0.0])[:, None, None]
    with pytest.raises(ConvergenceError, match=r"in draw\(s\) \[41\]$"):
        pipeline._cubic_newton_batch(w, stiffness_r, 1e3, forces_r,
                                     np.zeros((3, 1, k)), 1e-10, 2,
                                     range(40, 43), [])


def cubic_batch(n=30, k=3, alpha=1e3):
    """Four draws and three loads of growing size: from zero, single rows
    need 2 to 9 Newton steps to reach a residual of 1e-10."""
    stiffness = spd(n, 41)
    scale = np.array([1.0, 30.0, 300.0])[:, None]
    loads = np.random.default_rng(42).normal(size=(3, n)) * scale
    system = rom.NonlinearCubicSystem(stiffness, alpha, lambda p: loads[p])
    w = np.stack([orthonormal(n, k, seed) for seed in (1, 2, 3, 4)])
    stiffness_r = np.matmul(w.transpose(0, 2, 1), np.matmul(stiffness, w))
    return system, w, stiffness_r, np.matmul(loads, w)


def test_cubic_newton_batch_has_the_exact_jacobian():
    # quadratic convergence pins the Jacobian: 9 steps reach tol, 8 do not
    system, w, stiffness_r, forces_r = cubic_batch()
    alpha = system.cubic_coeff
    q0 = np.zeros_like(forces_r)
    q = pipeline._cubic_newton_batch(w, stiffness_r, alpha, forces_r, q0, 1e-10, 9,
                                     range(4), [])
    with pytest.raises(ConvergenceError):
        pipeline._cubic_newton_batch(w, stiffness_r, alpha, forces_r, q0, 1e-10, 8,
                                     range(4), [])
    expected = np.array([[rom.solve_rom_nonlinear(basis, system, p, tol=1e-10)
                          for p in range(3)] for basis in w])
    np.testing.assert_allclose(q, expected, rtol=0, atol=1e-12)


def test_cubic_newton_batch_rows_do_not_couple():
    system, w, stiffness_r, forces_r = cubic_batch()
    alpha = system.cubic_coeff
    solved = pipeline._cubic_newton_batch(w, stiffness_r, alpha, forces_r,
                                          np.zeros_like(forces_r), 1e-10, 20, range(4), [])
    # draw 0 and row (2, 1) start converged, the other rows from zero
    q0 = np.zeros_like(forces_r)
    q0[0] = solved[0]
    q0[2, 1] = solved[2, 1]
    batch = pipeline._cubic_newton_batch(w, stiffness_r, alpha, forces_r, q0,
                                         1e-10, 20, range(4), [])
    alone = np.concatenate([pipeline._cubic_newton_batch(
        w[d:d + 1], stiffness_r[d:d + 1], alpha, forces_r[d:d + 1], q0[d:d + 1],
        1e-10, 20, [d], []) for d in range(4)])
    assert np.array_equal(batch, alone)
    assert np.array_equal(batch[0], solved[0])
    assert np.array_equal(batch[2, 1], solved[2, 1])


def cubic_draws(count, n=30, k=3):
    """``count`` draws of ``cubic_batch``'s problem, with its three loads."""
    stiffness = spd(n, 41)
    loads = (np.random.default_rng(42).normal(size=(3, n))
             * np.array([1.0, 30.0, 300.0])[:, None])
    w = np.stack([orthonormal(n, k, seed) for seed in range(1, count + 1)])
    stiffness_r = np.matmul(w.transpose(0, 2, 1), np.matmul(stiffness, w))
    return w, stiffness_r, np.matmul(loads, w)


LOOP_CHUNKS = (range(0, 32), range(32, 64), range(64, 72))


def test_newton_workspace_chunks_equal_fresh_calls():
    # one loop's chunks of 32, 32 and 8 through one workspace: the tail
    # chunk runs on the leading slices of buffers sized for 32 draws
    w, stiffness_r, forces_r = cubic_draws(72)
    q0 = np.zeros_like(forces_r)
    workspace = []
    results, copies = [], []
    for c in LOOP_CHUNKS:
        part = slice(c.start, c.stop)
        q = pipeline._cubic_newton_batch(w[part], stiffness_r[part], 1e3, forces_r[part],
                                         q0[part], 1e-10, 20, c, workspace)
        results.append(q)
        copies.append(q.copy())
    for c, q, copy in zip(LOOP_CHUNKS, results, copies):
        part = slice(c.start, c.stop)
        fresh = pipeline._cubic_newton_batch(w[part], stiffness_r[part], 1e3,
                                             forces_r[part], q0[part], 1e-10, 20, c, [])
        assert np.array_equal(q, fresh), c
        # the later calls left an earlier chunk's result as it was
        assert np.array_equal(q, copy), c
        assert not any(np.shares_memory(q, buffer) for buffer in workspace)
    assert all(buffer.shape[0] == 32 for buffer in workspace)


def test_newton_workspace_names_the_same_stalled_draws():
    # zero loads start converged; draws 5, 17, 40 and 66 carry loads too
    # large to solve in two Newton steps
    n, k = 30, 3
    w, stiffness_r, _ = cubic_draws(72, n, k)
    scale = np.zeros(72)
    scale[[5, 17, 40, 66]] = 1e4
    forces_r = np.matmul(np.ones(n)[None], w) * scale[:, None, None]
    workspace = []
    named = []
    for c in LOOP_CHUNKS:
        part = slice(c.start, c.stop)
        messages = []
        for held in (workspace, []):
            with pytest.raises(ConvergenceError) as err:
                pipeline._cubic_newton_batch(w[part], stiffness_r[part], 1e3,
                                             forces_r[part], np.zeros((len(c), 1, k)),
                                             1e-10, 2, c, held)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        named.append(messages[0].rsplit(" in draw(s) ", 1)[1])
    assert named == ["[5, 17]", "[40]", "[66]"]


@pytest.mark.parametrize("loaded,named", [([17], "[17]"), ([5, 17], "[5, 17]")])
def test_stalled_draws_are_named_whichever_piece_holds_them(monkeypatch, loaded, named):
    # two workers split a 32-draw batch into draws 0-15, on the calling
    # thread, and 16-31, on a helper; only the loaded draws carry a load
    # too large to solve in two Newton steps
    monkeypatch.setattr(sampling, "_WORKERS", 2)
    n, k = 30, 3
    w, stiffness_r, _ = cubic_draws(32, n, k)
    scale = np.zeros(32)
    scale[loaded] = 1e4
    forces_r = np.matmul(np.ones(n)[None], w) * scale[:, None, None]
    with pytest.raises(ConvergenceError) as err:
        pipeline._cubic_newton_batch(w, stiffness_r, 1e3, forces_r, np.zeros((32, 1, k)),
                                     1e-10, 2, range(32), [])
    assert str(err.value).endswith(f" in draw(s) {named}")


def test_more_threads_than_cores_solve_as_one_thread(monkeypatch):
    # the pieces of one call fill disjoint slices of one workspace's
    # buffers; the threads switch as often as the interpreter allows
    w, stiffness_r, forces_r = cubic_draws(72)
    q0 = np.zeros_like(forces_r)

    def loop():
        workspace = []
        return [pipeline._cubic_newton_batch(w[c.start:c.stop], stiffness_r[c.start:c.stop],
                                             1e3, forces_r[c.start:c.stop],
                                             q0[c.start:c.stop], 1e-10, 20, c, workspace)
                for c in LOOP_CHUNKS]

    monkeypatch.setattr(sampling, "_WORKERS", 1)
    alone = loop()
    monkeypatch.setattr(sampling, "_WORKERS", len(os.sched_getaffinity(0)) + 3)
    monkeypatch.setattr(sampling, "_helpers", None)      # a pool of _WORKERS - 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pieces = loop()
    finally:
        sys.setswitchinterval(interval)
        if sampling._helpers is not None:
            sampling._helpers.shutdown()
    for a, b in zip(pieces, alone):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("failing,raised", [({0, 6}, 0), ({3, 6}, 3)])
def test_pieces_end_before_the_lowest_index_failure_is_raised(monkeypatch, failing,
                                                              raised):
    # three workers split 9 items into pieces starting at 0 (the calling
    # thread's), 3 and 6; piece 3 is the slowest, and pieces 0 and 6 fail
    # at once
    monkeypatch.setattr(sampling, "_WORKERS", 3)
    ended = []

    def piece(part):
        if part.start == 3:
            time.sleep(0.2)
        ended.append(part.start)
        if part.start in failing:
            raise ValueError(f"piece {part.start}")
        return part

    with pytest.raises(ValueError, match=f"piece {raised}"):
        sampling._in_pieces(piece, 9)
    assert sorted(ended) == [0, 3, 6]


# ---------------------------------------------------------------------------
# summarize


def summarize(samples, level):
    return sp.summarize_matrix(samples, np.arange(float(samples.shape[1])), level)


def test_summarize_constant_ensemble():
    samples = np.full((5, 3), 2.5)
    summary = summarize(samples, 0.95)
    assert np.allclose(summary.lower, 2.5)
    assert np.allclose(summary.upper, 2.5)
    assert np.allclose(summary.mean, 2.5)


def test_summarize_order_statistics_interpolation():
    samples = np.arange(1.0, 101.0)[:, None]
    summary = summarize(samples, 0.5)
    # hand computation under the linear interpolation rule
    assert summary.lower[0] == pytest.approx(25.75)
    assert summary.upper[0] == pytest.approx(75.25)


def test_summarize_gaussian_quantiles():
    gen = np.random.default_rng(71)
    samples = gen.standard_normal((100_000, 1))
    summary = summarize(samples, 0.95)
    assert summary.lower[0] == pytest.approx(-1.96, abs=0.03)
    assert summary.upper[0] == pytest.approx(1.96, abs=0.03)


def test_summarize_width_monotone_in_level():
    gen = np.random.default_rng(72)
    samples = gen.normal(size=(400, 20))
    narrow = summarize(samples, 0.5)
    wide = summarize(samples, 0.95)
    assert np.all(wide.upper - wide.lower >= narrow.upper - narrow.lower)


def test_summarize_level_validation():
    with pytest.raises(ValueError):
        summarize(np.zeros((3, 2)), 1.0)


# ---------------------------------------------------------------------------
# coverage


def test_coverage_of_mean_is_total():
    samples = np.random.default_rng(73).normal(size=(50, 6))
    summary = summarize(samples, 0.9)
    report = sp.coverage(summary, summary.mean)
    assert report.coverage == 1.0
    assert report.points_inside == 6


def test_coverage_half_outside():
    summary = sp.PredictionSummary(grid=np.arange(4.0), mean=np.zeros(4),
                                   std=np.ones(4), lower=-np.ones(4),
                                   upper=np.ones(4))
    truth = np.array([0.0, 5.0, -0.5, -3.0])
    report = sp.coverage(summary, truth)
    assert report.coverage == 0.5
    assert report.mean_pi_width == pytest.approx(2.0)


def test_coverage_boundary_is_inside():
    summary = sp.PredictionSummary(grid=np.arange(2.0), mean=np.zeros(2),
                                   std=np.ones(2), lower=np.array([-1.0, -1.0]),
                                   upper=np.array([1.0, 1.0]))
    assert sp.coverage(summary, np.array([1.0, -1.0])).coverage == 1.0


def test_coverage_grid_mismatch():
    samples = np.zeros((4, 3))
    summary = summarize(samples, 0.9)
    with pytest.raises(ValueError):
        sp.coverage(summary, np.zeros(5))


def test_coverage_nominal_self_consistency():
    gen = np.random.default_rng(74)
    level = 0.9
    points = 600
    samples = gen.normal(size=(2000, points))
    summary = summarize(samples, level)
    truth = gen.normal(size=points)
    report = sp.coverage(summary, truth)
    tol = 4.0 * np.sqrt(level * (1 - level) / points)
    assert abs(report.coverage - level) <= tol
