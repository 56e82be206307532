import numpy as np
import pytest
import scipy.linalg

import stochpod as sp
from stochpod import rom
from stochpod.errors import ConvergenceError
from stochpod.problems import SpectralStiffness, SurrogateSpec, surrogate_dynamics


def random_spd(n, seed=0):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def random_orthonormal(n, k, seed=1):
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.normal(size=(n, k)))
    return q


# ---------------------------------------------------------------------------
# galerkin_reduce


def test_identity_projection_keeps_operators():
    k = random_spd(5)
    f = np.arange(5.0)
    red = sp.galerkin_reduce(rom.LinearStaticSystem(k, f), np.eye(5))
    assert np.allclose(red.stiffness, k)
    assert np.allclose(red.force, f)


def test_scalar_extraction():
    k = random_spd(4, seed=2)
    red = sp.galerkin_reduce(rom.LinearStaticSystem(k, np.ones(4)), np.eye(4, 1))
    assert red.stiffness.shape == (1, 1)
    assert red.stiffness[0, 0] == pytest.approx(k[0, 0])


def test_reduced_stiffness_stays_spd():
    k = random_spd(12, seed=3)
    basis = random_orthonormal(12, 4, seed=4)
    red = sp.galerkin_reduce(rom.LinearStaticSystem(k, np.ones(12)), basis)
    assert np.allclose(red.stiffness, red.stiffness.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(red.stiffness) > 0)


def test_reduce_dimension_mismatch():
    with pytest.raises(ValueError):
        sp.galerkin_reduce(rom.LinearStaticSystem(np.eye(4), np.ones(4)),
                           np.eye(5, 2))


# ---------------------------------------------------------------------------
# two-stage reduction


def test_inner_identity_returns_staged_operators():
    k = random_spd(10, seed=5)
    modes = random_orthonormal(10, 4, seed=6)
    staged = sp.galerkin_reduce(rom.LinearStaticSystem(k, np.ones(10)), modes)
    red = sp.inner_reduce(staged, np.eye(4))
    assert np.allclose(red.stiffness, staged.stiffness, atol=1e-14)


def test_two_stage_matches_naive_projection():
    n, r, k = 50, 8, 3
    gen = np.random.default_rng(7)
    a = random_spd(n, seed=8)
    f = gen.normal(size=n)
    modes = random_orthonormal(n, r, seed=9)
    inner = random_orthonormal(r, k, seed=10)
    staged = sp.galerkin_reduce(rom.LinearStaticSystem(a, f), modes)
    red = sp.inner_reduce(staged, inner)
    w = modes @ inner
    naive = sp.galerkin_reduce(rom.LinearStaticSystem(a, f), w)
    scale = np.linalg.norm(naive.stiffness)
    assert np.linalg.norm(red.stiffness - naive.stiffness) <= 1e-12 * scale
    assert np.linalg.norm(red.force - naive.force) <= 1e-12 * np.linalg.norm(naive.force)


def test_two_stage_matches_naive_dynamic():
    n, r, k = 30, 6, 2
    gen = np.random.default_rng(11)
    m = np.diag(gen.uniform(1.0, 2.0, size=n))
    kk = random_spd(n, seed=12)
    c = 1e-3 * kk
    load = gen.normal(size=(5, n))
    x0, v0 = gen.normal(size=n), gen.normal(size=n)
    sys = rom.LinearDynamicSystem(m, c, kk, load, (x0, v0))
    modes = random_orthonormal(n, r, seed=13)
    inner = random_orthonormal(r, k, seed=14)
    red = sp.inner_reduce(sp.galerkin_reduce(sys, modes), inner)
    naive = sp.galerkin_reduce(sys, modes @ inner)
    for name in ("mass", "damping", "stiffness"):
        got, want = getattr(red, name), getattr(naive, name)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.allclose(red.load, naive.load, rtol=1e-12, atol=1e-14)
    assert np.allclose(red.initial_state[0], naive.initial_state[0], rtol=1e-12)


def test_staged_path_has_no_full_space_products_after_stage_one():
    n, r = 200, 8
    a = random_spd(n, seed=15)
    modes = random_orthonormal(n, r, seed=16)
    before = rom.projection_counter.count
    staged = sp.galerkin_reduce(rom.LinearStaticSystem(a, np.ones(n)), modes)
    assert rom.projection_counter.count - before == 1
    for i in range(500):
        sp.inner_reduce(staged, random_orthonormal(r, 3, seed=i))
    assert rom.projection_counter.count - before == 1


def test_two_stage_rejects_nonlinear():
    # the inner stage refuses a cubic system as the first stage does
    sys = rom.NonlinearCubicSystem(np.eye(3), 1.0, lambda mu: np.ones(3))
    with pytest.raises(TypeError):
        sp.inner_reduce(sys, np.eye(3, 2))


def test_galerkin_rejects_nonlinear():
    # the cubic system is reduced inside solve_rom_nonlinear only
    sys = rom.NonlinearCubicSystem(np.eye(3), 1.0, lambda mu: np.ones(3))
    with pytest.raises(TypeError):
        sp.galerkin_reduce(sys, np.eye(3, 2))


# ---------------------------------------------------------------------------
# linear static solves


def test_solve_identity():
    x = sp.solve_linear_static(rom.LinearStaticSystem(np.eye(3), np.eye(3)[:, 0]))
    assert np.allclose(x, [1.0, 0.0, 0.0])


def test_solve_diagonal():
    sys = rom.LinearStaticSystem(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    assert np.allclose(sp.solve_linear_static(sys), [1.0, 2.0])


def test_solve_spectral_eigenvector_force():
    stiff = SpectralStiffness.sine_basis(64)
    phi2 = stiff.modes[:, 1]
    sys = rom.LinearStaticSystem(stiff.matrix, phi2, stiff.constraints)
    x = sp.solve_linear_static(sys)
    assert np.allclose(x, phi2 / (16.0 * np.pi**2), atol=1e-12)
    assert np.linalg.norm(stiff.matrix @ x - phi2) <= 1e-10 * np.linalg.norm(phi2)


def test_solve_singular_raises():
    sys = rom.LinearStaticSystem(np.zeros((3, 3)), np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        sp.solve_linear_static(sys)


def test_solve_with_general_constraints():
    gen = np.random.default_rng(21)
    n = 20
    k = random_spd(n, seed=22)
    b = gen.normal(size=(n, 2))
    f = gen.normal(size=n)
    # force consistent with the admissible set
    f -= b @ np.linalg.lstsq(b, f, rcond=None)[0]
    x = sp.solve_linear_static(rom.LinearStaticSystem(k, f, b))
    assert np.linalg.norm(b.T @ x) <= 1e-9 * np.linalg.norm(x)
    # the residual is orthogonal to the admissible set, whose basis Z is
    # the trailing columns of B's complete QR
    z = np.linalg.qr(b, mode="complete")[0][:, b.shape[1]:]
    assert np.linalg.norm(z.T @ (k @ x - f)) <= 1e-10 * np.linalg.norm(f)
    # a repeated column leaves the admissible set and so the solution as
    # they were: the null space's rank rule drops the zero singular value
    repeated = np.column_stack([b, b[:, 0]])
    x_rep = sp.solve_linear_static(rom.LinearStaticSystem(k, f, repeated))
    assert np.linalg.norm(x_rep - x) <= 1e-10 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# cubic Newton


def test_cubic_scalar_unit_root():
    sys = rom.NonlinearCubicSystem(np.eye(1), 1.0, lambda mu: np.array([2.0]))
    x = sp.solve_nonlinear_cubic(sys, None)
    assert x[0] == pytest.approx(1.0, abs=1e-10)


def test_cubic_zero_force():
    sys = rom.NonlinearCubicSystem(np.eye(4), 2.0, lambda mu: np.zeros(4))
    assert np.allclose(sp.solve_nonlinear_cubic(sys, None), 0.0)


def bisect(fun, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fun(lo) * fun(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_cubic_matches_bisection_oracle():
    sys = rom.NonlinearCubicSystem(np.array([[2.0]]), 4.0,
                                   lambda mu: np.array([6.0]))
    x = sp.solve_nonlinear_cubic(sys, None)
    root = bisect(lambda t: 2.0 * t + 4.0 * t**3 - 6.0, 0.0, 2.0)
    assert x[0] == pytest.approx(root, abs=1e-10)
    assert x[0] == pytest.approx(1.0, abs=1e-10)


def test_cubic_quadratic_convergence():
    sys = rom.NonlinearCubicSystem(np.array([[2.0]]), 4.0,
                                   lambda mu: np.array([6.0]))
    residuals = []
    for max_iter in (1, 2, 3):
        with pytest.raises(ConvergenceError) as err:
            sp.solve_nonlinear_cubic(sys, None, guess=np.array([0.9]),
                                     tol=1e-300, max_iter=max_iter)
        residuals.append(err.value.residual)
    # consecutive residuals shrink at least quadratically near the root
    assert residuals[1] <= residuals[0]**2
    assert residuals[2] <= 10.0 * residuals[1]**2


def test_cubic_nonconvergence_carries_residual():
    sys = rom.NonlinearCubicSystem(np.eye(2), 1.0, lambda mu: np.array([5.0, 5.0]))
    with pytest.raises(ConvergenceError) as err:
        sp.solve_nonlinear_cubic(sys, None, tol=1e-300, max_iter=2)
    assert err.value.residual is not None and err.value.residual > 0


# ---------------------------------------------------------------------------
# reduced cubic solves


def test_rom_identity_basis_equals_full():
    gen = np.random.default_rng(31)
    k = random_spd(6, seed=32)
    sys = rom.NonlinearCubicSystem(k, 3.0, lambda mu: gen.normal(size=6))
    force = sys.force_map(None)
    sys = rom.NonlinearCubicSystem(k, 3.0, lambda mu: force)
    q = sp.solve_rom_nonlinear(np.eye(6), sys, None)
    x = sp.solve_nonlinear_cubic(sys, None)
    assert np.allclose(q, x, atol=1e-9)


def test_rom_full_rank_orthogonal_basis():
    gen = np.random.default_rng(33)
    n = 8
    k = random_spd(n, seed=34)
    force = gen.normal(size=n)
    sys = rom.NonlinearCubicSystem(k, 2.0, lambda mu: force)
    w = random_orthonormal(n, n, seed=35)
    q = sp.solve_rom_nonlinear(w, sys, None)
    x = sp.solve_nonlinear_cubic(sys, None)
    assert np.linalg.norm(w @ q - x) <= 1e-8 * np.linalg.norm(x)


def test_rom_linear_degeneration():
    n = 10
    k = random_spd(n, seed=36)
    force = np.random.default_rng(37).normal(size=n)
    sys = rom.NonlinearCubicSystem(k, 1e-300, lambda mu: force)
    basis = random_orthonormal(n, 3, seed=38)
    q = sp.solve_rom_nonlinear(basis, sys, None)
    expected = np.linalg.solve(basis.T @ k @ basis, basis.T @ force)
    assert np.allclose(q, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Newmark integration


def sdof_system(load=None):
    m = np.array([[1.0]])
    k = np.array([[(2.0 * np.pi)**2]])
    c = np.zeros((1, 1))
    if load is None:
        load = lambda t: np.zeros(1)
    return rom.LinearDynamicSystem(m, c, k, load, (np.array([1.0]), np.zeros(1)))


def test_newmark_zero_everything():
    sys = rom.LinearDynamicSystem(np.eye(2), np.zeros((2, 2)), np.eye(2),
                                  lambda t: np.zeros(2),
                                  (np.zeros(2), np.zeros(2)))
    traj = sp.newmark_integrate(sys, 0.1, 1.0)
    assert traj.states.shape == (2, 11)
    assert np.all(traj.states == 0.0) and np.all(traj.velocities == 0.0)


def test_newmark_trajectory_length_and_initial_acceleration():
    gen = np.random.default_rng(41)
    n = 4
    m = np.diag(gen.uniform(1.0, 2.0, n))
    k = random_spd(n, seed=42)
    x0, v0 = gen.normal(size=n), gen.normal(size=n)
    f = gen.normal(size=n)
    sys = rom.LinearDynamicSystem(m, 0.01 * k, k, lambda t: f, (x0, v0))
    traj = sp.newmark_integrate(sys, 0.05, 0.5)
    assert traj.times.shape == (11,)
    a0 = np.linalg.solve(m, f - 0.01 * k @ v0 - k @ x0)
    assert np.allclose(traj.accelerations[:, 0], a0, atol=1e-12)


def test_newmark_second_order_convergence():
    # exact solution cos(2 pi t); max-norm error over the trajectory is
    # phase-dominated, so it scales as dt^2
    errors = []
    for dt in (1.0 / 50, 1.0 / 100, 1.0 / 200):
        traj = sp.newmark_integrate(sdof_system(), dt, 1.0)
        errors.append(np.max(np.abs(traj.states[0] - np.cos(2.0 * np.pi * traj.times))))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(1.9 <= p <= 2.1 for p in orders)
    assert abs(traj.states[0, -1] - 1.0) <= 1e-4  # endpoint error bound C*dt^2


def test_newmark_conserves_discrete_energy():
    gen = np.random.default_rng(43)
    n = 3
    m = np.diag([1.0, 2.0, 1.0])
    k = random_spd(n, seed=44)
    x0, v0 = gen.normal(size=n), gen.normal(size=n)
    sys = rom.LinearDynamicSystem(m, np.zeros((n, n)), k,
                                  lambda t: np.zeros(n), (x0, v0))
    traj = sp.newmark_integrate(sys, 0.01, 10.0)
    energy = 0.5 * np.einsum("it,ij,jt->t", traj.velocities, m, traj.velocities) \
        + 0.5 * np.einsum("it,ij,jt->t", traj.states, k, traj.states)
    drift = np.max(np.abs(energy - energy[0])) / energy[0]
    assert drift <= 1e-8


def test_indefinite_systems_solve_through_lu():
    # Cholesky refuses both matrices below; the static solve (LU) and the
    # Newmark step (the inverse of the effective stiffness) need no definiteness
    gen = np.random.default_rng(45)
    n = 4
    sym = gen.normal(size=(n, n))
    k = np.diag([3.0, -2.0, 1.0, -4.0]) + 0.1 * (sym + sym.T)
    f = gen.normal(size=n)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(k)
    x = sp.solve_linear_static(rom.LinearStaticSystem(k, f))
    assert np.max(np.abs(x - np.linalg.solve(k, f))) <= 1e-12 * np.max(np.abs(x))

    # average acceleration at dt = 0.1: K + (4/dt^2) M + (2/dt) C = -999,595 I
    dt, steps = 0.1, 5
    m, c, kd = np.eye(n), 0.5 * np.eye(n), -1e6 * np.eye(n)
    k_eff = kd + 4.0 / dt**2 * m + 2.0 / dt * c
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(k_eff)
    x0, v0, load = gen.normal(size=n), gen.normal(size=n), gen.normal(size=(steps + 1, n))
    traj = sp.newmark_integrate(rom.LinearDynamicSystem(m, c, kd, load, (x0, v0)),
                                dt, steps * dt)
    x, v = x0, v0
    a = np.linalg.solve(m, load[0] - c @ v - kd @ x)
    expected = [(x, v, a)]
    for i in range(1, steps + 1):
        x_new = np.linalg.solve(k_eff, load[i] + m @ (4.0 / dt**2 * x + 4.0 / dt * v + a)
                                + c @ (2.0 / dt * x + v))
        a_new = 4.0 / dt**2 * (x_new - x) - 4.0 / dt * v - a
        x, v, a = x_new, v + 0.5 * dt * (a + a_new), a_new
        expected.append((x, v, a))
    for got, want in zip((traj.states, traj.velocities, traj.accelerations),
                         (np.array(e).T for e in zip(*expected))):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_callable_load_integrates_as_its_samples_on_the_time_grid():
    # floor(0.365 / 0.01) = 36 steps; the load is sampled at each time once
    dynamic = surrogate_dynamics(SurrogateSpec(n=12, impulse_duration=0.1))
    dt, t_end = 0.01, 0.365
    sampled, times = rom.on_time_grid(dynamic, dt, t_end)
    assert times.tobytes() == (np.arange(37) * dt).tobytes()
    assert sampled.load.tobytes() == np.stack([dynamic.load(t) for t in times]).tobytes()
    assert rom.on_time_grid(sampled, dt, t_end)[0] is sampled     # an array passes as it is
    called, stepped = (sp.newmark_integrate(s, dt, t_end) for s in (dynamic, sampled))
    for field in ("times", "states", "velocities", "accelerations"):
        assert getattr(called, field).tobytes() == getattr(stepped, field).tobytes(), field
    with pytest.raises(ValueError, match="fewer rows"):
        rom.on_time_grid(sampled, dt, t_end + dt)


def test_newmark_rejects_bad_dt():
    with pytest.raises(ValueError):
        sp.newmark_integrate(sdof_system(), -0.1, 1.0)


# ---------------------------------------------------------------------------
# reconstruct and full-basis equivalence


def test_reconstruct_identity_and_zero():
    assert np.allclose(sp.reconstruct(np.eye(3), np.array([1.0, 2.0, 3.0])),
                       [1.0, 2.0, 3.0])
    assert np.allclose(sp.reconstruct(np.eye(3, 2), np.zeros(2)), 0.0)


def test_reconstruct_round_trip_full_basis():
    gen = np.random.default_rng(51)
    n = 7
    k = random_spd(n, seed=52)
    f = gen.normal(size=n)
    w = random_orthonormal(n, n, seed=53)
    red = sp.galerkin_reduce(rom.LinearStaticSystem(k, f), w)
    x = sp.reconstruct(w, sp.solve_linear_static(red))
    direct = sp.solve_linear_static(rom.LinearStaticSystem(k, f))
    assert np.linalg.norm(x - direct) <= 1e-8 * np.linalg.norm(direct)


def test_subspace_basis_reduces_and_lifts_as_its_matrix():
    w = random_orthonormal(8, 3, seed=57)
    basis = sp.SubspaceBasis(w)
    system = rom.LinearStaticSystem(random_spd(8, seed=58), np.arange(8.0))
    by_basis, by_matrix = sp.galerkin_reduce(system, basis), sp.galerkin_reduce(system, w)
    assert np.array_equal(by_basis.stiffness, by_matrix.stiffness)
    assert np.array_equal(by_basis.force, by_matrix.force)
    q = sp.solve_linear_static(by_matrix)
    assert np.array_equal(sp.reconstruct(basis, q), sp.reconstruct(w, q))
    dynamic = rom.LinearDynamicSystem(np.eye(3), np.zeros((3, 3)), by_matrix.stiffness,
                                      lambda t: by_matrix.force, (q, np.zeros(3)))
    traj = sp.newmark_integrate(dynamic, 0.01, 0.1)
    lifted, direct = sp.reconstruct(basis, traj), sp.reconstruct(w, traj)
    for field in ("times", "states", "velocities", "accelerations"):
        assert np.array_equal(getattr(lifted, field), getattr(direct, field)), field


def test_full_basis_rom_matches_hdm_dynamic():
    gen = np.random.default_rng(54)
    n = 6
    m = np.diag(gen.uniform(1.0, 3.0, n))
    k = random_spd(n, seed=55)
    c = 1e-3 * k
    f = gen.normal(size=n)
    x0, v0 = gen.normal(size=n), gen.normal(size=n)
    sys = rom.LinearDynamicSystem(m, c, k, lambda t: f * np.sin(3.0 * t), (x0, v0))
    w = random_orthonormal(n, n, seed=56)
    full = sp.newmark_integrate(sys, 0.01, 2.0)
    red = sp.galerkin_reduce(sys, w)
    lifted = sp.reconstruct(w, sp.newmark_integrate(red, 0.01, 2.0))
    scale = np.linalg.norm(full.states)
    assert np.linalg.norm(lifted.states - full.states) <= 1e-8 * scale
    assert np.linalg.norm(lifted.velocities - full.velocities) \
        <= 1e-8 * np.linalg.norm(full.velocities)


def test_constraint_inheritance_through_reduction():
    stiff = SpectralStiffness.sine_basis(40)
    # snapshots satisfying the constraints exactly
    gen = np.random.default_rng(57)
    snaps = stiff.modes[:, :6] @ gen.normal(size=(6, 12))
    pod = sp.compact_svd(sp.center(snaps))
    basis = pod.modes[:, :3]
    sys = rom.LinearStaticSystem(stiff.matrix,
                                 stiff.mode_combination_force([1.0, 0.5, 0.2]),
                                 stiff.constraints)
    red = sp.galerkin_reduce(sys, basis)
    x = sp.reconstruct(basis, sp.solve_linear_static(red))
    b = stiff.constraints
    assert np.linalg.norm(b.T @ x) <= 1e-9 * np.linalg.norm(x)
