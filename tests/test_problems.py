import numpy as np
import pytest

import stochpod as sp
from stochpod.problems import (SpectralStiffness, SurrogateSpec, add_noise,
                               build_cubic_problem, dst1_matrix, lhs_sample,
                               observe_sparse, perturb_stiffness,
                               surrogate_dynamics)


# ---------------------------------------------------------------------------
# DST-I and spectral stiffness


def test_dst1_order_one():
    assert np.allclose(dst1_matrix(1), [[1.0]])


def test_dst1_order_two_explicit():
    s = dst1_matrix(2)
    c = np.sqrt(2.0 / 3.0)
    expected = c * np.array([[np.sin(np.pi / 3), np.sin(2 * np.pi / 3)],
                             [np.sin(2 * np.pi / 3), np.sin(4 * np.pi / 3)]])
    assert np.allclose(s, expected, atol=1e-14)
    assert np.max(np.abs(s.T @ s - np.eye(2))) <= 1e-12


def test_dst1_orthogonality_large():
    s = dst1_matrix(100)
    assert np.max(np.abs(s.T @ s - np.eye(100))) <= 1e-10
    assert np.allclose(s, s.T)


def test_spectral_stiffness_eigen_identity():
    stiff = SpectralStiffness.sine_basis(1000)
    k = stiff.matrix
    for j in range(1, 11):
        phi = stiff.modes[:, j - 1]
        lam = 4.0 * np.pi**2 * j**2
        assert np.linalg.norm(k @ phi - lam * phi) / lam <= 1e-8


def test_spectral_stiffness_annihilates_boundary():
    stiff = SpectralStiffness.sine_basis(50)
    assert np.all(stiff.modes[0] == 0.0)
    assert np.all(stiff.modes[-1] == 0.0)
    assert np.max(np.abs(stiff.constraints.T @ stiff.modes)) == 0.0


# ---------------------------------------------------------------------------
# cubic problem


def test_cubic_force_single_mode():
    sys = build_cubic_problem(32, 1.0)
    stiff = SpectralStiffness.sine_basis(32)
    mu = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    phi2 = stiff.modes[:, 1]
    assert np.allclose(sys.force_map(mu), phi2 / np.max(np.abs(phi2)))


def test_cubic_force_unit_max_norm():
    sys = build_cubic_problem(64, 10.0)
    gen = np.random.default_rng(3)
    for _ in range(5):
        f = sys.force_map(gen.uniform(0.1, 1.0, size=5))
        assert np.max(np.abs(f)) == pytest.approx(1.0)
        assert f[0] == 0.0 and f[-1] == 0.0


def test_cubic_force_rejects_zero_parameter():
    sys = build_cubic_problem(16, 1.0)
    with pytest.raises(ValueError):
        sys.force_map(np.zeros(5))


def test_cubic_full_scale_newton_converges():
    sys = build_cubic_problem(1000, 1.0e4)
    mu = np.array([0.5, 0.5, 0.5, 0.5, 1.0])
    x = sp.solve_nonlinear_cubic(sys, mu)
    assert x[0] == 0.0 and x[-1] == 0.0
    residual = sys.stiffness @ x + 1e4 * x**3 - sys.force_map(mu)
    assert np.max(np.abs(residual)) <= 1e-10


# ---------------------------------------------------------------------------
# Latin hypercube


def test_lhs_single_point():
    pts = lhs_sample(3, 1, sp.RandomStream(1))
    assert pts.shape == (1, 3)
    assert np.all((pts >= 0) & (pts <= 1))


def test_lhs_one_per_quartile():
    pts = lhs_sample(1, 4, sp.RandomStream(2)).ravel()
    counts, _ = np.histogram(pts, bins=np.linspace(0, 1, 5))
    assert np.all(counts == 1)


def test_lhs_stratification_exact():
    pts = lhs_sample(5, 100, sp.RandomStream(3))
    for j in range(5):
        counts, _ = np.histogram(pts[:, j], bins=np.linspace(0, 1, 101))
        assert np.all(counts == 1)


# ---------------------------------------------------------------------------
# perturbation, noise, observation


def test_perturb_zero_ratio_is_identity():
    stiff = SpectralStiffness.sine_basis(20)
    assert perturb_stiffness(stiff, 0.0, sp.RandomStream(5)) is stiff


def test_perturb_frobenius_calibration():
    stiff = SpectralStiffness.sine_basis(40)
    for seed in (1, 2, 3):
        pert = perturb_stiffness(stiff, 0.15, sp.RandomStream(seed))
        delta = pert.eigvals - stiff.eigvals
        ratio = np.linalg.norm(delta) / np.linalg.norm(stiff.eigvals)
        assert ratio == pytest.approx(0.15, abs=1e-12)


def test_perturb_matrix_norm_matches_eigen_norm():
    stiff = SpectralStiffness.sine_basis(16)
    pert = perturb_stiffness(stiff, 0.15, sp.RandomStream(7))
    delta_eigs = pert.eigvals - stiff.eigvals
    # dense oracle: the congruence by orthonormal modes preserves Frobenius
    dense = (stiff.modes * delta_eigs) @ stiff.modes.T
    assert np.linalg.norm(dense) == pytest.approx(np.linalg.norm(delta_eigs),
                                                  rel=1e-12)


def test_add_noise_zero_level():
    x = np.array([1.0, -2.0, 3.0])
    noisy, sigma = add_noise(x, 0.0, sp.RandomStream(8))
    assert sigma == 0.0
    assert np.array_equal(noisy, x)


def test_add_noise_constant_signal():
    x = np.full(50, -4.0)
    _, sigma = add_noise(x, 0.05, sp.RandomStream(9))
    assert sigma == pytest.approx(0.05 * 4.0)


def test_add_noise_empirical_std():
    x = np.random.default_rng(10).normal(size=10_000)
    noisy, sigma = add_noise(x, 0.05, sp.RandomStream(11))
    assert np.std(noisy - x) == pytest.approx(sigma, rel=0.03)


def test_observe_sparse_exact_alignment():
    x = np.arange(21.0)
    idx, values = observe_sparse(x, 19)
    assert np.array_equal(idx, np.arange(1, 20))
    assert np.array_equal(values, x[1:20])


def test_observe_sparse_interior_and_sorted():
    x = np.zeros(1000)
    idx, _ = observe_sparse(x, 19)
    assert idx.shape == (19,)
    assert np.all(np.diff(idx) > 0)
    assert idx[0] >= 1 and idx[-1] <= 998
    # nearest-node rounding stays within half a grid spacing
    positions = idx / 999.0
    targets = np.arange(1, 20) / 20.0
    assert np.max(np.abs(positions - targets)) <= 0.5 / 999.0 + 1e-12


def test_observe_sparse_coarse_grid_collision():
    with pytest.raises(ValueError):
        observe_sparse(np.zeros(10), 19)


# ---------------------------------------------------------------------------
# dynamics surrogate


def test_surrogate_mass_and_stiffness_properties():
    spec = SurrogateSpec(n=200)
    sys = surrogate_dynamics(spec)
    masses = np.diag(sys.mass)
    assert np.all(masses > 0)
    heavy = np.argmax(masses)
    assert heavy == 100
    others = np.delete(masses, heavy)
    assert masses[heavy] == pytest.approx(100.0 * others[0])
    eigs = np.linalg.eigvalsh(sys.stiffness)
    assert eigs[0] >= -1e-8 * eigs[-1]
    # banded: couplings beyond the second neighbor vanish
    assert np.max(np.abs(np.triu(sys.stiffness, 3))) == 0.0


def test_surrogate_is_deterministic():
    a = surrogate_dynamics(SurrogateSpec(n=30))
    b = surrogate_dynamics(SurrogateSpec(n=30))
    assert np.array_equal(a.stiffness, b.stiffness)
    assert np.array_equal(a.mass, b.mass)


def test_surrogate_zero_impulse_zero_response():
    spec = SurrogateSpec(n=20, impulse_amplitude=0.0)
    traj = sp.newmark_integrate(surrogate_dynamics(spec), 0.01, 0.5)
    assert np.all(traj.states == 0.0)


def test_surrogate_undamped_energy_after_impulse():
    spec = SurrogateSpec(n=24, rayleigh_beta=0.0, impulse_duration=0.05)
    sys = surrogate_dynamics(spec)
    dt = 0.005
    traj = sp.newmark_integrate(sys, dt, 2.0)
    m, k = sys.mass, sys.stiffness
    energy = 0.5 * np.einsum("it,ij,jt->t", traj.velocities, m, traj.velocities) \
        + 0.5 * np.einsum("it,ij,jt->t", traj.states, k, traj.states)
    after = energy[traj.times > spec.impulse_duration + dt]
    drift = (after.max() - after.min()) / after.max()
    assert drift <= 1e-8


def test_surrogate_rejects_small_n():
    with pytest.raises(ValueError):
        surrogate_dynamics(SurrogateSpec(n=5))
