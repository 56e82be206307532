"""Full-order systems, Galerkin reduction, and solvers.

Three system classes are supported: linear static, cubic nonlinear
static, and linear second-order dynamics.  Reduction is plain Galerkin
projection of a linear system, and a reduced system is a system of the
same class in basis coordinates.  Projecting the operators once onto
the rank-r modes with ``galerkin_reduce`` and then cheaply re-projecting
per k-dimensional inner basis with ``inner_reduce`` is what makes large
stochastic ensembles affordable.  The cubic system is reduced inside
``solve_rom_nonlinear``, which lifts its cubic term to full space.
``newmark_stepper`` is the one Newmark update: ``newmark_integrate``
steps a full or reduced system with it, and the batched ensemble
kernel (``pipeline._dynamic_qoi_predictions``) steps stacked draws.
Every dense solve is numpy's (LU, or the inverse of the Newmark
effective stiffness), so numpy is the only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .errors import ConvergenceError
from .subspace import SubspaceBasis

Array = np.ndarray


class _ProjectionCounter:
    """Counts full-space operator projections (test instrumentation)."""

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


projection_counter = _ProjectionCounter()


# ---------------------------------------------------------------------------
# systems

@dataclass(frozen=True)
class LinearStaticSystem:
    stiffness: Array                      # (n, n) symmetric
    force: Array                          # (n,)
    constraints: Array | None = None      # (n, n_cd), admissible set B^T x = 0


@dataclass(frozen=True)
class NonlinearCubicSystem:
    """K x + cubic_coeff * x^3 = force_map(mu), cubing elementwise."""

    stiffness: Array
    cubic_coeff: float
    force_map: Callable[[Array], Array]
    constraints: Array | None = None


@dataclass(frozen=True)
class LinearDynamicSystem:
    """M x'' + C x' + K x = load(t)."""

    mass: Array
    damping: Array
    stiffness: Array
    load: Union[Callable[[float], Array], Array]   # callable, or (steps+1, n) samples
    initial_state: tuple[Array, Array]             # (x0, v0)


def basis_matrix(basis) -> Array:
    if isinstance(basis, SubspaceBasis):
        return basis.matrix
    return np.asarray(basis, dtype=float)


# ---------------------------------------------------------------------------
# reduction

def _project_operator(a: Array, v: Array) -> Array:
    projection_counter.bump()
    return v.T @ a @ v


def _project_load(load, v: Array):
    if callable(load):
        return lambda t, _load=load, _v=v: _v.T @ _load(t)
    return np.asarray(load, dtype=float) @ v


def _reduce(system, v: Array, project):
    """The linear ``system`` projected onto the columns of ``v``."""
    if isinstance(system, LinearStaticSystem):
        return LinearStaticSystem(stiffness=project(system.stiffness, v),
                                  force=v.T @ system.force)
    if isinstance(system, LinearDynamicSystem):
        x0, v0 = system.initial_state
        return LinearDynamicSystem(
            mass=project(system.mass, v),
            damping=project(system.damping, v),
            stiffness=project(system.stiffness, v),
            load=_project_load(system.load, v),
            initial_state=(v.T @ x0, v.T @ v0))
    raise TypeError(f"cannot reduce {type(system).__name__}: not a linear system")


def galerkin_reduce(system, basis):
    """Project a linear system onto an orthonormal basis."""
    v = basis_matrix(basis)
    n = system.stiffness.shape[0]
    if v.shape[0] != n:
        raise ValueError(f"basis rows {v.shape[0]} do not match system dimension {n}")
    return _reduce(system, v, _project_operator)


def inner_reduce(staged, inner):
    """Re-project a rank-r reduced system onto an r-by-k inner basis."""
    return _reduce(staged, basis_matrix(inner), lambda a, u: u.T @ a @ u)


# ---------------------------------------------------------------------------
# constraint handling

def _free_dofs(b, n: int) -> Array | None:
    """The DoFs of an n-DoF system that the constraints B leave free: all n
    without B; when every column of B is a (+/-) standard basis vector, all
    but the DoFs those pick out; else None."""
    if b is None:
        return np.arange(n)
    fixed = []
    for col in np.asarray(b, dtype=float).T:
        nz = np.flatnonzero(col)
        if nz.size != 1 or abs(col[nz[0]]) != 1.0:
            return None
        fixed.append(nz[0])
    return np.setdiff1d(np.arange(n), fixed)


def solve_linear_static(system) -> Array:
    """Solve K x = f with the constraints honored."""
    if not isinstance(system, LinearStaticSystem):
        raise TypeError(f"expected a linear static system, got {type(system).__name__}")
    k, f, b = system.stiffness, system.force, system.constraints
    free = _free_dofs(b, k.shape[0])
    if free is not None:
        x = np.zeros(k.shape[0])
        x[free] = np.linalg.solve(k[np.ix_(free, free)], f[free])
        return x
    b = np.asarray(b, dtype=float)
    # the null space of B^T: right singular vectors beyond the numerical rank
    _, s, vt = np.linalg.svd(b.T)
    rank = np.count_nonzero(s > max(b.shape) * np.finfo(float).eps * s[0])
    nullbasis = vt[rank:].T
    return nullbasis @ np.linalg.solve(nullbasis.T @ k @ nullbasis, nullbasis.T @ f)


# ---------------------------------------------------------------------------
# Newton for the cubic system

def _newton(residual, jacobian, guess, tol, max_iter):
    x = np.array(guess, dtype=float)
    for iteration in range(max_iter + 1):
        res = residual(x)
        norm = float(np.max(np.abs(res)))
        if norm <= tol:
            return x
        if iteration < max_iter:
            x = x - np.linalg.solve(jacobian(x), res)
    raise ConvergenceError(
        f"Newton did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {norm:.3e})", residual=norm, iterations=max_iter)


def solve_nonlinear_cubic(system: NonlinearCubicSystem, mu, guess=None,
                          tol: float = 1e-10, max_iter: int = 50) -> Array:
    """Newton solve of K x + a x^3 = f(mu) with Jacobian K + 3a diag(x^2)."""
    k = system.stiffness
    a = system.cubic_coeff
    f = system.force_map(mu)
    n = k.shape[0]
    keep = _free_dofs(system.constraints, n)
    if keep is None:
        raise NotImplementedError("non-canonical constraints on the cubic system")
    kc = k[np.ix_(keep, keep)]
    fc = f[keep]
    y0 = np.zeros(keep.size) if guess is None else np.asarray(guess, dtype=float)[keep]
    y = _newton(lambda x: kc @ x + a * x**3 - fc,
                lambda x: kc + 3.0 * a * np.diag(x**2),
                y0, tol, max_iter)
    x = np.zeros(n)
    x[keep] = y
    return x


def solve_rom_nonlinear(basis, system: NonlinearCubicSystem, mu, guess=None,
                        tol: float = 1e-10, max_iter: int = 50) -> Array:
    """Reduced Newton solve; the cubic term is lifted, cubed, projected back."""
    w = basis_matrix(basis)
    kr = _project_operator(system.stiffness, w)
    a = system.cubic_coeff
    fr = w.T @ system.force_map(mu)
    q0 = np.zeros(w.shape[1]) if guess is None else np.asarray(guess, dtype=float)

    def residual(q):
        lifted = w @ q
        return kr @ q + a * (w.T @ lifted**3) - fr

    def jacobian(q):
        lifted = w @ q
        return kr + 3.0 * a * (w.T * lifted**2) @ w

    return _newton(residual, jacobian, q0, tol, max_iter)


# ---------------------------------------------------------------------------
# Newmark time integration

@dataclass(frozen=True)
class Trajectory:
    times: Array          # (steps + 1,)
    states: Array         # (dim, steps + 1)
    velocities: Array
    accelerations: Array


def time_grid(dt: float, t_end: float) -> Array:
    """The times 0, dt, ..., floor(t_end/dt) dt."""
    return np.arange(int(np.floor(t_end / dt + 1e-12)) + 1) * dt


def on_time_grid(system: LinearDynamicSystem, dt: float, t_end: float):
    """``(system, times)``: the times of ``time_grid``, and ``system`` with
    its load sampled there, one row per time.  A callable load is
    evaluated once per time; a load array must have a row for each time."""
    times = time_grid(dt, t_end)
    load = system.load
    if callable(load):
        return replace(system, load=np.stack([np.asarray(load(t), dtype=float)
                                              for t in times])), times
    if load.shape[0] < times.size:
        raise ValueError("precomputed load has fewer rows than time steps")
    return system, times


def newmark_stepper(m: Array, c: Array, k: Array, dt: float):
    """One Newmark step of M x'' + C x' + K x = f, as ``step(x, v, a, f)``.

    The effective stiffness K + c0 M + c1 C is inverted once, and each
    step multiplies by the inverse to solve (K + c0 M + c1 C) x' = f +
    M (c0 x + c2 v + c3 a) + C (c1 x + c4 v + c5 a), then a' = c0 (x' - x)
    - c2 v - c3 a and v' = v + c6 a + c7 a', and returns (x', v', a').
    The operators may carry leading batch axes and the states extra
    columns.

    The step is average acceleration, gamma = 1/2 and beta = 1/4, which is
    unconditionally stable: c0 = 1/(beta dt^2), c1 = gamma/(beta dt),
    c2 = 1/(beta dt), c3 = 1/(2 beta) - 1, c4 = gamma/beta - 1,
    c5 = dt (gamma/(2 beta) - 1), c6 = dt (1 - gamma) and c7 = gamma dt.
    """
    # to the last bit for dt > 0; the unit and zero factors stay in the step
    # so that zeros keep their signs and a non-finite a reaches the state
    c0, c1, c2 = 4.0 / dt**2, 2.0 / dt, 4.0 / dt
    c3, c4, c5 = 1.0, 1.0, 0.0
    c6 = c7 = 0.5 * dt
    inverse = np.linalg.inv(k + c0 * m + c1 * c)

    def step(x, v, a, f):
        x_new = inverse @ (f + m @ (c0 * x + c2 * v + c3 * a) + c @ (c1 * x + c4 * v + c5 * a))
        a_new = c0 * (x_new - x) - c2 * v - c3 * a
        return x_new, v + c6 * a + c7 * a_new, a_new
    return step


def newmark_integrate(system, dt: float, t_end: float) -> Trajectory:
    """Implicit Newmark integration of M x'' + C x' + K x = f(t).

    Each step is ``newmark_stepper``'s average-acceleration step, with
    the arithmetic of the batched ensemble kernel, on the time grid and
    load of ``on_time_grid``.  The initial acceleration comes from the
    equation of motion at t = 0.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not isinstance(system, LinearDynamicSystem):
        raise TypeError(f"expected a dynamic system, got {type(system).__name__}")
    system, times = on_time_grid(system, dt, t_end)
    m, c, k, load = system.mass, system.damping, system.stiffness, system.load
    x0, v0 = system.initial_state
    steps = times.size - 1

    dim = m.shape[0]
    x = np.empty((dim, steps + 1))
    v = np.empty((dim, steps + 1))
    a = np.empty((dim, steps + 1))
    x[:, 0] = x0
    v[:, 0] = v0
    a[:, 0] = np.linalg.solve(m, load[0] - c @ v0 - k @ x0)
    step = newmark_stepper(m, c, k, dt)
    for i in range(steps):
        x[:, i + 1], v[:, i + 1], a[:, i + 1] = step(x[:, i], v[:, i], a[:, i], load[i + 1])

    return Trajectory(times=times, states=x, velocities=v, accelerations=a)


def reconstruct(basis, reduced):
    """Lift reduced coordinates (vector or trajectory) to full space, x = W q."""
    w = basis_matrix(basis)
    if isinstance(reduced, Trajectory):
        return Trajectory(times=reduced.times,
                          states=w @ reduced.states,
                          velocities=w @ reduced.velocities,
                          accelerations=w @ reduced.accelerations)
    return w @ np.asarray(reduced, dtype=float)

