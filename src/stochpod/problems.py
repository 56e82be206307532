"""Benchmark problem generators.

A one-dimensional family of static systems built from the orthogonal
type-I discrete sine transform (so stiffness eigenpairs are known in
closed form), Latin hypercube designs, calibrated random stiffness
perturbations, sparse noisy observation, and a small synthetic structural
dynamics surrogate (free-free chain with one heavy mass under a half-sine
impulse).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rom import LinearDynamicSystem, NonlinearCubicSystem
from .sampling import RandomStream

Array = np.ndarray


def dst1_matrix(m: int) -> Array:
    """Order-m type-I discrete sine transform matrix, scaled orthogonal.

    Entries sqrt(2/(m+1)) * sin(j*k*pi/(m+1)), j, k = 1..m; symmetric and
    orthogonal (it is its own inverse).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    j = np.arange(1, m + 1, dtype=np.int64)
    # reduce j*k mod 2(m+1) in exact integers: keeps sine arguments below
    # 2 pi, so the matrix is orthogonal to machine precision even for large
    # m (the stiffness spectrum amplifies any orthogonality defect)
    phase = np.outer(j, j) % (2 * (m + 1))
    return np.sqrt(2.0 / (m + 1)) * np.sin(phase * (np.pi / (m + 1)))


@dataclass(frozen=True)
class SpectralStiffness:
    """Stiffness with explicit eigenstructure K = Phi diag(eigvals) Phi^T.

    ``modes`` is n-by-(n-2) with orthonormal columns and zero first/last
    rows, so K annihilates the boundary degrees of freedom and every
    admissible response satisfies the homogeneous Dirichlet constraints
    automatically.
    """

    size: int
    modes: Array       # (n, n-2)
    eigvals: Array     # (n-2,), mode stiffness coefficients

    @classmethod
    def sine_basis(cls, n: int) -> "SpectralStiffness":
        """Eigenvectors from the DST-I, eigenvalues 4 pi^2 j^2."""
        if n < 4:
            raise ValueError("n must be >= 4")
        m = n - 2
        phi = np.zeros((n, m))
        phi[1:-1, :] = dst1_matrix(m)
        j = np.arange(1, m + 1)
        return cls(size=n, modes=phi, eigvals=4.0 * np.pi**2 * j**2)

    @cached_property
    def matrix(self) -> Array:
        return (self.modes * self.eigvals) @ self.modes.T

    @property
    def constraints(self) -> Array:
        b = np.zeros((self.size, 2))
        b[0, 0] = 1.0
        b[-1, 1] = 1.0
        return b

    def solve(self, force: Array) -> Array:
        """K x = f through the eigenstructure (exact for f in range(modes))."""
        if np.any(self.eigvals == 0.0):
            raise np.linalg.LinAlgError("stiffness has a zero eigenvalue")
        return self.modes @ (self.modes.T @ force / self.eigvals)

    def mode_combination_force(self, weights) -> Array:
        """Unit-infinity-norm combination of modes 2..(1+len(weights))."""
        w = np.asarray(weights, dtype=float)
        g = self.modes[:, 1:1 + w.shape[0]] @ w
        peak = np.max(np.abs(g))
        if peak == 0.0:
            raise ValueError("zero weight vector: force normalization undefined")
        return g / peak


def build_cubic_problem(n: int, alpha: float) -> NonlinearCubicSystem:
    """Cubic static system K x + alpha x^3 = f(mu) on the sine-basis stiffness.

    mu in [0,1]^5 weights modes 2..6; the force is normalized to unit
    max-norm and satisfies the boundary constraints by construction.
    """
    if n < 8:
        raise ValueError("n must be >= 8")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    stiff = SpectralStiffness.sine_basis(n)
    return NonlinearCubicSystem(
        stiffness=stiff.matrix,
        cubic_coeff=float(alpha),
        force_map=lambda mu: stiff.mode_combination_force(mu),
        constraints=stiff.constraints,
    )


def lhs_sample(dims: int, count: int, stream: RandomStream) -> Array:
    """Latin hypercube design on [0,1]^dims.

    Each column is a permutation of the ``count`` stratification cells
    with one uniformly jittered point per cell.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = stream.generator()
    out = np.empty((count, dims))
    for j in range(dims):
        cells = gen.permutation(count)
        out[:, j] = (cells + gen.random(count)) / count
    return out


def perturb_stiffness(base: SpectralStiffness, ratio: float,
                      stream: RandomStream) -> SpectralStiffness:
    """Random eigenvalue perturbation with exact Frobenius calibration.

    Draws z ~ N(0, I) and scales so that the perturbation's Frobenius
    norm is exactly ``ratio`` times the stiffness norm; the orthonormal
    congruence makes the matrix-level ratio identical.
    """
    if ratio < 0:
        raise ValueError("ratio must be nonnegative")
    if ratio == 0.0:
        return base
    z = stream.generator().standard_normal(base.eigvals.shape[0])
    scaled = z * base.eigvals
    c = ratio * np.linalg.norm(base.eigvals) / np.linalg.norm(scaled)
    return SpectralStiffness(size=base.size, modes=base.modes,
                             eigvals=base.eigvals * (1.0 + c * z))


def add_noise(x, level: float, stream: RandomStream) -> tuple[Array, float]:
    """Additive Gaussian noise with sigma = level * RMS(x)."""
    if level < 0:
        raise ValueError("noise level must be nonnegative")
    x = np.asarray(x, dtype=float)
    sigma = float(level * np.sqrt(np.mean(x**2)))
    if sigma == 0.0:
        return x.copy(), 0.0
    return x + sigma * stream.generator().standard_normal(x.shape[0]), sigma


def observe_sparse(x, sensor_count: int) -> tuple[Array, Array]:
    """The indices of equidistant interior sensors, and the values of x there.

    With s sensors on a domain discretized by len(x) equispaced nodes,
    sensor j sits at the node nearest to fraction j/(s+1), boundaries
    excluded.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if sensor_count < 1:
        raise ValueError("need sensor_count >= 1")
    fractions = np.arange(1, sensor_count + 1) / (sensor_count + 1)
    idx = np.rint(fractions * (n - 1)).astype(int)
    if np.unique(idx).shape[0] != idx.shape[0]:
        raise ValueError("grid too coarse: sensors collide after rounding")
    if idx[0] < 1 or idx[-1] > n - 2:
        raise ValueError("sensors must lie strictly inside the domain")
    return idx, x[idx]


@dataclass(frozen=True)
class SurrogateSpec:
    """Deterministic recipe for the synthetic dynamics surrogate."""

    n: int
    heavy_dof: int | None = None       # default: center node
    mass_ratio: float = 100.0
    stiffness_scale: float = 1.0e4
    rayleigh_beta: float = 2.0e-4
    impulse_amplitude: float = 1.0
    impulse_duration: float = 0.05
    structure_seed: int = 60301


def surrogate_dynamics(spec: SurrogateSpec) -> LinearDynamicSystem:
    """Free-free spring chain with one ~100x heavy mass and a half-sine impulse.

    The stiffness is banded positive semidefinite (rigid-body translation
    is in its kernel, as for an unconstrained structure), the mass matrix
    diagonal positive, damping stiffness-proportional.  Everything is a
    deterministic function of the recipe.
    """
    n = spec.n
    if n < 10:
        raise ValueError("surrogate needs n >= 10")
    heavy = spec.heavy_dof if spec.heavy_dof is not None else n // 2
    if not 0 <= heavy < n:
        raise ValueError("heavy_dof out of range")
    gen = RandomStream(spec.structure_seed).generator()
    k = np.zeros((n, n))
    # nearest-neighbour springs, then second-neighbour ones at a quarter of their scale
    for gap, scale in ((1, 1.0), (2, 0.25)):
        springs = scale * spec.stiffness_scale * (1.0 + 0.4 * gen.random(n - gap))
        for i, s in enumerate(springs):
            k[i, i] += s
            k[i + gap, i + gap] += s
            k[i, i + gap] -= s
            k[i + gap, i] -= s
    m = np.ones(n)              # unit masses, then the heavy one
    m[heavy] *= spec.mass_ratio
    mass = np.diag(m)
    damping = spec.rayleigh_beta * k

    amp, width = spec.impulse_amplitude, spec.impulse_duration

    def load(t: float) -> Array:
        f = np.zeros(n)
        if 0.0 <= t <= width:
            f[heavy] = amp * np.sin(np.pi * t / width)
        return f

    return LinearDynamicSystem(mass=mass, damping=damping, stiffness=k,
                               load=load, initial_state=(np.zeros(n), np.zeros(n)))
