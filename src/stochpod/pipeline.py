"""End-to-end workflow: snapshots -> POD -> ROM -> train beta -> ensemble.

Four stages (train, sample, predict, report) with on-disk artifacts
between them; ``run_pipeline`` executes them in sequence, so a full run
and the stage-wise composition produce byte-identical data artifacts.
All randomness flows from the single config seed through fixed-purpose
derived seeds, making every artifact a deterministic function of the
config document.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, rom
from .config import ConfigError, RunConfig
from .ensemble import PredictionSummary, coverage, summarize_matrix
from .errors import ConvergenceError
from .matrixio import (artifact_hash, save_matrix, write_csv, write_json,
                       load_matrix, read_csv, read_json)     # called by name: _ARTIFACTS
from .problems import (SpectralStiffness, SurrogateSpec, add_noise,
                       build_cubic_problem, lhs_sample, observe_sparse,
                       perturb_stiffness, surrogate_dynamics)
from .sampling import (RandomStream, StochasticSubspaceModel, _in_pieces, _normals,
                       batch_fractional_draws)
from .subspace import center, compact_svd, select_rank
from .training import refine_beta_real, refinement_bounds, train_integer_beta

# fixed purposes for deriving independent sub-seeds from the config seed
_SEED_SNAPSHOTS = 11
_SEED_TRUTH = 12
_SEED_NOISE = 13
_SEED_TRAINING = 14
_SEED_ENSEMBLE = 15
_SEED_FORCES = 16

class MissingArtifactError(FileNotFoundError):
    """A stage was invoked before its upstream artifacts exist."""


class StaleArtifactError(MissingArtifactError):
    """An upstream artifact was made from a different config."""


def derive_seed(master: int, purpose: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(purpose,)).generate_state(1)[0])


@dataclass
class RunReport:
    beta_star: float
    coverage: float
    mean_pi_width: float
    wall_times: dict
    details: dict


# ---------------------------------------------------------------------------
# batched Monte-Carlo kernels shared by training and prediction


def _mc_draws(scales, k, seed, count, chunk, fn, widest=None):
    """beta -> ``fn(draws, indices)`` over stream indices 0..count-1, concatenated.

    The draws go to ``fn`` in consecutive batches of at most ``chunk``,
    which bounds the kernels' temporaries without changing any draw.
    Every beta draws from the same streams (common random numbers): the
    returned function holds their Gaussian matrices in one (count, rank,
    width) block, filled whole by one ``sampling._normals`` call at the
    first beta, and each chunk's rows go to the sampler, which slices the
    beta's columns.  ``widest``, the largest beta the caller will ask for
    if it knows it, makes that first fill wide enough for every later
    beta; otherwise a wider beta fills the block again at its own width.

    Each chunk is one call of the sampler and one of ``fn``, on the
    calling thread.  Inside them, three sites split the chunk into one
    piece per CPU this process may use (``sampling._in_pieces``), so no
    more draws are in flight than in one chunk: the sampler's top-k rule,
    the Newton kernel and the Newmark kernel.  The linear kernel and
    ``_mc_objective``'s gaps run whole, and the streams are generated,
    scaled or sliced before the pieces start.  The bits do not move: a
    draw depends only on its stream index, the sampler and the kernels
    treat the draws of a batch one by one, and the pieces are put back
    together in index order.
    """
    chunks = [range(start, min(start + chunk, count)) for start in range(0, count, chunk)]
    held = None

    def run(beta):
        nonlocal held
        model = StochasticSubspaceModel(scales, k, beta)
        cols = int(np.ceil(beta))
        if held is None or cols > held.shape[2]:
            held = None                         # free the narrower block first
            held = _normals(seed, range(count), model.rank,
                            max(cols, int(np.ceil(widest or 0))))
        return np.concatenate([
            fn(batch_fractional_draws(model, held[indices.start:indices.stop], indices), indices)
            for indices in chunks])

    return run


#: Doubles per block of ``_mc_objective``'s distance temporaries: blocks
#: that stay in cache.  Whole-batch temporaries made ex1-cubic's training
#: 13% slower.
_GAP_BLOCK = 1 << 15


def _mc_objective(scales, k, seed, count, chunk, predict, reference, d_truth,
                  widest=None):
    """The Monte-Carlo objective f(beta) = E[(d(u) - d_truth)^2].

    ``predict(draws, indices)`` returns the predictions of a batch of
    draws, and d is their L2 distance to ``reference`` along axis 1.  A
    draw's gap is the mean of (d - d_truth)^2 over any trailing parameter
    axis, so ``d_truth`` is a scalar or holds one distance per parameter.
    f is one sum over the gaps of all draws, divided by ``count``, so its
    value does not depend on ``chunk``.  ``widest`` goes to ``_mc_draws``.
    The gaps of a batch are computed whole, on the calling thread, in
    blocks of rows (``_GAP_BLOCK``); a draw's gap does not depend on them.
    """
    def gaps(draws, indices):
        predictions = predict(draws, indices)
        rows = max(1, _GAP_BLOCK // max(1, int(np.prod(predictions.shape[1:]))))
        d = np.concatenate([np.linalg.norm(predictions[start:start + rows] - reference,
                                           axis=1)
                            for start in range(0, len(predictions), rows)])
        return np.mean((d - d_truth)**2, axis=tuple(range(1, d.ndim)))

    values = _mc_draws(scales, k, seed, count, chunk, gaps, widest)
    return lambda beta: float(np.sum(values(beta))) / count


def _linear_qoi_predictions(draws, stiffness_r, force_r, qoi_rows):
    """Reduced static solves for stacked draws; returns (count, grid) values.
    The batch runs whole: split over two threads (``_in_pieces``), it ran no faster."""
    ut = draws.transpose(0, 2, 1)
    k_w = np.matmul(np.matmul(ut, stiffness_r), draws)
    f_w = np.matmul(ut, force_r)
    q = np.linalg.solve(k_w, f_w[:, :, None])
    rows_w = np.matmul(qoi_rows, draws)            # (count, s, k)
    return np.matmul(rows_w, q)[:, :, 0]


def _cubic_newton_batch(w, stiffness_r, alpha, forces_r, q0, tol, max_iter, indices,
                        workspace):
    """Newton over a batch of draws, each with a batch of right-hand sides.

    Draw d has basis w[d] (n, k) and residual rows
    K_r q + alpha W^T (W q)^3 - f_r, one per row of forces_r[d] (P, k).
    A row stops updating once its residual is within ``tol``.  Returns q
    of shape (D, P, k), a new array.  ``indices`` name the draws (stream
    indices) in the error raised when some of them stall: every stalled
    draw of the batch, whichever piece it is in.

    The draws are solved in pieces (``_in_pieces``), each by
    ``_newton_rows`` on its own slices of the arrays in ``workspace``, a
    list that one loop (same n, k and P) keeps across its chunks, filled at
    its first call or one with more draws: their pages are faulted in once.
    """
    q = np.array(q0, dtype=float)
    count, n, k = w.shape
    if not workspace or len(workspace[0]) < count:
        workspace[:] = [np.empty((count, n, k, k)),
                        *(np.empty((count, n, q.shape[1])) for _ in range(3))]
    buffers = [b[:count] for b in workspace]

    def solve(part):
        stalled, worst = _newton_rows(w[part], stiffness_r[part], alpha, forces_r[part],
                                      q[part], tol, max_iter, [b[part] for b in buffers])
        return [indices[part.start + j] for j in stalled], worst

    outcomes = _in_pieces(solve, count)
    stalled = [i for names, _ in outcomes for i in names]
    if stalled:
        worst = max(worst for names, worst in outcomes if names)
        raise ConvergenceError(
            f"batched Newton stalled at residual {worst:.3e} in draw(s) {stalled}",
            residual=worst, iterations=max_iter)
    return q


def _newton_rows(w, stiffness_r, alpha, forces_r, q, tol, max_iter, buffers):
    """Newton steps on q (D, P, k) in place; (stalled draws' positions, worst residual).

    The Jacobian K_r + 3 alpha W^T diag((W q)^2) W of every row is one
    batched GEMM of the squares against the per-draw outer products
    w[n, k] w[n, l], held as (D, n, k*k).  The cube is written as products
    because numpy's ``**3`` goes through libm ``pow``.  The outer products
    and the three (D, n, P) arrays (the lifted rows, their squares and the
    scaled cubes) are filled in place in ``buffers``.
    """
    count, n, k = w.shape
    outer, lifted, sq, cube = buffers
    np.multiply(w[:, :, :, None], w[:, :, None, :], out=outer)
    ww = outer.reshape(count, n, k * k)
    for iteration in range(max_iter + 1):
        np.matmul(w, q.transpose(0, 2, 1), out=lifted)
        np.multiply(lifted, lifted, out=sq)
        np.multiply(alpha, np.multiply(sq, lifted, out=cube), out=cube)
        res = (np.matmul(q, stiffness_r.transpose(0, 2, 1))
               + np.matmul(cube.transpose(0, 2, 1), w) - forces_r)
        active = np.max(np.abs(res), axis=2) > tol                       # (D, P)
        if not np.any(active):
            return [], 0.0
        if iteration == max_iter:
            break
        d, p = np.nonzero(active)
        curvature = np.matmul(sq.transpose(0, 2, 1), ww)                 # (D, P, k*k)
        jac = stiffness_r[d] + 3.0 * alpha * curvature[d, p].reshape(-1, k, k)
        q[d, p] -= np.linalg.solve(jac, res[d, p][:, :, None])[:, :, 0]
    return np.flatnonzero(np.any(active, axis=1)), float(np.max(np.abs(res)))


#: Rows (time steps x series) of the observation stack of the free phase
#: of ``_dynamic_qoi_predictions``: it holds count x 64 x 3k doubles, 7.9 MB
#: for 512 draws at k = 10, whatever the number of series.
_FREE_ROWS = 64


def _dynamic_qoi_predictions(draws, reduced, modes, dt, steps, series):
    """Batched reduced Newmark integration extracting QoI series.

    ``reduced`` is the rank-r reduced dynamic system with a precomputed
    load matrix (steps+1, r).  ``series`` lists (dof, derivative order)
    pairs.  Returns a (count, len(series), steps+1) array, which
    ``_dynamic_rows`` fills in pieces (``_in_pieces``).
    """
    out = np.empty((len(draws), len(series), steps + 1))
    _in_pieces(lambda part: _dynamic_rows(draws[part], reduced, modes, dt, steps,
                                          series, out[part]), len(draws))
    return out


def _dynamic_rows(draws, reduced, modes, dt, steps, series, out):
    """``_dynamic_qoi_predictions`` of ``draws``, written into ``out``.

    The recurrence is stepped while the load acts, up to its last
    non-zero row.  From there on each state s = (x, v, a) is T^m of the
    last forced one, where T (count, 3k, 3k) is the unloaded step
    applied to the 3k unit states.  The outputs come in blocks of L
    steps as [C; C T; ...; C T^(L-1)] s, the stack built by doubling,
    with s <- T^L s between blocks.  Powers need no eigen-decomposition,
    which a free-free chain's rigid-body mode (T nearly defective at
    eigenvalue 1) would make ill-conditioned, and hold for any damping.
    """
    load_r = reduced.load
    count, _, k = draws.shape
    ut = draws.transpose(0, 2, 1)
    m_w = np.matmul(np.matmul(ut, reduced.mass), draws)
    c_w = np.matmul(np.matmul(ut, reduced.damping), draws)
    k_w = np.matmul(np.matmul(ut, reduced.stiffness), draws)
    x = np.matmul(ut, reduced.initial_state[0])[:, :, None]
    v = np.matmul(ut, reduced.initial_state[1])[:, :, None]

    f0 = np.matmul(load_r[0], draws)[:, :, None]
    a = np.linalg.solve(m_w, f0 - np.matmul(c_w, v) - np.matmul(k_w, x))
    step = rom.newmark_stepper(m_w, c_w, k_w, dt)

    rows = [np.matmul(modes[dof], draws) for dof, _ in series]
    loaded = np.flatnonzero(np.any(load_r[1:steps + 1] != 0.0, axis=1))
    forced = loaded[-1] + 1 if loaded.size else 0     # steps the load acts in
    for i in range(forced):
        for j, (_, order) in enumerate(series):
            out[:, j, i] = np.einsum("ck,ck->c", rows[j], (x, v, a)[order][:, :, 0])
        x, v, a = step(x, v, a, np.matmul(load_r[i + 1], draws)[:, :, None])

    unit = np.eye(3 * k)
    power = np.concatenate(step(unit[:k], unit[k:2 * k], unit[2 * k:], 0.0), axis=1)
    width = len(series)
    block = 1
    while 2 * block * width <= _FREE_ROWS and block < steps + 1 - forced:
        block *= 2
    obs = np.zeros((count, block * width, 3 * k))
    for j, (_, order) in enumerate(series):
        obs[:, j, order * k:(order + 1) * k] = rows[j]
    filled = width
    while filled < obs.shape[1]:       # rows l of C T^l, then power = T^L
        np.matmul(obs[:, :filled], power, out=obs[:, filled:2 * filled])
        power = np.matmul(power, power)
        filled *= 2
    state = np.concatenate([x, v, a], axis=1)
    for t in range(forced, steps + 1, block):
        size = min(block, steps + 1 - t)
        y = np.matmul(obs[:, :size * width], state)
        out[:, :, t:t + size] = y.reshape(count, size, width).transpose(0, 2, 1)
        state = np.matmul(power, state)


# ---------------------------------------------------------------------------
# problem drivers
#
# Each driver sets up its batched kernel in one method, ``_kernel(modes,
# ...)``, that returns one ``predict(draws, indices)`` closure and holds
# its set-up (a reduction, or the cubic's Newton buffers) for one loop.
# ``integer_evaluator`` returns ``_mc_objective`` of it with the driver's
# reference and the truth's distance to it, f(beta) at real beta (integer
# training and refinement both use it); ``draw_ensembles`` runs one
# ``_mc_draws`` of it at each named beta, one (count, grid) matrix each.
# ``references`` solves the deterministic ROM with its own kernel at the
# identity draw (``_mode_draw``); only the train stage calls it, and
# sampling reads its observations artifact.
# The stages read what a driver writes from its class attributes, so that
# predict and report construct no driver (``grid_of(problem settings)``).


def _mode_draw(modes, k):
    """The inner draw whose basis is exactly modes[:, :k]: the POD ROM."""
    return np.eye(modes.shape[1])[None, :, :k]


class CubicDriver:
    """Parametric cubic static problem: ROM-error characterization."""

    kind = "cubic-parametric"
    # the raw snapshot matrix is the decomposition operand: its mean state
    # is load-bearing and must stay inside the reduced basis
    pod_source = "raw"
    extra_series = {}
    writes_sensors = False
    grid_of = staticmethod(lambda p: np.arange(p["n"]) / (p["n"] - 1))   # n nodes on [0, 1]

    def __init__(self, config: RunConfig):
        p = config.problem_settings
        self.n = p["n"]
        self.alpha = float(p["alpha"])
        self.snapshot_count = int(p["snapshot_count"])
        self.mu_test = np.asarray(p["mu_test"], dtype=float)
        self.newton_tol = float(p["newton_tol"])
        self.newton_max_iter = int(p["newton_max_iter"])
        # pooled: one stacked observation vector across training parameters
        self.aggregation = config.parametric_aggregation
        self.system = build_cubic_problem(self.n, self.alpha)
        self.seed = config.seed
        self.grid = self.grid_of(p)
        self.params = lhs_sample(5, self.snapshot_count,
                                 RandomStream(derive_seed(self.seed, _SEED_SNAPSHOTS)))

    def snapshots(self) -> np.ndarray:
        x = np.empty((self.n, self.snapshot_count))
        guess = None
        for j in range(self.snapshot_count):
            x[:, j] = rom.solve_nonlinear_cubic(
                self.system, self.params[j], guess=guess,
                tol=self.newton_tol, max_iter=self.newton_max_iter)
            guess = x[:, j]
        return x

    def references(self, modes, k, snapshots) -> dict:
        # every training parameter and mu_test, each solved from zero
        forces = np.stack([self.system.force_map(mu)
                           for mu in (*self.params, self.mu_test)])
        solved = self._kernel(modes, forces, np.zeros_like(forces))(
            _mode_draw(modes, k), ["rom"])[0]
        rom_train, rom_test = solved[:, :-1], solved[:, -1]
        hdm_test = rom.solve_nonlinear_cubic(self.system, self.mu_test,
                                             guess=rom_test,
                                             tol=self.newton_tol,
                                             max_iter=self.newton_max_iter)
        return {
            "grid": self.grid,
            "rom": rom_test,
            "truth": hdm_test,
            "train_truth": snapshots,      # HDM states at training parameters
            "train_rom": rom_train,
        }

    def _kernel(self, modes, forces, guesses):
        """``predict(draws, indices)``: reduced Newton solves on the bases modes @ draws,
        one per row of ``forces`` (P, n), each warm-started from the projection
        of that row of ``guesses``.  ``predict`` returns the lifted solutions
        (D, n, P), a new array.  ``workspace`` holds the Newton buffers of its one loop.
        """
        workspace = []

        def predict(draws, indices):
            w = np.matmul(modes, draws)
            stiffness_r = np.matmul(w.transpose(0, 2, 1), np.matmul(self.system.stiffness, w))
            q = _cubic_newton_batch(w, stiffness_r, self.alpha, np.matmul(forces, w),
                                    np.matmul(guesses, w), self.newton_tol,
                                    self.newton_max_iter, indices, workspace)
            return np.matmul(w, q.transpose(0, 2, 1))

        return predict

    def integer_evaluator(self, scales, k, modes, refs, mc_samples, seed, chunk=32,
                          widest=None):
        rom_train = refs["train_rom"]
        truth = refs["train_truth"]
        forces = np.stack([self.system.force_map(mu) for mu in self.params])
        pooled = self.aggregation == "pooled"
        # pooled: one distance over all parameters; else one per parameter
        d_truth = np.linalg.norm(truth - rom_train, axis=None if pooled else 0)
        shape = (-1,) if pooled else rom_train.shape
        predict = self._kernel(modes, forces, rom_train.T)
        return _mc_objective(scales, k, seed, mc_samples, chunk,
                             lambda u, indices: predict(u, indices).reshape(len(u), *shape),
                             rom_train.reshape(shape), d_truth, widest)

    def draw_ensembles(self, scales, k, modes, refs, betas, count, seed, chunk=128):
        predict = self._kernel(modes, self.system.force_map(self.mu_test)[None],
                               refs["rom"][None])
        draws = _mc_draws(scales, k, seed, count, chunk,
                          lambda u, indices: predict(u, indices)[:, :, 0])
        return {name: draws(beta) for name, beta in betas.items()}


class ExperimentDriver:
    """Linear static problem with synthetic experimental data."""

    kind = "linear-static-experiment"
    pod_source = "centered"
    extra_series = {}
    writes_sensors = True
    grid_of = staticmethod(CubicDriver.grid_of)

    def __init__(self, config: RunConfig):
        p = config.problem_settings
        self.n = p["n"]
        self.ratio = float(p["perturbation_ratio"])
        self.noise_level = float(p["noise_level"])
        self.sensor_count = int(p["sensor_count"])
        self.snapshot_count = int(p["snapshot_count"])
        self.force_weights = np.asarray(p["force_weights"], dtype=float)
        self.snapshot_force = p["snapshot_force"]
        self.seed = config.seed
        self.stiff = SpectralStiffness.sine_basis(self.n)
        self.force = self.stiff.mode_combination_force(self.force_weights)
        self.system = rom.LinearStaticSystem(stiffness=self.stiff.matrix, force=self.force)
        self.grid = self.grid_of(p)

        truth_stiff = self._perturbed(RandomStream(derive_seed(self.seed, _SEED_TRUTH)),
                                      "the truth")
        self.truth_response = truth_stiff.solve(self.force)
        self.sensor_indices, clean = observe_sparse(self.truth_response,
                                                    self.sensor_count)
        self.observed_noisy, _ = add_noise(
            clean, self.noise_level, RandomStream(derive_seed(self.seed, _SEED_NOISE)))

    def _perturbed(self, stream, draw):
        """A perturbed stiffness, refused unless it is positive definite."""
        stiff = perturb_stiffness(self.stiff, self.ratio, stream)
        bad = int(np.sum(stiff.eigvals <= 0.0))
        if bad:
            raise ConfigError("problem.perturbation_ratio", f"the perturbed stiffness of "
                              f"{draw} has {bad} eigenvalue(s) <= 0")
        return stiff

    def snapshots(self) -> np.ndarray:
        snap_seed = derive_seed(self.seed, _SEED_SNAPSHOTS)
        force_seed = derive_seed(self.seed, _SEED_FORCES)
        x = np.empty((self.n, self.snapshot_count))
        for j in range(self.snapshot_count):
            perturbed = self._perturbed(RandomStream(snap_seed, j), f"snapshot {j}")
            if self.snapshot_force == "perturbed":
                weights = RandomStream(force_seed, j).generator().random(
                    self.force_weights.shape[0])
                force = self.stiff.mode_combination_force(weights)
            else:
                force = self.force
            x[:, j] = perturbed.solve(force)
        return x

    def _kernel(self, modes, qoi_rows):
        """``predict(draws, indices)``: the reduced static solves at ``qoi_rows``."""
        red = rom.galerkin_reduce(self.system, modes)
        return lambda draws, indices: _linear_qoi_predictions(draws, red.stiffness,
                                                              red.force, qoi_rows)

    def references(self, modes, k, snapshots) -> dict:
        x_rom = self._kernel(modes, modes)(_mode_draw(modes, k), ["rom"])[0]
        return {
            "grid": self.grid,
            "rom": x_rom,
            "truth": self.truth_response,
            "sensor_indices": self.sensor_indices,
            "observed_noisy": self.observed_noisy,
        }

    def integer_evaluator(self, scales, k, modes, refs, mc_samples, seed, chunk=8192,
                          widest=None):
        idx = refs["sensor_indices"]
        reference = refs["rom"][idx]
        d_truth = np.linalg.norm(refs["observed_noisy"] - reference)
        return _mc_objective(scales, k, seed, mc_samples, chunk,
                             self._kernel(modes, modes[idx]), reference, d_truth, widest)

    def draw_ensembles(self, scales, k, modes, refs, betas, count, seed, chunk=128):
        draws = _mc_draws(scales, k, seed, count, chunk, self._kernel(modes, modes))
        return {name: draws(beta) for name, beta in betas.items()}


class SurrogateDriver:
    """Linear dynamics surrogate: impulse response of a heavy-mass chain."""

    kind = "surrogate-dynamics"
    pod_source = "centered"
    # name -> (DoF attribute, derivative order); the primary is qoi_dof's velocity
    extra_series = {"acceleration": ("qoi_dof", 2), "displacement": ("qoi_dof", 0),
                    "velocity_alt": ("alt_dof", 1)}
    writes_sensors = False
    grid_of = staticmethod(lambda p: rom.time_grid(float(p["dt"]), float(p["t_end"])))

    def __init__(self, config: RunConfig):
        p = config.problem_settings
        self.n = p["n"]
        self.dt = float(p["dt"])
        self.t_end = float(p["t_end"])
        self.qoi_dof = int(p["qoi_dof"])
        alt = p["alt_dof"]           # None: a third of the chain past qoi_dof
        self.alt_dof = (self.qoi_dof + self.n // 3) % self.n if alt is None else int(alt)
        self.stride = int(p["snapshot_stride"])
        self.spec = SurrogateSpec(**{f.name: p[f.name] for f in dataclass_fields(SurrogateSpec)})
        self.seed = config.seed
        # the load sampled once on the time grid, for the full model and
        # every reduction
        self.system, self.times = rom.on_time_grid(surrogate_dynamics(self.spec),
                                                   self.dt, self.t_end)
        self.steps = self.times.size - 1

    @cached_property
    def _hdm(self) -> rom.Trajectory:
        return rom.newmark_integrate(self.system, self.dt, self.t_end)

    def snapshots(self) -> np.ndarray:
        traj = self._hdm
        return traj.states[:, ::self.stride].copy()

    def series_spec(self) -> dict:
        """name -> (DoF, derivative order): the primary series, then the extras."""
        return {"primary": (self.qoi_dof, 1),
                **{name: (getattr(self, attr), order)
                   for name, (attr, order) in self.extra_series.items()}}

    def _kernel(self, modes, series):
        """``predict(draws, indices)``: the ``series`` of the reduced Newmark runs."""
        reduced = rom.galerkin_reduce(self.system, modes)
        return lambda draws, indices: _dynamic_qoi_predictions(draws, reduced, modes,
                                                               self.dt, self.steps, series)

    def references(self, modes, k, snapshots) -> dict:
        traj = self._hdm
        spec = self.series_spec()
        series = self._kernel(modes, list(spec.values()))(_mode_draw(modes, k), ["rom"])[0]
        refs = {"grid": self.times}
        fields = {0: "states", 1: "velocities", 2: "accelerations"}
        for j, (name, (dof, order)) in enumerate(spec.items()):
            refs[_named("truth", name)] = getattr(traj, fields[order])[dof]
            refs[_named("rom", name)] = series[j]
        return refs

    def integer_evaluator(self, scales, k, modes, refs, mc_samples, seed,
                          chunk=512, widest=None):
        reference = refs["rom"]
        d_truth = np.linalg.norm(refs["truth"] - reference)
        predict = self._kernel(modes, [self.series_spec()["primary"]])
        return _mc_objective(scales, k, seed, mc_samples, chunk,
                             lambda draws, indices: predict(draws, indices)[:, 0],
                             reference, d_truth, widest)

    def draw_ensembles(self, scales, k, modes, refs, betas, count, seed, chunk=512):
        # the primary series, then the extras
        draws = _mc_draws(scales, k, seed, count, chunk,
                          self._kernel(modes, list(self.series_spec().values())))
        stacked = {name: draws(beta) for name, beta in betas.items()}
        out = {name: values[:, 0] for name, values in stacked.items()}
        for j, name in enumerate(self.extra_series, 1):
            out[name] = stacked["primary"][:, j]
        return out


_DRIVERS = {d.kind: d for d in (CubicDriver, ExperimentDriver, SurrogateDriver)}


def make_driver(config: RunConfig):
    return _DRIVERS[config.problem["kind"]](config)


def _named(stem: str, name: str) -> str:
    """File stem or reference key of a series: ``stem_name``, or ``stem`` alone."""
    return stem if name == "primary" else f"{stem}_{name}"


def _series(model_doc: dict) -> list:
    """Series of a trained run: primary, integer if beta was refined, the extras."""
    refined = model_doc["objective_refined"] is not None
    return ["primary", *(["integer"] if refined else []),
            *_DRIVERS[model_doc["problem_kind"]].extra_series]


def _observation_columns(driver) -> list:
    """The observations' columns: grid, then rom and truth of each series."""
    return ["grid", *(_named(stem, name) for name in ("primary", *driver.extra_series)
                      for stem in ("rom", "truth"))]


_SENSOR_COLUMNS = ("index", "position", "observed_noisy", "truth", "rom")
_SUMMARY_COLUMNS = ("grid", "mean", "std", "lower", "upper", "rom", "truth")


# ---------------------------------------------------------------------------
# artifacts


def _outdir(config: RunConfig, outdir) -> Path:
    """The output directory; only ``stage_train`` creates it, once the config is accepted."""
    return Path(outdir if outdir is not None else (config.output_dir or "."))


# the model's fields that the stages after train read, with their JSON types
# (a bool is no int), in the order they are checked: a range may use a field
# before it.  In range means the run's problem kind, finite, positive and
# non-increasing scales, 1 <= k <= len(scales), and finite betas >= k.
_MODEL_FIELDS = {"problem_kind": str, "scales": list, "k": int, "beta_integer": int,
                 "beta_star": float, "objective_integer": float,
                 "objective_refined": (float, type(None))}


def _check_model(doc: dict, up) -> None:
    for name, kind in _MODEL_FIELDS.items():
        value = doc[name]
        valid = isinstance(value, kind) and not isinstance(value, bool)
        if name == "scales":
            valid = (valid and value != []
                     and all(type(v) is float and 0.0 < v < np.inf for v in value)
                     and all(a >= b for a, b in zip(value, value[1:])))
        elif name == "problem_kind":
            valid = valid and value == up.driver.kind
        elif name == "k":
            valid = valid and 1 <= value <= len(doc["scales"])
        elif name.startswith("beta_"):
            valid = valid and np.isfinite(value) and value >= doc["k"]
        if not valid:
            raise ValueError(f"an invalid {name!r}: {value!r}")


def _check_shape(matrix, shape: tuple, meaning: str) -> None:
    if matrix.shape != shape:
        raise ValueError(f"shape {matrix.shape}, not ({meaning}) = {shape}")


def _check_table(table: dict, columns, grid=None, index_below=None) -> None:
    """Refuse other columns than ``columns``, a grid column other than
    ``grid``, or an index column that is not integers in [0, index_below)."""
    if list(table) != list(columns):
        raise ValueError(f"columns {list(table)}, not {list(columns)}")
    if grid is not None and not np.array_equal(table["grid"], grid):
        raise ValueError("its grid column is not the run's grid")
    if index_below is not None:
        idx = table["index"]
        if not np.all((idx == np.floor(idx)) & (idx >= 0) & (idx < index_below)):
            raise ValueError(f"an index that is not a grid point 0..{index_below - 1}")


#: stem -> (suffix, reader, check) of every artifact.  ``_Upstream.read``
#: reads one with the function of this module named by its entry, looked up
#: at the read (the benchmark's tracer wraps these names), and refuses it
#: as damaged if ``check(content, upstream)`` raises.
_ARTIFACTS = {
    "snapshots": (".bin", None, None),
    "pod_modes": (".bin", "load_matrix", lambda modes, up: _check_shape(
        modes, (up.config.problem["n"], len(up.model["scales"])), "problem n, len(scales)")),
    "pod_spectrum": (".csv", None, None),
    "training_trace": (".csv", None, None),
    "model": (".json", "read_json", _check_model),
    "observations": (".csv", "read_csv", lambda obs, up: _check_table(
        obs, _observation_columns(up.driver), up.driver.grid_of(up.config.problem_settings))),
    "sensors": (".csv", "read_csv", lambda table, up: _check_table(
        table, _SENSOR_COLUMNS, index_below=up.observations["grid"].size)),
    "ensemble": (".bin", "load_matrix", lambda samples, up: _check_shape(
        samples, (up.config.ensemble.count, up.observations["grid"].size), "count, grid")),
    "summary": (".csv", "read_csv", lambda table, up: _check_table(
        table, _SUMMARY_COLUMNS, up.observations["grid"])),
    "report": (".json", None, None),
    "timings": (".json", None, None),
}


def artifact_file(stem: str, name: str = "primary") -> str:
    """The file name of an artifact, or of series ``name``'s ensemble or summary."""
    return _named(stem, name) + _ARTIFACTS[stem][0]


class _Upstream:
    """A stage's reads of the artifacts made before it; ``model`` and
    ``observations`` are kept once read, for the checks after them."""

    def __init__(self, config: RunConfig, outdir):
        self.config = config
        self.driver = _DRIVERS[config.problem["kind"]]      # the class: no set-up
        self.out = _outdir(config, outdir)
        self.chash = config.config_hash()

    def read(self, stem: str, name: str = "primary"):
        """The artifact, if it exists (a ``.bin`` with its JSON sidecar) and
        was made from this config.  One whose config hash cannot be read,
        or that its reader or check refuses with an ``OSError`` (a directory),
        ``LookupError``, ``TypeError`` or ``ValueError``, counts as made from
        another config: ``StaleArtifactError``, naming its files."""
        _, reader, check = _ARTIFACTS[stem]
        path = self.out / artifact_file(stem, name)
        parts = (path, path.with_suffix(".json")) if path.suffix == ".bin" else (path,)
        for part in parts:
            if not part.exists():
                raise MissingArtifactError(f"missing artifact: {part}")
        try:
            found = artifact_hash(path)
        except (OSError, ValueError, AttributeError) as exc:
            raise StaleArtifactError(
                f"stale artifact: {path} has no readable config_hash ({exc})") from exc
        if found != self.chash:
            raise StaleArtifactError(f"stale artifact: {path} has config_hash {found}, "
                                     f"this config is {self.chash}")
        try:
            content = globals()[reader](path)
            check(content, self)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            raise StaleArtifactError(
                f"damaged artifact: {' with '.join(map(str, parts))} "
                f"({type(exc).__name__}: {exc})") from exc
        if stem in ("model", "observations"):
            setattr(self, stem, content)
        return content


# ---------------------------------------------------------------------------
# stages


def stage_train(config: RunConfig, outdir=None) -> dict:
    """Steps 1-4: snapshots, POD, deterministic references, beta training."""
    out = _outdir(config, outdir)
    chash = config.config_hash()
    driver = make_driver(config)

    snapshots = driver.snapshots()
    source = config.pod.source or driver.pod_source
    operand = snapshots if source == "raw" else center(snapshots)
    pod = compact_svd(operand)
    if config.pod.k is not None:
        k = config.pod.k
        if k > pod.rank:
            raise ConfigError("pod.k", f"{k} exceeds the snapshot rank {pod.rank}")
    else:
        k = select_rank(pod.singular_values, config.pod.energy_threshold)
    # refuse the training settings before the output directory is made
    tcfg = config.training_config(k, pod.rank)
    m = snapshots.shape[1]
    scales = pod.singular_values / np.sqrt(m)
    modes = pod.modes
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / artifact_file("snapshots"), snapshots, chash)
    save_matrix(out / artifact_file("pod_modes"), modes, chash)
    write_csv(out / artifact_file("pod_spectrum"),
              {"index": np.arange(1, pod.rank + 1),
               "singular_value": pod.singular_values},
              chash)

    refs = driver.references(modes, k, snapshots)
    write_csv(out / artifact_file("observations"),
              {key: refs[key] for key in _observation_columns(driver)}, chash)
    if driver.writes_sensors:
        idx = refs["sensor_indices"]
        write_csv(out / artifact_file("sensors"), dict(zip(_SENSOR_COLUMNS, (
            idx, refs["grid"][idx], refs["observed_noisy"], refs["truth"][idx],
            refs["rom"][idx]))), chash)

    train_seed = derive_seed(config.seed, _SEED_TRAINING)
    evaluator = driver.integer_evaluator(scales, k, modes, refs,
                                         tcfg.mc_samples, train_seed)
    integer_result = train_integer_beta(tcfg, evaluator)
    trace_rows = [(b, f, tcfg.mc_samples) for b, f in integer_result.trace]

    beta_star = float(integer_result.beta)
    objective_refined = None
    refined_converged = None
    if tcfg.refinement.enabled:
        # the refinement asks for no beta above its window's top, so its
        # streams are generated once, at that beta's width
        objective = driver.integer_evaluator(
            scales, k, modes, refs, tcfg.refinement.mc_samples, train_seed,
            widest=refinement_bounds(integer_result.beta, tcfg)[1])
        refined = refine_beta_real(integer_result.beta, tcfg, objective)
        beta_star = float(refined.beta)
        objective_refined = float(refined.value)
        refined_converged = bool(refined.converged)
        trace_rows += [(b, f, tcfg.refinement.mc_samples) for b, f in refined.trace]

    write_csv(out / artifact_file("training_trace"), {
        "iteration": np.arange(1, len(trace_rows) + 1),
        "beta": np.asarray([r[0] for r in trace_rows]),
        "f_estimate": np.asarray([r[1] for r in trace_rows]),
        "mc_samples": np.asarray([r[2] for r in trace_rows], dtype=int),
        "seed": np.full(len(trace_rows), train_seed, dtype=np.int64),
    }, chash)

    model_doc = {
        "config_hash": chash,
        "library_version": __version__,
        "problem_kind": driver.kind,
        "pod_source": source,
        "snapshot_count": int(m),
        "rank": int(pod.rank),
        "k": int(k),
        "scales": [float(s) for s in scales],
        "beta_integer": int(integer_result.beta),
        "beta_star": beta_star,
        "objective_integer": float(integer_result.value),
        "objective_refined": objective_refined,
        "integer_converged": bool(integer_result.converged),
        "refined_converged": refined_converged,
        "training_seed": int(train_seed),
        "integer_evaluations": len(integer_result.cache.entries),
    }
    write_json(out / artifact_file("model"), model_doc)
    return model_doc


def stage_sample(config: RunConfig, outdir=None, threads: int = 1) -> dict:
    """Step 5: draw the SROM prediction ensemble(s) at the trained beta.

    ``threads`` is accepted for compatibility and has no effect.  The
    ensembles are drawn in chunks (``_mc_draws``), and the sampler's top-k
    rule and the Newton and Newmark kernels split each chunk over the CPUs
    this process may use; a draw depends only on its stream index, so the
    number of CPUs moves no bit.
    """
    up = _Upstream(config, outdir)
    model_doc = up.read("model")
    modes = up.read("pod_modes")
    # the references solved by the train stage (its rom is the cubic warm start)
    refs = up.read("observations")
    driver = make_driver(config)

    betas = {"primary": float(model_doc["beta_star"])}
    if model_doc["objective_refined"] is not None:
        betas["integer"] = float(model_doc["beta_integer"])
    scales = np.asarray(model_doc["scales"])
    ensembles = driver.draw_ensembles(scales, model_doc["k"], modes, refs, betas,
                                      config.ensemble.count,
                                      derive_seed(config.seed, _SEED_ENSEMBLE))
    for name in _series(model_doc):
        save_matrix(up.out / artifact_file("ensemble", name), ensembles[name], up.chash)
    return {name: ensembles[name].shape for name in _series(model_doc)}


def stage_predict(config: RunConfig, outdir=None) -> dict:
    """Summarize ensembles into pointwise prediction intervals."""
    up = _Upstream(config, outdir)
    obs = up.read("observations")
    model_doc = up.read("model")
    produced = {}
    for name in _series(model_doc):
        s = summarize_matrix(up.read("ensemble", name), obs["grid"], config.ensemble.level)
        ref = "primary" if name == "integer" else name    # same beta-free curves
        path = artifact_file("summary", name)
        write_csv(up.out / path, dict(zip(_SUMMARY_COLUMNS, (
            s.grid, s.mean, s.std, s.lower, s.upper, obs[_named("rom", ref)],
            obs[_named("truth", ref)]))), up.chash)
        produced[_named("summary", name)] = path
    return produced


def _coverage(table: dict, truth, level: float, rows=slice(None)):
    """Coverage of ``truth`` by the intervals of a summary table, at ``rows``."""
    fields = _SUMMARY_COLUMNS[:5]               # those of a PredictionSummary
    return coverage(PredictionSummary(level=level, **{f: table[f][rows] for f in fields}),
                    truth)


def stage_report(config: RunConfig, outdir=None) -> dict:
    """Coverage and sharpness of the prediction intervals; write the report."""
    up = _Upstream(config, outdir)
    model_doc = up.read("model")
    driver = up.driver
    level = config.ensemble.level
    up.read("observations")             # for the checks of the summaries and sensors
    tables = {name: up.read("summary", name) for name in _series(model_doc)}
    cov = {name: _coverage(t, t["truth"], level) for name, t in tables.items()}

    report = {
        "schema_version": 1,
        "config_hash": up.chash,
        "config": config.canonical_dict(),
        "library_version": __version__,
        "problem_kind": model_doc["problem_kind"],
        "beta_integer": model_doc["beta_integer"],
        "beta_star": model_doc["beta_star"],
        "objective_integer": model_doc["objective_integer"],
        "objective_refined": model_doc["objective_refined"],
        "level": level,
        "coverage": cov["primary"].coverage,
        "mean_pi_width": cov["primary"].mean_pi_width,
        "points_total": cov["primary"].points_total,
        "points_inside": cov["primary"].points_inside,
    }

    # only a run with sensors reports on its integer-beta intervals
    if driver.writes_sensors:
        sensors = up.read("sensors")
        idx = sensors["index"].astype(int)
        noisy = _coverage(tables["primary"], sensors["observed_noisy"], level, idx)
        report["coverage_noisy"] = noisy.coverage
        report["mean_pi_width_sensors"] = noisy.mean_pi_width
        if "integer" in tables:
            report["coverage_integer"] = cov["integer"].coverage
            report["mean_pi_width_integer"] = cov["integer"].mean_pi_width
            report["coverage_noisy_integer"] = _coverage(
                tables["integer"], sensors["observed_noisy"], level, idx).coverage

    extras = {}
    for name in driver.extra_series:
        bands = np.stack([tables[name]["lower"], tables[name]["upper"]])
        extras[name] = {
            "coverage": cov[name].coverage,
            "mean_pi_width": cov[name].mean_pi_width,
            "finite": bool(np.all(np.isfinite(bands))),
            "max_width": float(np.max(bands[1] - bands[0])),
        }
    if extras:
        report["extra_qois"] = extras

    write_json(up.out / artifact_file("report"), report)
    return report


def run_pipeline(config: RunConfig, outdir=None, threads: int = 1) -> RunReport:
    """Execute all stages in order; identical artifacts to stage-wise runs.

    ``threads`` has no effect.  Training and sampling split their
    Monte-Carlo draws over the CPUs this process may use, and the
    artifacts do not depend on how many there are (see ``_mc_draws``).
    """
    times = {}
    t0 = time.perf_counter()
    # the stages are looked up at each call, so that a wrapped stage_* runs
    for name, stage in (("train", stage_train), ("sample", stage_sample),
                        ("predict", stage_predict), ("report", stage_report)):
        start = time.perf_counter()
        report = stage(config, outdir)
        times[f"{name}_s"] = time.perf_counter() - start
    times["total_s"] = time.perf_counter() - t0
    out = _outdir(config, outdir)
    write_json(out / artifact_file("timings"),
               {"config_hash": config.config_hash(),
                **{k: float(v) for k, v in times.items()}})
    return RunReport(beta_star=report["beta_star"], coverage=report["coverage"],
                     mean_pi_width=report["mean_pi_width"], wall_times=times,
                     details=report)
