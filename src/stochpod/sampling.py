"""Random principal subspaces.

Draws k-dimensional subspaces whose law concentrates around the principal
subspace of a covariance spectrum, with a single concentration parameter
``beta`` (the resample size): the subspace is the span of the top-k left
singular vectors of diag(scales) Z, where Z is r-by-beta standard normal.
``beta = k`` recovers the classical angular central Gaussian subspace
law; larger beta concentrates the draw near the deterministic principal
subspace.  Real-valued beta is supported by weighting the last Gaussian
column by the fractional part.

Draws are deterministic functions of (master_seed, stream_index) through
a counter-based generator, so draw i of an ensemble is the same however
the ensemble is split into batches.  ``batch_fractional_draws`` is the
one sampler; ``sample_fractional`` is its one-row view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subspace import DEFAULT_GAP_TOLERANCE, SubspaceBasis, _check_gap, _fix_signs

__all__ = [
    "StochasticSubspaceModel",
    "RandomStream",
    "sample_fractional",
    "batch_fractional_draws",
]


@dataclass(frozen=True)
class StochasticSubspaceModel:
    """Spectrum-scaled random subspace model.

    ``scales`` are the square roots of the covariance eigenvalues
    (strictly positive, non-increasing), ``k`` the subspace dimension,
    ``beta`` the concentration (resample size), real-valued, >= k.
    """

    scales: np.ndarray
    k: int
    beta: float

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.scales, dtype=float))
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "beta", float(self.beta))
        if np.any(s <= 0):
            raise ValueError("scales must be strictly positive")
        if np.any(np.diff(s) > 0):
            raise ValueError("scales must be non-increasing")
        if not 1 <= self.k <= s.shape[0]:
            raise ValueError(f"k must lie in [1, {s.shape[0]}], got {self.k}")
        if self.beta < self.k:
            raise ValueError(f"beta must be >= k={self.k}, got {self.beta}")

    @property
    def rank(self) -> int:
        return self.scales.shape[0]


@dataclass(frozen=True)
class RandomStream:
    """One substream of a counter-based random number generator.

    (master_seed, stream_index) fully determines the Gaussian sequence;
    distinct stream indices give statistically independent sequences.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(seq))

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Standard normal matrix filled column by column.

        Column-major fill means widening the matrix extends the draw
        instead of permuting it, which keeps paired-seed comparisons
        across nearby beta values meaningful.
        """
        flat = self.generator().standard_normal(rows * cols)
        return flat.reshape(cols, rows).T


def sample_fractional(model: StochasticSubspaceModel, stream: RandomStream) -> SubspaceBasis:
    """One draw: the one-row view of ``batch_fractional_draws``.

    The r-by-k basis in spectral coordinates; lift it with ``modes @`` to
    the ambient space, where it inherits every linear constraint the
    modes satisfy.
    """
    return SubspaceBasis(batch_fractional_draws(
        model, stream.master_seed, [stream.stream_index])[0])


def batch_fractional_draws(model: StochasticSubspaceModel, master_seed: int,
                           indices) -> np.ndarray:
    """Stacked reduced draws, one per stream index, shape (len, r, k).

    Draw i is the top-k left singular factor of diag(scales) Z, with Z the
    r-by-ceil(beta) standard normal matrix of stream i whose last column
    is weighted by beta - floor(beta) (integer beta appends no column).
    The SVDs run batched, with the spectral-gap check and sign convention
    of ``principal_subspace_map``.
    """
    indices = list(indices)
    r, k, beta = model.rank, model.k, model.beta
    integer = float(beta).is_integer()
    cols = int(beta) if integer else int(np.ceil(beta))
    z = np.empty((len(indices), r, cols))
    for slot, i in enumerate(indices):
        z[slot] = RandomStream(master_seed, int(i)).normal_matrix(r, cols)
    if not integer:
        z[:, :, -1] *= beta - np.floor(beta)
    u, s, _ = np.linalg.svd(model.scales[None, :, None] * z, full_matrices=False)
    _check_gap(s, k, DEFAULT_GAP_TOLERANCE, labels=indices)
    return _fix_signs(u[:, :, :k])
