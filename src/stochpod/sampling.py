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
one sampler; ``sample_fractional`` is its one-row view.  ``_normals`` is
the one loop that generates the streams' Gaussian matrices.

Each stream's Gaussian matrix is filled column by column, so the matrix
of a smaller beta is a prefix of the matrix of a larger one.  This is
load-bearing: a ``StreamCache`` holds streams 0..count-1 at the widest
beta asked for so far and every narrower beta slices them, bit for bit;
a wider beta generates every stream again at its own width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subspace import DEFAULT_GAP_TOLERANCE, SubspaceBasis, _top_k

__all__ = [
    "StochasticSubspaceModel",
    "RandomStream",
    "StreamCache",
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
        instead of permuting it: the first c columns of
        ``normal_matrix(rows, c + m)`` are ``normal_matrix(rows, c)``, bit
        for bit.  Paired-seed comparisons across nearby beta values rely
        on it, and ``StreamCache`` slices narrower draws out of wider ones.
        """
        flat = self.generator().standard_normal(rows * cols)
        return flat.reshape(cols, rows).T


def _normals(seed, indices, rank: int, cols: int) -> np.ndarray:
    """The ``normal_matrix(rank, cols)`` of each stream index, (len, rank, cols)."""
    seed = int(seed)
    z = np.empty((len(indices), rank, cols))
    for j, i in enumerate(indices):
        z[j] = RandomStream(seed, int(i)).normal_matrix(rank, cols)
    return z


class StreamCache:
    """The Gaussian matrices of streams 0..count-1 of one master seed.

    They are held in one (count, rank, width) block, filled whole on the
    first request at that request's width.  Asking for more columns
    regenerates every stream at the new width; fewer columns slice the
    held block (the column-major prefix of ``normal_matrix``).
    """

    def __init__(self, master_seed: int, count: int):
        self.master_seed = int(master_seed)
        self.count = int(count)
        self._z = None

    def normals(self, rank: int, cols: int, indices: range) -> np.ndarray:
        """The first ``cols`` columns of streams ``indices``: a view, (len, rank, cols).

        ``indices`` is a unit-step range inside [0, count).
        """
        if not (isinstance(indices, range) and indices.step == 1
                and 0 <= indices.start <= indices.stop <= self.count):
            raise IndexError(f"streams {indices!r} are not a unit-step range "
                             f"inside [0, {self.count})")
        if self._z is not None and self._z.shape[1] != rank:
            raise ValueError(f"cache holds {self._z.shape[1]}-row matrices, not {rank}")
        if self._z is None or cols > self._z.shape[2]:
            self._z = None                      # free the narrower block first
            self._z = _normals(self.master_seed, range(self.count), rank, cols)
        return self._z[indices.start:indices.stop, :, :cols]


def sample_fractional(model: StochasticSubspaceModel, stream: RandomStream) -> SubspaceBasis:
    """One draw: the one-row view of ``batch_fractional_draws``.

    The r-by-k basis in spectral coordinates; lift it with ``modes @`` to
    the ambient space, where it inherits every linear constraint the
    modes satisfy.
    """
    return SubspaceBasis(batch_fractional_draws(
        model, stream.master_seed, [stream.stream_index])[0])


def batch_fractional_draws(model: StochasticSubspaceModel, seed_or_cache,
                           indices) -> np.ndarray:
    """Stacked reduced draws, one per stream index, shape (len, r, k).

    Draw i is the top-k left singular factor of diag(scales) Z, with Z the
    r-by-ceil(beta) standard normal matrix of stream i whose last column
    is weighted by beta - floor(beta) (integer beta appends no column).
    The stack goes through ``principal_subspace_map``'s top-k rule
    (``subspace._top_k``): batched ``eigh`` of the r-by-r Gram matrices,
    the exact SVD only for draws whose gap is in doubt, the same gap check
    and sign convention.

    ``seed_or_cache`` is a master seed, for any list of stream indices,
    or a ``StreamCache`` of one, for a unit-step range of its streams;
    the draws are the same either way.
    """
    r, k, beta = model.rank, model.k, model.beta
    cols = int(np.ceil(beta))
    weights = np.ones(cols)
    weights[-1] = beta - (cols - 1)     # the fractional part; 1 at integer beta
    if isinstance(seed_or_cache, StreamCache):
        z = seed_or_cache.normals(r, cols, indices)
    else:
        z = _normals(seed_or_cache, indices, r, cols)
    # two products on the Gaussian block, in the order of a fresh draw's
    scaled = z * weights
    scaled *= model.scales[:, None]
    return _top_k(scaled, k, DEFAULT_GAP_TOLERANCE, labels=indices)
