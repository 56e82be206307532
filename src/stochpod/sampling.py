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
one sampler; ``sample_fractional`` is its one-row view.  ``_normals``
generates the Gaussian matrices of a batch of streams.

``RandomStream.generator`` is the definition of a stream: a Philox
generator whose key is ``SeedSequence(master_seed, spawn_key=(index,))
.generate_state(2, np.uint64)`` and whose counter starts at 0.
``_normals`` derives the keys of all its streams in one vectorized pass
of that hash (``_philox_keys``): the seed's words are mixed into the pool
once per call, and only the index's spawn-key words and the output words
are hashed per stream.  Each stream then re-keys the call's one Philox
instead of building a SeedSequence, a Philox and a Generator of its own.

Each stream's Gaussian matrix is filled column by column, so the matrix
of a smaller beta is a prefix of the matrix of a larger one.  This is
load-bearing: ``pipeline._mc_draws`` holds the matrices of its streams
0..count-1 at the widest beta asked for so far, hands each chunk its
rows to ``batch_fractional_draws``, and every narrower beta slices them,
bit for bit.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .subspace import SubspaceBasis, _fix_signs, _top_k

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
    (finite, strictly positive, non-increasing), ``k`` the subspace
    dimension, ``beta`` the concentration (resample size), finite, >= k.
    """

    scales: np.ndarray
    k: int
    beta: float

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.scales, dtype=float))
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "beta", float(self.beta))
        if not np.all((s > 0) & (s < np.inf)):
            raise ValueError(f"scales must be finite and strictly positive, got {s}")
        if np.any(np.diff(s) > 0):
            raise ValueError("scales must be non-increasing")
        if not 1 <= self.k <= s.shape[0]:
            raise ValueError(f"k must lie in [1, {s.shape[0]}], got {self.k}")
        if not self.k <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and >= k={self.k}, got {self.beta}")

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

    def normal_matrix(self, rows: int, cols: int, generator=None) -> np.ndarray:
        """Standard normal matrix filled column by column.

        Column-major fill means widening the matrix extends the draw
        instead of permuting it: the first c columns of
        ``normal_matrix(rows, c + m)`` are ``normal_matrix(rows, c)``, bit
        for bit.  Paired-seed comparisons across nearby beta values rely
        on it, and ``pipeline._mc_draws`` slices narrower draws out of
        wider ones.  ``generator``, if given, must be in the state
        ``generator()`` starts from; ``_normals`` passes one it has keyed
        itself.
        """
        generator = self.generator() if generator is None else generator
        flat = generator.standard_normal(rows * cols)
        return flat.reshape(cols, rows).T


# numpy's SeedSequence hash (O'Neill's seed_seq alternative) on uint32
# words: pool size 4, and the hashmix and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hashmix(words, const: int, mult: int = _MULT_A):
    """``hashmix`` of uint32 array ``words``; returns the next hash constant too.

    The constant's sequence does not depend on the words, so it is a
    Python int, and the uint32 arrays wrap without a warning.  With
    ``mult=_MULT_B`` it is the step that hashes the pool out to a state.
    """
    words = words ^ np.uint32(const)
    const = const * mult & 0xFFFFFFFF
    words = words * np.uint32(const)
    return words ^ (words >> np.uint32(16)), const


def _mix(x, y):
    result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return result ^ (result >> np.uint32(16))


def _philox_keys(seed: int, indices) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)`` of each i.

    The seed and the indices are non-negative ints of any size; returns
    (len, 2) uint64.  numpy's entropy is the seed's 32-bit words, zero-padded
    to the pool size, then the index's words, each low first.  The first
    four, all the seed's, are hashed into the pool once.  Every later word
    position is mixed into each pool word of the indices whose entropy
    reaches it, and the pool is hashed out to four words, read as two
    little-endian uint64.
    """
    indices = [int(i) for i in indices]
    if seed < 0 or min(indices, default=0) < 0:
        raise ValueError("the seed and the stream indices must be non-negative")
    seed_words = [seed >> shift & 0xFFFFFFFF
                  for shift in range(0, max(seed.bit_length(), 1), 32)]
    seed_words += [0] * (_POOL - len(seed_words))
    const, pool = _INIT_A, []
    for word in seed_words[:_POOL]:
        word, const = _hashmix(np.array([word], dtype=np.uint32), const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    # each index's entropy past the pool as one int, low word first: the seed's
    # words past the pool, then the index's own from word position `first` on
    first = len(seed_words) - _POOL
    tail = np.array([seed >> 32 * _POOL | i << 32 * first for i in indices], dtype=object)
    pool = [np.repeat(word, len(indices)) for word in pool]
    rows, position = np.arange(len(indices)), 0
    while rows.size:
        word = (tail & 0xFFFFFFFF).astype(np.uint32)
        for dst in range(_POOL):
            hashed, const = _hashmix(word, const)
            pool[dst][rows] = _mix(pool[dst][rows], hashed)
        tail, position = tail >> 32, position + 1
        if position > first:
            longer = np.flatnonzero(tail)
            rows, tail = rows[longer], tail[longer]
    const, out = _INIT_B, []
    for word in pool:
        word, const = _hashmix(word, const, _MULT_B)
        out.append(word)
    return np.stack(out, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _normals(seed, indices, rank: int, cols: int) -> np.ndarray:
    """The ``normal_matrix(rank, cols)`` of each stream index, (len, rank, cols).

    The call's one Philox is set to each stream's key at counter 0, the
    state a fresh ``RandomStream.generator()`` starts from; each call keys
    its own, so concurrent calls never draw from each other's streams.
    """
    seed = int(seed)
    philox = np.random.Philox(0)
    generator = np.random.Generator(philox)
    z = np.empty((len(indices), rank, cols))
    for j, (i, key) in enumerate(zip(map(int, indices), _philox_keys(seed, indices))):
        philox.state = {"bit_generator": "Philox", "state": {"counter": (0,) * 4, "key": key},
                        "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        z[j] = RandomStream(seed, i).normal_matrix(rank, cols, generator)
    return z


#: Doubles per block of ``batch_fractional_draws``'s scaled Gaussian matrices
_SCALED_BLOCK = 1 << 17
#: Threads that share one batch of draws: the calling thread and
#: ``_WORKERS - 1`` helpers, one per CPU this process may use (every CPU
#: where the platform cannot tell which).
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_helpers = None
_helpers_lock = threading.Lock()      # callers on several threads make one pool


def _in_pieces(fn, count):
    """``fn(part)`` of each piece ``part`` of slice(0, count), a list in order.

    The pieces are up to ``_WORKERS`` consecutive slices of
    ceil(count / _WORKERS) items (one empty slice if count is 0).  The
    first runs on the calling thread, the others on a pool of
    ``_WORKERS - 1`` helper threads made at the first call with more than
    one piece; numpy releases the GIL in its array loops, so the pieces'
    array work runs at once.  Every piece has ended when this returns or
    raises, and a failure is the lowest-index failing piece's, as a loop
    over the pieces would raise it.  ``fn`` must not call ``_in_pieces``:
    a helper waiting for the pool it runs on could wait forever.

    It is called where the split was measured to pay, inside the sampler's
    top-k rule and ``pipeline``'s Newton and Newmark kernels.  Each of them
    is entered once per batch, on the calling thread, so a wrapper that
    times them by name (``perfbench/tracer.py``, one span stack per
    process) sees the same calls at any worker count.
    """
    global _helpers
    size = -(-count // _WORKERS) or 1
    parts = ([slice(start, min(start + size, count)) for start in range(0, count, size)]
             or [slice(0, 0)])
    if len(parts) == 1:
        return [fn(parts[0])]
    with _helpers_lock:
        if _helpers is None:
            # imported here: a process that only sets up does not pay for it
            from concurrent.futures import ThreadPoolExecutor
            _helpers = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="stochpod")
    futures = [_helpers.submit(fn, part) for part in parts[1:]]
    try:
        first = fn(parts[0])
    finally:
        for future in futures:
            future.exception()          # waits, and raises nothing
    return [first, *(future.result() for future in futures)]


def sample_fractional(model: StochasticSubspaceModel, stream: RandomStream) -> SubspaceBasis:
    """One draw: the one-row view of ``batch_fractional_draws``.

    The r-by-k basis in spectral coordinates, signed as by
    ``principal_subspace_map``; lift it with ``modes @`` to the ambient
    space, where it inherits every linear constraint the modes satisfy.
    The stream comes from its own generator: ``_normals``'s keys cost more.
    """
    z = stream.normal_matrix(model.rank, int(np.ceil(model.beta)))
    return SubspaceBasis(_fix_signs(
        batch_fractional_draws(model, z[None], [stream.stream_index])[0]))


def batch_fractional_draws(model: StochasticSubspaceModel, seed_or_normals,
                           indices) -> np.ndarray:
    """Stacked reduced draws, one per stream index, shape (len, r, k).

    Draw i is the top-k left singular factor of diag(scales) Z, with Z the
    r-by-ceil(beta) standard normal matrix of stream i whose last column
    is weighted by beta - floor(beta) (integer beta appends no column).
    The stack goes through ``principal_subspace_map``'s top-k rule
    (``subspace._top_k``): batched ``eigh`` of the r-by-r Gram matrices,
    the exact SVD only for draws whose gap is in doubt, and the same gap
    check.  A draw's columns keep LAPACK's signs: ``_fix_signs`` of it is
    that map's basis.

    ``seed_or_normals`` is a master seed, or the streams' Gaussian
    matrices, (len(indices), r, >= ceil(beta)) as ``_normals`` makes them,
    which are sliced to ceil(beta) columns; the draws are the same either
    way.  The top-k rule runs in pieces (``_in_pieces``), each scaling its
    draws in blocks of at most ``_SCALED_BLOCK`` doubles, not one scaled
    copy; a GapError names the failing draws of the first failing block.
    Helper threads' malloc arenas keep their blocks: within 1 MB of peak
    memory on the ex3-dynamics benchmark workload (against one arena,
    ``MALLOC_ARENA_MAX=1``).
    """
    r, k, beta = model.rank, model.k, model.beta
    cols = int(np.ceil(beta))
    weights = np.ones(cols)
    weights[-1] = beta - (cols - 1)     # the fractional part; 1 at integer beta
    if isinstance(seed_or_normals, np.ndarray):
        z = seed_or_normals[:, :, :cols]
    else:
        z = _normals(seed_or_normals, indices, r, cols)
    out = np.empty((len(indices), r, k))
    step = max(1, _SCALED_BLOCK // (r * cols))

    def draws(part):
        for start in range(part.start, part.stop, step):
            block = slice(start, min(start + step, part.stop))
            # two products on the Gaussian block, in the order of a fresh draw's
            out[block] = _top_k(z[block] * weights * model.scales[:, None], k,
                                labels=indices[block])

    _in_pieces(draws, len(indices))
    return out
