"""Deterministic subspace machinery.

Centering and compact SVD of snapshot matrices, energy-based rank
selection, the two orthonormalization maps (polar and principal-subspace),
and the matrix angular central Gaussian log-density on the Grassmann
manifold.

Everything here is a pure function; the dataclasses are frozen and safe
to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapError

#: Relative cutoff below which singular values are treated as zero.
DEFAULT_RANK_TOLERANCE = 1e-12

#: Relative spectral-gap tolerance for the principal subspace map.
DEFAULT_GAP_TOLERANCE = 1e-12


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class PodDecomposition:
    """Compact SVD of a centered snapshot matrix.

    ``modes`` has orthonormal columns, ``singular_values`` is strictly
    positive and non-increasing.
    """

    modes: np.ndarray            # (n, r)
    singular_values: np.ndarray  # (r,)
    rank: int


@dataclass(frozen=True)
class SubspaceBasis:
    """An orthonormal basis representing a subspace of R^n."""

    matrix: np.ndarray  # (n, k), orthonormal columns

    def __post_init__(self):
        m = _as_matrix(self.matrix, "basis")
        object.__setattr__(self, "matrix", m)
        gram = m.T @ m
        if not np.allclose(gram, np.eye(m.shape[1]), atol=1e-9):
            raise ValueError("basis columns are not orthonormal")

    def projector(self) -> np.ndarray:
        return self.matrix @ self.matrix.T


@dataclass(frozen=True)
class CovarianceModel:
    """Low-rank-plus-isotropic covariance: C = E diag(w - e) E^T + e I.

    ``eigvecs`` is n-by-r orthonormal, ``eigvals`` the retained spectrum
    (non-increasing, each >= ``noise_floor``), ``noise_floor`` the
    isotropic level filling the remaining n - r directions.  ``macg_log_pdf``
    refuses a C that is not positive definite (an eigenvalue <= 0).
    """

    eigvecs: np.ndarray    # (n, r)
    eigvals: np.ndarray    # (r,)
    noise_floor: float

    def __post_init__(self):
        v = _as_matrix(self.eigvecs, "eigvecs")
        w = np.atleast_1d(np.asarray(self.eigvals, dtype=float))
        object.__setattr__(self, "eigvecs", v)
        object.__setattr__(self, "eigvals", w)
        object.__setattr__(self, "noise_floor", float(self.noise_floor))
        if w.shape[0] != v.shape[1]:
            raise ValueError("eigvals length must match eigvecs column count")
        if np.any(np.diff(w) > 0):
            raise ValueError("eigvals must be non-increasing")
        if self.noise_floor < 0:
            raise ValueError("noise_floor must be nonnegative")
        if w.size and w[-1] < self.noise_floor - 1e-12 * max(1.0, w[0]):
            raise ValueError("retained eigvals must dominate the noise floor")


def center(data) -> np.ndarray:
    """Subtract the column mean from a snapshot matrix."""
    data = _as_matrix(data, "snapshot matrix")
    return data - data.mean(axis=1)[:, None]


def compact_svd(centered) -> PodDecomposition:
    """Compact SVD, discarding singular values <= DEFAULT_RANK_TOLERANCE * sigma_1.

    Raises ValueError on an all-zero matrix and applies a deterministic
    sign convention (largest-magnitude entry of each mode made positive)
    so outputs are reproducible across backends.
    """
    centered = _as_matrix(centered, "centered matrix")
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    if s[0] <= 0.0:
        raise ValueError("matrix has rank zero")
    r = int(np.count_nonzero(s > DEFAULT_RANK_TOLERANCE * s[0]))
    return PodDecomposition(modes=_fix_signs(u[:, :r]), singular_values=s[:r], rank=r)


def _fix_signs(u):
    """Make the largest-magnitude entry of each left vector positive.

    ``u`` may carry leading batch axes; its columns are the vectors.
    """
    lead = np.argmax(np.abs(u), axis=-2)
    signs = np.sign(np.take_along_axis(u, lead[..., None, :], axis=-2))[..., 0, :]
    signs[signs == 0] = 1.0
    return u * signs[..., None, :]


def select_rank(singular_values, energy_threshold: float) -> int:
    """Smallest k whose leading squared singular values reach the threshold."""
    if not 0.0 < energy_threshold < 1.0:
        raise ValueError("energy_threshold must lie in (0, 1)")
    s = np.asarray(singular_values, dtype=float)
    energy = np.cumsum(s**2)
    total = energy[-1]
    return int(np.searchsorted(energy, energy_threshold * total) + 1)


def polar_orthonormalize(m) -> SubspaceBasis:
    """Orthonormalize by polar decomposition: M (M^T M)^{-1/2}.

    Preserves the range of M; requires full column rank.
    """
    m = _as_matrix(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[-1] <= DEFAULT_RANK_TOLERANCE * s[0] or s[0] == 0.0:
        raise np.linalg.LinAlgError("matrix is rank deficient; polar factor undefined")
    # M (M^T M)^{-1/2} = U V^T for M = U diag(s) V^T
    return SubspaceBasis(u @ vt)


def principal_subspace_map(m, k: int) -> SubspaceBasis:
    """Left singular vectors of the k largest singular values.

    Defined only where the k-th singular value exceeds the (k+1)-th by more
    than DEFAULT_GAP_TOLERANCE * sigma_1; otherwise raises GapError.  The sign
    convention of ``compact_svd`` makes the returned basis deterministic.
    """
    m = _as_matrix(m)
    if not 1 <= k <= min(m.shape):
        raise ValueError(f"k={k} out of range for shape {m.shape}")
    return SubspaceBasis(_fix_signs(_top_k(m, k)))


#: Gram-route singular-value gap (relative to sigma_1) above which a draw
#: needs no exact SVD: ten times the Gram's resolution, sqrt(r eps) sigma_1
#: (about 1e-7 sigma_1 at r = 44).
_GRAM_MARGIN = 1e-6


def _no_gap(s, k, tolerance):
    """Where sigma_k - sigma_{k+1} <= tolerance * sigma_1, along the last axis."""
    trailing = s[..., k] if k < s.shape[-1] else 0.0
    return s[..., k - 1] - trailing <= tolerance * s[..., 0]


def _top_k(a, k, labels=None):
    """Left singular vectors of the k largest singular values, LAPACK's signs kept.

    ``a`` (r-by-c, or a stack of them) goes through its r-by-r Gram matrix
    A A^T: its ``eigh`` in descending order gives the vectors, and
    sqrt(max(lambda, 0)) the singular values, but only to about
    sqrt(r eps) sigma_1 (Golub & Van Loan, *Matrix Computations*, 8.6).
    A matrix whose k-th Gram gap is within ``_GRAM_MARGIN`` sigma_1 is
    decided by the exact SVD instead: ``_check_gap`` refuses it, naming
    its label, unless sigma_k - sigma_{k+1} > DEFAULT_GAP_TOLERANCE * sigma_1.
    Returned as a contiguous copy: a strided view moves the kernels' bits.
    """
    batch = a.reshape((-1,) + a.shape[-2:])
    w, v = np.linalg.eigh(batch @ batch.transpose(0, 2, 1))
    s = np.sqrt(np.maximum(w[:, ::-1], 0.0))
    u = v[:, :, ::-1][:, :, :k]
    doubt = np.flatnonzero(_no_gap(s, k, _GRAM_MARGIN))
    if doubt.size:
        exact, s_exact, _ = np.linalg.svd(batch[doubt], full_matrices=False)
        _check_gap(s_exact, k, None if labels is None else [labels[j] for j in doubt])
        u[doubt] = exact[:, :, :k]
    return np.ascontiguousarray(u).reshape(a.shape[:-1] + (k,))


def _check_gap(s, k, labels=None):
    """Raise GapError unless sigma_k - sigma_{k+1} > DEFAULT_GAP_TOLERANCE * sigma_1.

    ``s`` holds singular values along its last axis; with leading batch
    axes every row is checked, and the message names the failing rows by
    their ``labels`` when given.
    """
    bad = _no_gap(s, k, DEFAULT_GAP_TOLERANCE)
    if np.any(bad):
        where = "" if labels is None else f" in draw(s) {[labels[j] for j in np.flatnonzero(bad)]}"
        raise GapError(f"singular values {k} and {k + 1} are not separated{where}")


def macg_log_pdf(subspace, model: CovarianceModel) -> float:
    """Log-density of the matrix angular central Gaussian on Gr(n, k).

    log p = -(n/2) ln|X^T C^-1 X| - (k/2) ln|C| for any orthonormal basis X
    of the subspace; invariant under right-multiplication of X by an
    orthogonal matrix.  C must be positive definite.
    """
    x = subspace.matrix if isinstance(subspace, SubspaceBasis) else _as_matrix(subspace, "basis")
    n, k = x.shape
    if model.eigvecs.shape[0] != n:
        raise ValueError("subspace and covariance dimensions differ")
    spectrum = np.concatenate([model.eigvals, np.full(n - model.eigvals.size, model.noise_floor)])
    if not np.all(spectrum > 0):
        raise np.linalg.LinAlgError("covariance model is singular; regularize first")
    e = model.noise_floor
    g = model.eigvecs.T @ x                      # (r, k)
    if e > 0.0:
        core = np.eye(k) / e + g.T @ ((1.0 / model.eigvals - 1.0 / e)[:, None] * g)
    else:
        # noise_floor == 0 is only PD when the model has full rank
        core = g.T @ ((1.0 / model.eigvals)[:, None] * g)
    sign, log_det_core = np.linalg.slogdet(core)
    if sign <= 0:
        raise np.linalg.LinAlgError("X^T C^-1 X is not positive definite")
    log_det_cov = float(np.sum(np.log(spectrum)))
    return -0.5 * n * log_det_core - 0.5 * k * log_det_cov


def projector_distance(a, b) -> float:
    """Frobenius distance between the orthogonal projectors of two bases."""
    pa = a.projector() if isinstance(a, SubspaceBasis) else a @ a.T
    pb = b.projector() if isinstance(b, SubspaceBasis) else b @ b.T
    return float(np.linalg.norm(pa - pb, "fro"))
