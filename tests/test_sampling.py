import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import stochpod as sp
from stochpod.errors import GapError
from stochpod.sampling import _normals, _philox_keys
from stochpod.subspace import _fix_signs


def random_modes(n, r, seed=5):
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.normal(size=(n, r)))
    return q


# ---------------------------------------------------------------------------
# reduced draws


def test_full_dimensional_draw_is_orthogonal():
    model = sp.StochasticSubspaceModel(np.array([3.0, 2.0, 1.0]), 3, 3)
    basis = sp.sample_fractional(model, sp.RandomStream(11, 0))
    assert np.allclose(basis.projector(), np.eye(3), atol=1e-10)


def test_beta_equals_k_matches_polar():
    scales = np.array([4.0, 2.0, 1.0, 0.5])
    model = sp.StochasticSubspaceModel(scales, 2, 2)
    stream = sp.RandomStream(21, 7)
    basis = sp.sample_fractional(model, stream)
    z = stream.normal_matrix(4, 2)
    oracle = sp.polar_orthonormalize(scales[:, None] * z)
    assert sp.projector_distance(basis, oracle) <= 1e-10


def test_model_validation():
    with pytest.raises(ValueError):
        sp.StochasticSubspaceModel(np.array([1.0, 2.0]), 1, 1)   # increasing scales
    with pytest.raises(ValueError):
        sp.StochasticSubspaceModel(np.array([2.0, 1.0]), 2, 1)   # beta < k
    with pytest.raises(ValueError):
        sp.StochasticSubspaceModel(np.array([2.0, -1.0]), 1, 1)  # nonpositive


@pytest.mark.parametrize("scales,beta", [
    pytest.param([1.0, np.nan], 2.5, id="scales-nan"),
    pytest.param([np.inf, 1.0], 2.5, id="scales-inf"),
    pytest.param([2.0, 1.0], np.nan, id="beta-nan"),
    pytest.param([2.0, 1.0], np.inf, id="beta-inf")])
def test_model_refuses_non_finite_values(scales, beta):
    # a NaN scale would make every draw NaN, and a non-finite beta has no
    # column count
    with pytest.raises(ValueError, match="finite"):
        sp.StochasticSubspaceModel(scales, 1, beta)


def test_angle_density_matches_analytic_acg():
    """r=2, k=1: the subspace angle follows the angular central Gaussian law.

    Oracle: chi-square goodness of fit against the numerically normalized
    density p(theta) ~ (cos^2/4 + sin^2)^(-1) on [0, pi).
    """
    model = sp.StochasticSubspaceModel(np.array([2.0, 1.0]), 1, 1)
    n_samples = 10_000
    angles = np.empty(n_samples)
    for i in range(n_samples):
        u = sp.sample_fractional(model, sp.RandomStream(314, i)).matrix.ravel()
        angles[i] = np.arctan2(u[1], u[0]) % np.pi

    bins = 20
    edges = np.linspace(0.0, np.pi, bins + 1)
    observed, _ = np.histogram(angles, bins=edges)
    theta = np.linspace(0.0, np.pi, 200_001)
    density = 1.0 / (np.cos(theta)**2 / 4.0 + np.sin(theta)**2)
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)])
    cdf /= cdf[-1]
    probs = np.diff(np.interp(edges, theta, cdf))
    chi2 = np.sum((observed - n_samples * probs)**2 / (n_samples * probs))
    p_value = scipy.stats.chi2.sf(chi2, bins - 1)
    assert p_value > 0.01


# ---------------------------------------------------------------------------
# fractional beta


def test_fractional_integer_beta_is_bitwise_reduced():
    # integer beta appends no zero-weight column: exactly beta Gaussian columns
    scales = np.array([3.0, 2.0, 1.0])
    model = sp.StochasticSubspaceModel(scales, 2, 4)
    stream = sp.RandomStream(99, 3)
    a = sp.principal_subspace_map(scales[:, None] * stream.normal_matrix(3, 4), 2).matrix
    b = sp.sample_fractional(model, stream).matrix
    assert np.array_equal(a, b)


def test_fractional_structure_matches_column_weight_rule():
    scales = np.array([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])
    beta = 4.32
    model = sp.StochasticSubspaceModel(scales, 4, beta)
    stream = sp.RandomStream(7, 3)
    got = sp.sample_fractional(model, stream)
    # independent construction: ceil(beta)=5 Gaussian columns, last one
    # weighted by the fractional part
    weight = beta - np.floor(beta)
    assert weight == pytest.approx(0.32, abs=1e-12)
    z = stream.normal_matrix(6, 5)
    assert z.shape == (6, 5)
    z[:, -1] *= weight
    oracle = sp.principal_subspace_map(scales[:, None] * z, 4)
    assert np.array_equal(got.matrix, oracle.matrix)


def test_fractional_continuity_at_integer():
    scales = np.array([3.0, 2.0, 1.0, 0.5])
    k = 2
    base = sp.StochasticSubspaceModel(scales, k, float(k))
    bumped = sp.StochasticSubspaceModel(scales, k, k + 1e-9)
    distances = []
    for seed in range(100):
        stream = sp.RandomStream(1000, seed)
        a = sp.sample_fractional(base, stream)
        b = sp.sample_fractional(bumped, stream)
        distances.append(sp.projector_distance(a, b))
    assert np.median(distances) <= 1e-4


# ---------------------------------------------------------------------------
# ambient draws


def test_ambient_canonical_embedding():
    model = sp.StochasticSubspaceModel(np.array([2.0, 1.0]), 1, 3)
    modes = np.eye(6, 2)
    stream = sp.RandomStream(4, 0)
    u = sp.sample_fractional(model, stream).matrix
    w = modes @ u
    assert np.allclose(w[:2], u)
    assert np.allclose(w[2:], 0.0)


def test_ambient_preserves_constraints():
    n, r, k = 12, 4, 2
    modes = random_modes(n, r)
    # any B orthogonal to the modes is annihilated by every draw
    proj = np.eye(n) - modes @ modes.T
    b = proj @ np.random.default_rng(3).normal(size=(n, 3))
    model = sp.StochasticSubspaceModel(np.array([3.0, 2.0, 1.0, 0.5]), k, 6)
    for i in range(50):
        w = modes @ sp.sample_fractional(model, sp.RandomStream(8, i)).matrix
        assert np.linalg.norm(b.T @ w) <= 1e-10
        assert np.linalg.norm(w.T @ w - np.eye(k)) <= 1e-10


def test_ambient_matches_direct_definition():
    """Low-rank sampling equals the direct definition in distribution.

    Oracle: draw from the definition (orthonormalize the top-k left factor
    of an n-by-beta Gaussian with the full rank-r covariance, built via a
    symmetric square root) and compare largest principal angles with a
    two-sample KS test.
    """
    n, r, k, beta = 8, 4, 2, 6
    count = 2000
    modes = random_modes(n, r, seed=17)
    lam = np.array([6.0, 3.0, 1.5, 0.75])
    model = sp.StochasticSubspaceModel(np.sqrt(lam), k, beta)
    v_k = modes[:, :k]

    fast = np.empty(count)
    for i in range(count):
        w = modes @ sp.sample_fractional(model, sp.RandomStream(2468, i)).matrix
        fast[i] = np.max(scipy.linalg.subspace_angles(w, v_k))

    sigma = (modes * lam) @ modes.T
    w_eig, v_eig = np.linalg.eigh(sigma)
    root = (v_eig * np.sqrt(np.clip(w_eig, 0.0, None))) @ v_eig.T
    gen = np.random.default_rng(13579)
    direct = np.empty(count)
    for i in range(count):
        x = root @ gen.standard_normal((n, beta))
        w = sp.principal_subspace_map(x, k).matrix
        direct[i] = np.max(scipy.linalg.subspace_angles(w, v_k))

    assert scipy.stats.ks_2samp(fast, direct).pvalue > 0.01


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_singleton_matches_ambient():
    # a draw depends on its stream index only, not on the batch around it
    model = sp.StochasticSubspaceModel(np.array([3.0, 1.0, 0.5]), 2, 4.5)
    only = sp.batch_fractional_draws(model, 42, [6])
    batch = sp.batch_fractional_draws(model, 42, range(10))
    assert np.array_equal(only[0], batch[6])


def test_ensemble_is_deterministic():
    model = sp.StochasticSubspaceModel(np.array([3.0, 1.0, 0.5]), 2, 5)
    a = sp.batch_fractional_draws(model, 7, range(20))
    b = sp.batch_fractional_draws(model, 7, range(20))
    assert np.array_equal(a, b)


def test_concentration_monotone_in_beta():
    n, r, k = 20, 8, 3
    modes = random_modes(n, r, seed=23)
    scales = np.sqrt(np.array([8.0, 6.0, 4.0, 2.0, 1.0, 0.6, 0.3, 0.1]))
    v_k = modes[:, :k]
    means = []
    for beta in (k, 4 * k, 16 * k, 64 * k):
        model = sp.StochasticSubspaceModel(scales, k, float(beta))
        angles = [
            np.max(scipy.linalg.subspace_angles(
                modes @ sp.sample_fractional(model, sp.RandomStream(31, i)).matrix, v_k))
            for i in range(500)
        ]
        means.append(np.mean(angles))
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_uniformity_at_identity_covariance():
    r, k, count = 6, 2, 3000
    model = sp.StochasticSubspaceModel(np.ones(r), k, k)
    projectors = np.empty((count, r, r))
    for i in range(count):
        u = sp.sample_fractional(model, sp.RandomStream(55, i)).matrix
        projectors[i] = u @ u.T
    mean = projectors.mean(axis=0)
    stderr = projectors.std(axis=0, ddof=1) / np.sqrt(count)
    target = (k / r) * np.eye(r)
    assert np.all(np.abs(mean - target) <= 5.0 * np.maximum(stderr, 1e-12))


def test_samples_concentrate_at_mode():
    r, k = 6, 2
    scales = np.array([3.0, 2.5, 1.0, 0.8, 0.5, 0.3])
    model = sp.StochasticSubspaceModel(scales, k, 50.0 * k)
    # the rank-k probabilistic-PCA estimate: the leading k variances and
    # the mean of the rest as the noise floor
    cov = sp.CovarianceModel(np.eye(r, k), scales[:k]**2, float(np.mean(scales[k:]**2)))
    at_mode = sp.macg_log_pdf(np.eye(r, k), cov)
    below = 0
    count = 500
    for i in range(count):
        u = sp.sample_fractional(model, sp.RandomStream(77, i))
        if sp.macg_log_pdf(u, cov) <= at_mode:
            below += 1
    assert below >= 0.99 * count


# ---------------------------------------------------------------------------
# batched path


def test_batched_draws_match_sequential():
    scales = np.array([4.0, 2.0, 1.0, 0.5, 0.25])
    for beta in (3, 4.62):
        model = sp.StochasticSubspaceModel(scales, 3, beta)
        batch = sp.batch_fractional_draws(model, 101, range(40))
        cols = int(np.ceil(beta))
        for i in range(40):
            z = sp.RandomStream(101, i).normal_matrix(5, cols)
            if beta != cols:
                z[:, -1] *= beta - np.floor(beta)
            single = sp.principal_subspace_map(scales[:, None] * z, 3).matrix
            assert np.array_equal(_fix_signs(batch[i]), single)



@pytest.mark.parametrize("rows,cols,more", [(1, 1, 1), (5, 3, 9), (44, 11, 250)])
def test_normal_matrix_narrower_is_prefix_of_wider(rows, cols, more):
    # the Monte-Carlo loop slices narrower draws out of wider ones
    for index in (0, 3, 12345):
        stream = sp.RandomStream(2718, index)
        narrow = stream.normal_matrix(rows, cols)
        wide = stream.normal_matrix(rows, cols + more)
        assert np.array_equal(narrow, wide[:, :cols])


@pytest.mark.parametrize("chunk", [1, 4, 7, 10])
def test_cache_serves_every_chunking_like_fresh_draws(chunk):
    # empty, full and last partial chunks of one block of streams, at
    # betas that need fewer and all of its columns
    count = 10
    held = _normals(42, range(count), 4, 7)
    chunks = [range(0, 0), *(range(s, min(s + chunk, count))
                             for s in range(0, count, chunk)), range(count, count)]
    for beta in (4.5, 6.25, 3, 7):
        model = sp.StochasticSubspaceModel(np.array([3.0, 1.0, 0.5, 0.2]), 2, beta)
        for indices in chunks:
            assert np.array_equal(
                sp.batch_fractional_draws(model, held[indices.start:indices.stop], indices),
                sp.batch_fractional_draws(model, 42, indices))


def test_seed_serves_any_index_list_like_per_stream_generation():
    scales = np.array([3.0, 1.0, 0.5, 0.2])
    model = sp.StochasticSubspaceModel(scales, 2, 6.5)
    for indices in ([7], [29, 4, 17], [5, 5], [10**12, 6]):
        batch = sp.batch_fractional_draws(model, 42, indices)
        for j, i in enumerate(indices):
            z = sp.RandomStream(42, i).normal_matrix(4, 7)
            z[:, -1] *= 0.5
            single = sp.principal_subspace_map(scales[:, None] * z, 2).matrix
            assert np.array_equal(_fix_signs(batch[j]), single), i


def test_tied_spectrum_raises_gap_error():
    # exactly tied singular values (probability zero in sampling) surface
    # as GapError instead of an arbitrary subspace
    with pytest.raises(GapError):
        sp.principal_subspace_map(np.eye(2), 1)


# ---------------------------------------------------------------------------
# stream keys in one pass

@pytest.mark.parametrize("seed", [0, 11, 42, 2**40 + 7, 2**63 + 11, 2**130 + 3])
def test_philox_keys_match_seed_sequence(seed):
    # one to seven spawn-key words, their edges, and a long consecutive run
    indices = [0, 1, 2**32 - 1, 2**32, 10**12, 2**64 - 1, 2**96 + 5, 2**128, 2**200,
               *range(70_000, 90_000)]
    keys = _philox_keys(seed, indices)
    expected = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
                for i in indices]
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, np.array(expected))
    assert _philox_keys(seed, []).shape == (0, 2)


def test_normals_match_per_stream_generators():
    # one-word, two-word and beyond-two-word indices, in one list
    indices = [3, 0, 2**32 + 5, 2**64, 7, 2**64 - 1, 2**70 + 1, 10**12, 3]
    for seed in (5, 2**63 + 11):
        z = _normals(seed, indices, 4, 6)
        for j, i in enumerate(indices):
            flat = sp.RandomStream(seed, i).generator().standard_normal(24)
            assert np.array_equal(z[j], flat.reshape(6, 4).T), (seed, i)
    # SeedSequence refuses a negative spawn key or seed, and so do the keys
    with pytest.raises(ValueError):
        _normals(5, [3, -1], 4, 6)
    with pytest.raises(ValueError):
        _normals(-5, [3], 4, 6)


def test_normals_raise_no_warning():
    # the hash wraps around 32 bits on purpose
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _normals(2**63 + 11, [0, 9, 2**32 + 1, 2**64 - 1], 3, 2)


def test_normals_of_concurrent_threads_are_their_own():
    # each thread re-keys its own generator; a short switch interval lets
    # a thread run between another's re-keying and its draw
    jobs = {seed: range(seed, seed + 3000) for seed in (17, 18)}
    serial = {seed: _normals(seed, indices, 3, 4) for seed, indices in jobs.items()}
    start = threading.Barrier(len(jobs), timeout=60)
    got = {}

    def run(seed):
        start.wait()
        got[seed] = _normals(seed, jobs[seed], 3, 4)

    threads = [threading.Thread(target=run, args=(seed,)) for seed in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in jobs:
        assert np.array_equal(got[seed], serial[seed]), seed
