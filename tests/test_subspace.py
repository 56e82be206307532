import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochpod as sp
from stochpod import subspace
from stochpod.errors import GapError

from conftest import covariance_from_dense, sample_macg_subspace


# ---------------------------------------------------------------------------
# center


def test_center_identical_columns():
    v = np.array([3.0, -1.0, 2.0])
    assert np.allclose(sp.center(np.column_stack([v, v])), 0.0)


def test_center_two_scalars():
    assert np.allclose(sp.center(np.array([[1.0, 3.0]])), [[-1.0, 1.0]])


def test_center_row_sums_vanish(rng):
    data = rng.normal(size=(50, 7))
    centered = sp.center(data)
    # direct summation oracle: each row of the centered matrix sums to zero
    assert np.max(np.abs(centered.sum(axis=1))) <= 1e-10 * np.linalg.norm(data)
    # the centering the pipeline's "centered" POD source relies on, bit for bit
    assert np.array_equal(centered, data - data.mean(axis=1)[:, None])


def test_center_rejects_empty():
    with pytest.raises(ValueError):
        sp.center(np.zeros((3, 0)))


# ---------------------------------------------------------------------------
# compact_svd


def test_compact_svd_diagonal():
    x = np.zeros((4, 2))
    x[0, 0], x[1, 1] = 3.0, 2.0
    pod = sp.compact_svd(x)
    assert np.allclose(pod.singular_values, [3.0, 2.0])
    assert pod.rank == 2
    # canonical directions up to sign; sign convention makes them exact
    assert np.allclose(np.abs(pod.modes[:2, :]), np.eye(2), atol=1e-12)


def test_compact_svd_rank_one(rng):
    u = rng.normal(size=8)
    w = rng.normal(size=5)
    pod = sp.compact_svd(np.outer(u, w))
    assert pod.rank == 1


def test_compact_svd_reconstructs(rng):
    x = rng.normal(size=(100, 20))
    pod = sp.compact_svd(x)
    rebuilt = pod.modes @ (pod.modes.T @ x)
    assert np.linalg.norm(rebuilt - x) <= 1e-10 * np.linalg.norm(x)


def test_compact_svd_zero_matrix():
    with pytest.raises(ValueError):
        sp.compact_svd(np.zeros((4, 3)))


def test_compact_svd_discards_tiny_values(rng):
    u, _ = np.linalg.qr(rng.normal(size=(10, 3)))
    w, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    x = u @ np.diag([1.0, 1e-3, 1e-14]) @ w.T
    assert sp.compact_svd(x).rank == 2


# ---------------------------------------------------------------------------
# select_rank


def test_select_rank_examples():
    assert sp.select_rank(np.sqrt([9.0, 1.0]), 0.9) == 1
    assert sp.select_rank(np.sqrt([4.0, 3.0, 2.0, 1.0]), 0.8) == 3
    assert sp.select_rank(np.sqrt([4.0, 3.0, 2.0, 1.0]), 1.0 - 1e-12) == 4


def test_select_rank_validates_threshold():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            sp.select_rank(np.array([2.0, 1.0]), bad)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12),
       st.floats(1e-6, 1.0 - 1e-6))
def test_select_rank_is_smallest(values, tau):
    s = np.sort(np.asarray(values))[::-1]
    k = sp.select_rank(s, tau)
    energy = np.cumsum(s**2) / np.sum(s**2)
    assert energy[k - 1] >= tau
    if k > 1:
        assert energy[k - 2] < tau


# ---------------------------------------------------------------------------
# polar_orthonormalize


def test_polar_identity_on_orthonormal(rng):
    q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    assert np.allclose(sp.polar_orthonormalize(q).matrix, q, atol=1e-12)


def test_polar_column_scaling():
    m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(sp.polar_orthonormalize(m).matrix, expected, atol=1e-14)


def test_polar_matches_svd_range_oracle(rng):
    m = rng.normal(size=(30, 4))
    basis = sp.polar_orthonormalize(m)
    assert np.linalg.norm(basis.matrix.T @ basis.matrix - np.eye(4)) <= 1e-12
    # range oracle: orthonormal range basis from an independent SVD call
    u = np.linalg.svd(m, full_matrices=False)[0]
    assert sp.projector_distance(basis.matrix, u) <= 1e-10


def test_polar_rejects_rank_deficient():
    m = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        sp.polar_orthonormalize(m)


# ---------------------------------------------------------------------------
# principal_subspace_map


def test_principal_map_diagonal_dominance():
    m = np.diag([5.0, 2.0, 1.0])
    basis = sp.principal_subspace_map(m, 1)
    assert np.allclose(np.abs(basis.matrix.ravel()), [1.0, 0.0, 0.0], atol=1e-12)


def test_principal_map_full_k_equals_polar(rng):
    m = rng.normal(size=(7, 3))
    a = sp.principal_subspace_map(m, 3)
    b = sp.polar_orthonormalize(m)
    assert sp.projector_distance(a, b) <= 1e-10


def test_principal_map_matches_full_svd(rng):
    m = rng.normal(size=(40, 10))
    basis = sp.principal_subspace_map(m, 3)
    u = np.linalg.svd(m, full_matrices=True)[0][:, :3]
    assert sp.projector_distance(basis.matrix, u) <= 1e-10


def test_principal_map_gap_error():
    with pytest.raises(GapError):
        sp.principal_subspace_map(np.eye(4), 2)


def test_principal_map_sign_convention(rng):
    m = rng.normal(size=(12, 5))
    basis = sp.principal_subspace_map(m, 2).matrix
    for j in range(2):
        lead = np.argmax(np.abs(basis[:, j]))
        assert basis[lead, j] > 0


def test_gap_check_over_batch_names_failing_rows():
    spectra = np.array([[2.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
    subspace._check_gap(spectra[:1], 1)
    with pytest.raises(GapError, match=r"in draw\(s\) \[11, 12\]$"):
        subspace._check_gap(spectra, 1, labels=[10, 11, 12])


def test_sign_convention_over_batch_matches_single(rng):
    stacked = rng.normal(size=(6, 9, 3))
    batched = subspace._fix_signs(stacked)
    for one, many in zip(stacked, batched):
        assert np.array_equal(subspace._fix_signs(one), many)


def _svd_top_k(a, k, labels):
    """``_top_k``'s rule through the SVD alone."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    subspace._check_gap(s, k, labels)
    return subspace._fix_signs(u[..., :k])


def _projectors(u):
    return u @ np.swapaxes(u, -1, -2)


def _with_spectrum(rng, spectrum, cols):
    """U diag(spectrum) V^T with random orthonormal U and V."""
    u = np.linalg.qr(rng.normal(size=(spectrum.size, spectrum.size)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, spectrum.size)))[0]
    return (u * spectrum) @ v.T


def test_top_k_gap_decisions_are_the_exact_svds(rng):
    # sigma_3 - sigma_4 is 0.1 sigma_1 (Gram route), 1e-11 sigma_1 (in doubt:
    # the SVD accepts it) or 1e-13 sigma_1 (the SVD refuses it)
    gaps = {"wide": 0.1, "close": 1e-11, "tied": 1e-13}
    kinds = ["wide", "close", "tied", "wide", "tied", "close", "wide"]
    labels = [100 + j for j in range(len(kinds))]
    batch = np.stack([_with_spectrum(rng, 2.0 * np.array([1.0, 0.8, 0.6, 0.6 - gaps[kind], 0.3, 0.1]), 9)
                      for kind in kinds])
    with pytest.raises(GapError, match=r"in draw\(s\) \[102, 104\]$") as got:
        subspace._top_k(batch, 3, labels)
    with pytest.raises(GapError) as want:
        _svd_top_k(batch, 3, labels)
    assert str(got.value) == str(want.value)

    keep = [j for j, kind in enumerate(kinds) if kind != "tied"]
    got = subspace._top_k(batch[keep], 3, [labels[j] for j in keep])
    want = _svd_top_k(batch[keep], 3, [labels[j] for j in keep])
    close = [i for i, j in enumerate(keep) if kinds[j] == "close"]
    assert np.array_equal(subspace._fix_signs(got)[close], want[close])
    assert np.abs(_projectors(got) - _projectors(want)).max() <= 1e-12


@pytest.mark.parametrize("cols", [20, 52, 276])
def test_top_k_gram_route_matches_svd_over_twelve_decades(rng, monkeypatch, cols):
    # r = 44 and k = 10 with sigma_44 / sigma_1 near 1e-12, as in ex3;
    # 20 columns leave the Gram matrix rank-deficient
    scales = np.concatenate([np.logspace(0, -3.6, 10), np.logspace(-3.8, -11.7, 34)])
    batch = scales[:, None] * rng.standard_normal((50, 44, cols))
    want = _svd_top_k(batch, 10, range(50))
    monkeypatch.setattr(np.linalg, "svd", None)      # no draw is in doubt
    got = subspace._top_k(batch, 10, range(50))
    assert np.linalg.norm(_projectors(got) - _projectors(want), axis=(1, 2)).max() <= 1e-10


@pytest.mark.parametrize("rows,cols,k", [(6, 6, 6), (6, 9, 6), (8, 5, 5), (8, 5, 2)])
def test_top_k_gram_route_at_full_k_and_few_columns(rng, rows, cols, k):
    batch = np.geomspace(1.0, 1e-3, rows)[:, None] * rng.standard_normal((30, rows, cols))
    got = subspace._top_k(batch, k, range(30))
    want = _svd_top_k(batch, k, range(30))
    assert got.shape == (30, rows, k)
    assert np.linalg.norm(_projectors(got) - _projectors(want), axis=(1, 2)).max() <= 1e-10


# ---------------------------------------------------------------------------
# macg_log_pdf


def test_macg_uniform_at_identity(rng):
    model = covariance_from_dense(np.eye(5))
    q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    assert sp.macg_log_pdf(q, model) == pytest.approx(0.0, abs=1e-12)


def test_macg_hand_computed_value():
    model = covariance_from_dense(np.diag([4.0, 1.0]))
    value = sp.macg_log_pdf(np.array([[1.0], [0.0]]), model)
    assert value == pytest.approx(np.log(2.0), rel=1e-12)


def test_macg_basis_invariance(rng):
    sigma = np.diag([6.0, 3.0, 1.5, 0.5])
    model = covariance_from_dense(sigma)
    basis = sample_macg_subspace(sigma, 2, rng).matrix
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    a = sp.macg_log_pdf(basis, model)
    b = sp.macg_log_pdf(basis @ q, model)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_macg_requires_positive_definite():
    singular = sp.CovarianceModel(np.eye(4, 2), np.array([2.0, 1.0]), 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        sp.macg_log_pdf(np.eye(4, 2), singular)


def test_macg_closed_form_at_principal_subspace(rng):
    n, k = 7, 3
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.sort(rng.uniform(0.3, 5.0, size=n))[::-1]
    model = sp.CovarianceModel(q, lam, 0.0)
    value = sp.macg_log_pdf(q[:, :k], model)
    closed = 0.5 * n * np.sum(np.log(lam[:k])) - 0.5 * k * np.sum(np.log(lam))
    assert abs(value - closed) <= 1e-10


def test_macg_mode_dominates_samples(rng):
    n, k = 9, 2
    lam = np.array([8.0, 5.0, 2.0, 1.2, 1.0, 0.8, 0.6, 0.5, 0.4])
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sigma = (q * lam) @ q.T
    model = sp.CovarianceModel(q, lam, 0.0)
    at_mode = sp.macg_log_pdf(q[:, :k], model)
    for _ in range(1000):
        draw = sample_macg_subspace(sigma, k, rng)
        assert sp.macg_log_pdf(draw, model) < at_mode


# ---------------------------------------------------------------------------
# composition invariant


def test_pipeline_composition_recovers_pod_subspace(rng):
    data = rng.normal(size=(30, 12)) @ np.diag(rng.uniform(0.5, 3.0, size=12))
    centered = sp.center(data)
    pod = sp.compact_svd(centered)
    k = sp.select_rank(pod.singular_values, 0.9)
    direct = sp.principal_subspace_map(centered, k)
    assert sp.projector_distance(direct.matrix, pod.modes[:, :k]) <= 1e-10
    assert np.linalg.norm(direct.matrix.T @ direct.matrix - np.eye(k)) <= 1e-10
