import numpy as np
import pytest

from embedlab import linalg as la
from embedlab.rng import Rng


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        la.as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        la.as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        la.as_matrix(np.zeros((0, 2)))


def _char_poly_3x3_roots(g):
    tr = np.trace(g)
    minors = (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1]
              + g[0, 0] * g[2, 2] - g[0, 2] * g[2, 0]
              + g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    det = (g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
           - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
           + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0]))
    return np.sort(np.real(np.roots([1.0, -tr, minors, -det])))[::-1]


def test_svd_cubic_characteristic_oracle():
    a = Rng(1).normal((5, 3))
    f = la.svd(a)
    assert np.linalg.norm(f.reconstruct() - a) / np.linalg.norm(a) < 1e-10
    eigs = _char_poly_3x3_roots(a.T @ a)
    assert np.max(np.abs(np.sort(f.sigma**2)[::-1] - eigs) / eigs) < 1e-8


def test_svd_matches_numpy_singular_values():
    for seed in range(10):
        a = Rng(100 + seed).normal((6, 9))
        got = la.svd(a).sigma
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_svd_sign_canonicalization():
    for seed in range(10):
        a = Rng(200 + seed).normal((5, 4))
        f = la.svd(a)
        for j in range(4):
            row = f.vt[j, :]
            assert row[np.argmax(np.abs(row))] >= 0.0


def test_svd_rank_deficient():
    a = Rng(2).normal((6, 4))
    a[:, 2] = 2.0 * a[:, 0]  # exact rank 3
    f = la.svd(a)
    assert f.sigma[-1] < 1e-10
    assert np.max(np.abs(f.reconstruct() - a)) < 1e-10
    assert np.max(np.abs(f.u.T @ f.u - np.eye(6))) < 1e-10


def test_svd_wide_matrix():
    a = Rng(3).normal((3, 7))
    f = la.svd(a)
    assert f.u.shape == (3, 3) and f.vt.shape == (7, 7)
    assert np.max(np.abs(f.reconstruct() - a)) < 1e-10
    assert np.max(np.abs(f.vt @ f.vt.T - np.eye(7))) < 1e-10


def test_gram_power_iteration_oracle():
    a = Rng(4).normal((6, 4))
    g = a.T @ a
    v = np.ones(4) / 2.0
    lam = 0.0
    for _ in range(3000):
        w = g @ v
        lam = float(np.sqrt(w @ w))
        v = w / lam
    # the top eigenpair of a^T a is sigma_0^2 and the first right
    # singular vector
    f = la.svd(a)
    assert abs(f.sigma[0] ** 2 - lam) / lam < 1e-9
    # eigenvector matches up to sign
    assert min(np.linalg.norm(f.vt[0] - v),
               np.linalg.norm(f.vt[0] + v)) < 1e-6


def test_pca_centered_covariance_oracle():
    a = Rng(5).normal((8, 3))
    res = la.pca(a, centered=True)
    x = a - a.mean(axis=0)
    cov = x.T @ x / 7.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    assert np.max(np.abs(res.variances[:3] - eigvals[order])) < 1e-8
    for j in range(3):
        c = res.components[:, j]
        r = eigvecs[:, order[j]]
        assert min(np.max(np.abs(c - r)), np.max(np.abs(c + r))) < 1e-8


def test_pca_uncentered_equals_right_singular_vectors():
    a = Rng(6).normal((7, 4))
    res = la.pca(a, centered=False)
    f = la.svd(a)
    assert np.array_equal(res.components, f.vt.T)
    assert np.max(np.abs(res.variances[:4] - f.sigma**2)) < 1e-10


def test_pca_centered_needs_two_rows():
    with pytest.raises(ValueError):
        la.pca(np.ones((1, 3)), centered=True)
