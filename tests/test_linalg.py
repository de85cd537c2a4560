import numpy as np
import pytest

from embedlab import cli
from embedlab import linalg as la
from embedlab.rng import Rng


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        la.as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        la.as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        la.as_matrix(np.zeros((0, 2)))


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


def test_completed_basis_is_orthonormal():
    """The full u and vt, the columns and rows beyond min(m, n) included,
    are orthonormal on a wide matrix and on its transpose."""
    a = Rng(301).normal((16, 32))
    for x in (a, a.T):
        f = la.svd(x)
        m, n = x.shape
        assert np.max(np.abs(f.u.T @ f.u - np.eye(m))) <= 1e-11
        assert np.max(np.abs(f.vt @ f.vt.T - np.eye(n))) <= 1e-11


def test_pca_uncentered_equals_right_singular_vectors():
    a = Rng(6).normal((7, 4))
    res = la.pca(a, centered=False)
    f = la.svd(a)
    assert np.array_equal(res.components, f.vt.T)
    assert np.max(np.abs(res.variances[:4] - f.sigma**2)) < 1e-10


def test_pca_centered_needs_two_rows():
    with pytest.raises(ValueError):
        la.pca(np.ones((1, 3)), centered=True)


def _svd_inputs(bundle):
    """16 x 32 embeddings of the training prompts, random 16 x 32 matrices,
    and tall and wide matrices whose smaller side is odd."""
    prompts = [f"a photo of {c} {s}" for c in ("hbar", "vbar", "diag", "cross")
               for s in ("bright", "dim")]
    mats = list(bundle.embed(prompts))
    mats += [Rng(300 + i).normal((16, 32)) for i in range(5)]
    mats += [Rng(400 + i).normal(shape) for i, shape
             in enumerate([(9, 5), (7, 3), (5, 11), (13, 7), (3, 9)])]
    return mats


def test_svd_vectors_match_numpy_up_to_sign(untrained_bundle):
    """svd() gives numpy's factors: singular values, and the singular
    vectors up to sign where the values are distinct."""
    for a in _svd_inputs(untrained_bundle):
        f = la.svd(a)
        u, s, vt = np.linalg.svd(a)
        assert np.max(np.abs(f.sigma - s)) < 1e-12, a.shape
        assert np.min(np.abs(np.diff(s))) > 1e-3 * s[0], a.shape
        for j in range(len(s)):
            for got, want in ((f.vt[j], vt[j]), (f.u[:, j], u[:, j])):
                sign = 1.0 if got @ want > 0.0 else -1.0
                assert np.max(np.abs(got - sign * want)) < 1e-9, (a.shape, j)
        k = len(s)
        assert np.max(np.abs(f.vt[:k] @ f.vt[:k].T - np.eye(k))) < 1e-10
        assert np.max(np.abs(f.u[:, :k].T @ f.u[:, :k] - np.eye(k))) < 1e-10


def test_svd_failure_exits_numeric(monkeypatch, tmp_path, ckpt, capsys):
    """A LAPACK failure is a numeric failure (exit 3), not a config error,
    although np.linalg.LinAlgError subclasses ValueError."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)
    capsys.readouterr()
    assert cli.main(["svd-dirs", "--ckpt", ckpt,
                     "--out", str(tmp_path / "sv")]) == 3
    assert "numeric failure: SVD did not converge" in capsys.readouterr().err
