"""Dense real linear algebra: the SVD with canonical signs.

The SVD is numpy's LAPACK one (`np.linalg.svd`, full matrices); a LAPACK
failure raises `np.linalg.LinAlgError`, which the CLI reports as a numeric
failure. `svd-dirs` runs it on an embedding. Singular-vector signs are
canonicalized so that results are reproducible: in every right singular
vector the entry of largest magnitude is made non-negative.
"""

from dataclasses import dataclass

import numpy as np


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdFactors:
    u: np.ndarray       # m x m orthogonal
    sigma: np.ndarray   # min(m, n), descending, non-negative
    vt: np.ndarray      # n x n orthogonal

    def reconstruct(self) -> np.ndarray:
        k = self.sigma.shape[0]
        return (self.u[:, :k] * self.sigma) @ self.vt[:k, :]


def svd(a) -> SvdFactors:
    """Full SVD a = U diag(sigma) Vt with canonical signs."""
    a = as_matrix(a)
    u, sigma, vt = np.linalg.svd(a, full_matrices=True)
    k = sigma.shape[0]
    for j in range(a.shape[1]):
        row = vt[j, :]
        if row[np.argmax(np.abs(row))] < 0.0:
            vt[j, :] = -row
            if j < k:
                u[:, j] = -u[:, j]
    return SvdFactors(u=u, sigma=sigma, vt=vt)
