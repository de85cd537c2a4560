"""Dense real linear algebra: SVD and PCA via the SVD.

The SVD is a one-sided Jacobi iteration on columns, accurate and simple at
the matrix sizes used here (embeddings are at most a few hundred entries).
`svd-dirs` runs it on an embedding; PCA reads the same factors (the
acceptance suite checks the two against each other). Singular-vector signs
are canonicalized so that results are reproducible: in every right
singular vector the entry of largest magnitude is made non-negative.
"""

from dataclasses import dataclass

import numpy as np

JACOBI_SWEEP_CAP = 60
JACOBI_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted without reaching the off-diagonal tolerance."""


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


def _complete_basis(cols: list[np.ndarray], m: int) -> list[np.ndarray]:
    """Extend an orthonormal column list to a full basis of R^m.

    Deterministic: standard basis vectors are tried in index order and
    Gram-Schmidt-orthogonalized against what is already present.
    """
    out = list(cols)
    for i in range(m):
        if len(out) == m:
            break
        v = np.zeros(m)
        v[i] = 1.0
        for u in out:
            v -= (u @ v) * u
        nrm = float(np.sqrt(v @ v))
        if nrm > 1e-8:
            out.append(v / nrm)
    return out


def _jacobi_tall(a: np.ndarray):
    """One-sided Jacobi on an m x n matrix with m >= n."""
    m, n = a.shape
    b = a.copy()
    v = np.eye(n)
    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        off_max = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                bp = b[:, p]
                bq = b[:, q]
                app = bp @ bp
                aqq = bq @ bq
                apq = bp @ bq
                denom = app * aqq
                if denom <= 0.0:
                    continue
                off = abs(apq) / np.sqrt(denom)
                off_max = max(off_max, off)
                if off <= JACOBI_TOL:
                    continue
                theta = 0.5 * np.arctan2(2.0 * apq, app - aqq)
                c = np.cos(theta)
                s = np.sin(theta)
                b[:, p], b[:, q] = c * bp + s * bq, -s * bp + c * bq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp + s * vq
                v[:, q] = -s * vp + c * vq
        if off_max <= JACOBI_TOL:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"one-sided Jacobi did not converge in {JACOBI_SWEEP_CAP} sweeps"
        )

    norms = np.sqrt(np.einsum("ij,ij->j", b, b))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    b = b[:, order]
    v = v[:, order]

    u_cols = []
    zero_tol = max(m, n) * np.finfo(np.float64).eps * max(norms[0], 1.0)
    for j in range(n):
        if norms[j] > zero_tol:
            u_cols.append(b[:, j] / norms[j])
        else:
            norms[j] = 0.0
    filled = _complete_basis(u_cols, m)
    # reinsert completion vectors at the zero-sigma slots, extras at the end
    u = np.empty((m, m))
    it = iter(filled[len(u_cols):])
    k = 0
    for j in range(m):
        if j < n and norms[j] > 0.0:
            u[:, j] = u_cols[k]
            k += 1
        else:
            u[:, j] = next(it)
    return u, norms, v.T


def svd(a) -> SvdFactors:
    """Full SVD a = U diag(sigma) Vt with canonical signs."""
    a = as_matrix(a)
    m, n = a.shape
    if m >= n:
        u, sigma, vt = _jacobi_tall(a)
    else:
        ut, sigma, vtt = _jacobi_tall(a.T)
        u, vt = vtt.T, ut.T
    k = min(m, n)
    for j in range(n):
        row = vt[j, :]
        if row[np.argmax(np.abs(row))] < 0.0:
            vt[j, :] = -row
            if j < k:
                u[:, j] = -u[:, j]
    return SvdFactors(u=u, sigma=sigma[:k].copy(), vt=vt)


@dataclass(frozen=True)
class PcaResult:
    components: np.ndarray  # principal directions as columns
    variances: np.ndarray   # descending; all ~0 flags a degenerate input


def pca(a, centered: bool) -> PcaResult:
    """PCA via SVD. Uncentered mode works on a directly (Gram-matrix view)."""
    a = as_matrix(a)
    if centered:
        if a.shape[0] < 2:
            raise ValueError("centered PCA needs at least 2 rows")
        x = a - a.mean(axis=0, keepdims=True)
        denom = a.shape[0] - 1
    else:
        x = a
        denom = 1
    f = svd(x)
    n = a.shape[1]
    variances = np.zeros(n)
    variances[: f.sigma.shape[0]] = f.sigma**2 / denom
    return PcaResult(components=f.vt.T.copy(), variances=variances)

