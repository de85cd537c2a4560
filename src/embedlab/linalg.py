"""Dense real linear algebra: SVD and PCA via the SVD.

The SVD is a one-sided Jacobi iteration on columns, accurate and simple at
the matrix sizes used here (embeddings are at most a few hundred entries).
Its sweeps follow the round-robin ordering, so each round rotates n / 2
disjoint column pairs in a few array operations.
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


def _complete_basis(cols: np.ndarray) -> np.ndarray:
    """An m x m orthogonal matrix whose first columns are the orthonormal
    columns of cols (m, k).

    Deterministic: standard basis vectors are tried in index order and
    projected off the columns present twice; one classical Gram-Schmidt
    pass leaves its own rounding behind, a second removes it.
    """
    m, k = cols.shape
    q = np.empty((m, m))
    q[:, :k] = cols
    for i in range(m):
        if k == m:
            break
        v = np.zeros(m)
        v[i] = 1.0
        for _ in range(2):
            v -= q[:, :k] @ (q[:, :k].T @ v)
        nrm = float(np.sqrt(v @ v))
        if nrm > 1e-8:
            q[:, k] = v / nrm
            k += 1
    return q


def _round_robin(n: int) -> list:
    """The rounds of one sweep over n columns, each a (2, n // 2) array of
    column pairs, first row p, second q > p: the pairs of a round are
    disjoint, and every pair of columns meets in exactly one round (Brent &
    Luk 1985). An odd n sits one column out in each of its n rounds.
    """
    slots = list(range(n + n % 2))   # slot n, if any, is the sit-out
    half = len(slots) // 2
    rounds = []
    for _ in range(len(slots) - 1):
        pairs = sorted((min(i, j), max(i, j)) for i, j
                       in zip(slots[:half], reversed(slots[half:])))
        pairs = [pq for pq in pairs if pq[1] < n]
        if pairs:
            rounds.append(np.array(pairs).T)
        # the circle method: slot 0 stays, the others move one place
        slots = slots[:1] + slots[-1:] + slots[1:-1]
    return rounds


def _jacobi_tall(a: np.ndarray):
    """One-sided Jacobi on an m x n matrix with m >= n.

    Each round of a sweep rotates the disjoint column pairs of the
    round-robin schedule at once, on the working matrix b and the
    accumulated right rotations v stacked in one array. Each rotation is
    the inner one, |theta| <= pi/4, from Rutishauser's
    t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), zeta = (aqq - app) / 2apq,
    written as t = sign(zeta) 2|apq| / (|aqq - app| + hypot(aqq - app, 2apq)).
    A pair whose cosine |apq| / sqrt(app aqq) is within JACOBI_TOL is left
    as it is; converged when a whole sweep leaves every pair.
    """
    m, n = a.shape
    w = np.vstack([a, np.eye(n)])   # b above v
    rounds = _round_robin(n)
    for _ in range(JACOBI_SWEEP_CAP):
        rotated = False
        for pq in rounds:
            x = w[:, pq]   # (m + n, 2, pairs)
            g = np.einsum("ixk,iyk->xyk", x[:m], x[:m])
            app, aqq, apq = g[0, 0], g[1, 1], g[0, 1]
            turn = apq * apq > (JACOBI_TOL * JACOBI_TOL) * (app * aqq)
            if not turn.any():
                continue
            rotated = True
            d = aqq - app
            two = 2.0 * apq
            t = np.divide(np.copysign(1.0, d) * two, np.abs(d) + np.hypot(d, two),
                          out=np.zeros_like(d), where=turn)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            w[:, pq] = np.einsum("ixk,xyk->iyk", x, np.array([[c, s], [-s, c]]))
        if not rotated:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi did not converge in {JACOBI_SWEEP_CAP} sweeps"
        )
    b, v = w[:m], w[m:]

    norms = np.sqrt(np.einsum("ij,ij->j", b, b))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    b = b[:, order]
    v = v[:, order]

    zero_tol = max(m, n) * np.finfo(np.float64).eps * max(norms[0], 1.0)
    live = norms > zero_tol
    norms[~live] = 0.0
    filled = _complete_basis(b[:, live] / norms[live])
    # completion vectors go to the zero-sigma slots, extras at the end
    u = np.empty((m, m))
    u[:, np.r_[np.flatnonzero(live), np.flatnonzero(~live), n:m]] = filled
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

