"""Singular-vector semantic directions of a text embedding.

A right singular vector v compresses the L x D embedding to a single
column e@v; a left singular vector u compresses it to a single row u@e.
Broadcasting the compressed vector back over the embedding and adding it
(scaled by a strength) produces a semantically shifted embedding. The SVD
is taken over the full embedding, PAD rows included.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import svd
from .pipeline import ModelBundle, seed_noise
from .toyworld import oracle_classify, oracle_style

DEFAULT_STRENGTHS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def compress(e: np.ndarray, side: str, k: int) -> np.ndarray:
    """e@v_k (length L) for the right side, u_k@e (length D) for the left."""
    l, d = e.shape
    if not 0 <= k < min(l, d):
        raise ValueError(f"singular index {k} out of range")
    f = svd(e)
    if side == "right":
        return e @ f.vt[k, :]
    if side == "left":
        return f.u[:, k] @ e
    raise ValueError(f"unknown side {side!r}")


def direction(e: np.ndarray, side: str, k: int) -> np.ndarray:
    """compress(e, side, k) shaped to broadcast over e: (L, 1) for the
    right side, (1, D) for the left."""
    c = compress(e, side, k)
    return c[:, None] if side == "right" else c[None, :]


@dataclass(frozen=True)
class SweepPoint:
    strength: float
    class_index: int
    style: float
    delta_l2: float
    image: np.ndarray


def direction_sweep(bundle: ModelBundle, text: str, side: str, k: int,
                    strengths=DEFAULT_STRENGTHS, seed: int = 0):
    """Generate along one direction with shared x_T.

    Raw strengths are divided by sqrt(D) so the Frobenius magnitude of a
    right-vector shift is sigma_k * |s|, comparable across k.
    """
    e = bundle.embed(text)
    d = e.shape[1]
    x_T = seed_noise(seed)
    base = bundle.generate(e, x_T)
    # one factorization per sweep; the shifted images run as one chain
    c = direction(e, side, k)
    moved = [s for s in strengths if s != 0.0]
    images = {0.0: base}
    if moved:
        shifted = np.stack([e + s / np.sqrt(d) * c for s in moved])
        images.update(zip(moved, bundle.generate(
            shifted, np.tile(x_T, (len(moved), 1)))))
    imgs = np.stack([images[s] for s in strengths])
    cls, _ = oracle_classify(bundle.world, imgs)
    style = oracle_style(bundle.world, imgs, cls)
    return [SweepPoint(
        strength=s,
        class_index=c,
        style=st,
        delta_l2=float(np.sqrt(np.sum((images[s] - base) ** 2))),
        image=images[s],
    ) for s, c, st in zip(strengths, cls.tolist(), style.tolist())]
