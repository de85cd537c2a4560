"""Learning-free text-embedding mixing operations and the edit pipeline.

All mixing operations are row-local: rows outside the declared positions
are returned bitwise-equal to the source. Edit comparisons are seed-paired;
the source and edited images always share the same x_T under deterministic
DDIM sampling, so any difference is attributable to the embedding change.
"""

from dataclasses import dataclass

import numpy as np

from .denoiser import AttnMask
from .pipeline import ModelBundle, seed_noise
from .text_encoder import TextEmbedding, TokenSeq
from .toyworld import background_mask, oracle_classify, oracle_style


@dataclass(frozen=True)
class EditOutcome:
    i_s: np.ndarray
    i_star: np.ndarray
    class_src: int
    class_star: int
    style_src: float
    style_star: float
    background_l2: float


def diff_positions(t_s: TokenSeq, t_t: TokenSeq) -> set:
    if len(t_s.ids) != len(t_t.ids):
        raise ValueError("token sequences must have equal length")
    return {i for i, (a, b) in enumerate(zip(t_s.ids, t_t.ids)) if a != b}


def _check_shapes(e_s: TextEmbedding, e_t: TextEmbedding) -> None:
    if e_s.data.shape != e_t.data.shape:
        raise ValueError("embedding shapes differ")


def _check_positions(e: TextEmbedding, positions) -> None:
    length = e.data.shape[0]
    bad = [i for i in positions if not 0 <= i < length]
    if bad:
        raise ValueError(f"positions {bad} out of range 0..{length - 1}")


def mix_swap(e_s: TextEmbedding, e_t: TextEmbedding, positions) -> TextEmbedding:
    _check_shapes(e_s, e_t)
    _check_positions(e_s, positions)
    out = e_s.data.copy()
    for i in positions:
        out[i] = e_t.data[i]
    return TextEmbedding(data=out, semantic_len=e_s.semantic_len)


def soft_swap(e_s: TextEmbedding, e_t: TextEmbedding, positions,
              w: float) -> TextEmbedding:
    _check_shapes(e_s, e_t)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"weight {w} outside [0, 1]")
    _check_positions(e_s, positions)
    out = e_s.data.copy()
    for i in positions:
        out[i] = w * e_s.data[i] + (1.0 - w) * e_t.data[i]
    return TextEmbedding(data=out, semantic_len=e_s.semantic_len)


def mix_scale(e: TextEmbedding, j: int, c: float) -> TextEmbedding:
    if not 0 <= j < e.data.shape[0]:
        raise ValueError(f"position {j} out of range")
    out = e.data.copy()
    out[j] = c * out[j]
    return TextEmbedding(data=out, semantic_len=e.semantic_len)


def mix_style(e_s: TextEmbedding, e_t: TextEmbedding) -> TextEmbedding:
    """Semantic rows (BOS..EOS) from the source, padding rows from the
    target."""
    _check_shapes(e_s, e_t)
    cut = e_s.semantic_len
    out = np.concatenate([e_s.data[:cut], e_t.data[cut:]], axis=0)
    return TextEmbedding(data=out, semantic_len=e_s.semantic_len)


def zero_rows(e: TextEmbedding, i: int, j: int) -> TextEmbedding:
    """Rows i..j, inclusive, set to zero."""
    if not 0 <= i <= j < e.data.shape[0]:
        raise ValueError(f"rows {i}..{j} out of range")
    out = e.data.copy()
    out[i:j + 1] = 0.0
    return TextEmbedding(data=out, semantic_len=e.semantic_len)


def soft_mix(e_s: TextEmbedding, e_t: TextEmbedding, lam) -> TextEmbedding:
    _check_shapes(e_s, e_t)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (e_s.data.shape[0],):
        raise ValueError(f"lambda must have length {e_s.data.shape[0]}")
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("lambda entries must lie in [0, 1]")
    out = lam[:, None] * e_s.data + (1.0 - lam)[:, None] * e_t.data
    return TextEmbedding(data=out, semantic_len=e_s.semantic_len)


def run_edit(bundle: ModelBundle, source_text: str, target_text: str,
             edit, seeds) -> list:
    """One EditOutcome per seed: source and edit share x_T, then are scored.

    edit maps the (source, target) embeddings to the edited embedding and
    an AttnMask or None. The source and the edit run as the two blocks of
    one chain, so an edit that changes nothing reproduces the source
    bitwise.
    """
    e_s, e_t = bundle.embed([source_text, target_text])
    # a prompt without a class word fails here, before the chain runs
    bg = background_mask(bundle.world, bundle.class_of_text(source_text),
                         bundle.class_of_text(target_text))
    e_star, mask = edit(e_s, e_t)
    x_T = seed_noise(seeds)
    n = len(x_T)
    if mask is not None:
        # the source block attends to every row
        allowed = np.ones((2 * n, mask.allowed.shape[-1]), dtype=bool)
        allowed[n:] = mask.allowed
        mask = AttnMask(allowed)
    images = bundle.generate(np.stack([e_s.data, e_star.data]),
                             np.concatenate([x_T, x_T]), mask=mask)
    i_s, i_star = images[:n], images[n:]
    k, _ = oracle_classify(bundle.world, images)
    cls, style = k.tolist(), oracle_style(bundle.world, images, k).tolist()
    return [EditOutcome(
        i_s=i_s[i], i_star=i_star[i], class_src=cls[i], class_star=cls[n + i],
        style_src=style[i], style_star=style[n + i],
        background_l2=float(np.sqrt(np.sum((i_star[i] - i_s[i])[bg] ** 2))),
    ) for i in range(n)]
