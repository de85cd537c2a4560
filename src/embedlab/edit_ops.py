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
from .text_encoder import TokenSeq
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


def _check_shapes(e_s: np.ndarray, e_t: np.ndarray) -> None:
    if e_s.shape != e_t.shape:
        raise ValueError("embedding shapes differ")


def _check_positions(e: np.ndarray, positions) -> None:
    length = e.shape[0]
    bad = [i for i in positions if not 0 <= i < length]
    if bad:
        raise ValueError(f"positions {bad} out of range 0..{length - 1}")


def mix_swap(e_s: np.ndarray, e_t: np.ndarray, positions) -> np.ndarray:
    _check_shapes(e_s, e_t)
    _check_positions(e_s, positions)
    out = e_s.copy()
    for i in positions:
        out[i] = e_t[i]
    return out


def soft_swap(e_s: np.ndarray, e_t: np.ndarray, positions,
              w: float) -> np.ndarray:
    _check_shapes(e_s, e_t)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"weight {w} outside [0, 1]")
    _check_positions(e_s, positions)
    out = e_s.copy()
    for i in positions:
        out[i] = w * e_s[i] + (1.0 - w) * e_t[i]
    return out


def mix_scale(e: np.ndarray, j: int, c: float) -> np.ndarray:
    if not 0 <= j < e.shape[0]:
        raise ValueError(f"position {j} out of range")
    out = e.copy()
    out[j] = c * out[j]
    return out


def mix_style(e_s: np.ndarray, e_t: np.ndarray, cut: int) -> np.ndarray:
    """Semantic rows from the source, padding rows from the target; cut is
    the source's semantic length (its BOS..EOS rows)."""
    _check_shapes(e_s, e_t)
    if not 0 <= cut <= e_s.shape[0]:
        raise ValueError(f"cut {cut} out of range")
    return np.concatenate([e_s[:cut], e_t[cut:]], axis=0)


def zero_rows(e: np.ndarray, i: int, j: int) -> np.ndarray:
    """Rows i..j, inclusive, set to zero."""
    if not 0 <= i <= j < e.shape[0]:
        raise ValueError(f"rows {i}..{j} out of range")
    out = e.copy()
    out[i:j + 1] = 0.0
    return out


def soft_mix(e_s: np.ndarray, e_t: np.ndarray, lam) -> np.ndarray:
    _check_shapes(e_s, e_t)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (e_s.shape[0],):
        raise ValueError(f"lambda must have length {e_s.shape[0]}")
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("lambda entries must lie in [0, 1]")
    return lam[:, None] * e_s + (1.0 - lam)[:, None] * e_t


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
    images = bundle.generate(np.stack([e_s, e_star]),
                             np.concatenate([x_T, x_T]), mask=mask)
    i_s, i_star = images[:n], images[n:]
    k, _ = oracle_classify(bundle.world, images)
    cls, style = k.tolist(), oracle_style(bundle.world, images, k).tolist()
    return [EditOutcome(
        i_s=i_s[i], i_star=i_star[i], class_src=cls[i], class_star=cls[n + i],
        style_src=style[i], style_star=style[n + i],
        background_l2=float(np.sqrt(np.sum((i_star[i] - i_s[i])[bg] ** 2))),
    ) for i in range(n)]
