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
class EditRecipe:
    kind: str                       # swap | soft_swap | scale | style | mask
    positions: tuple = ()           # swap / soft_swap: 0-based rows
    weight: float = 0.5             # soft_swap: weight on the source row
    scale_pos: int = 0              # scale: 0-based row
    scale: float = 1.0              # scale
    mask_range: tuple = (0, 0)      # mask: inclusive 0-based (i, j)
    mask_mode: str = "exclude"      # exclude keys from attention, or "zero" rows

    def label(self) -> str:
        """Report label; it names rows 1-based, as the CLI flags do."""
        rows = ",".join(str(p + 1) for p in self.positions)
        if self.kind == "swap":
            return f"swap[{rows}]"
        if self.kind == "soft_swap":
            return f"soft_swap[{rows}:w={self.weight}]"
        if self.kind == "scale":
            return f"scale[{self.scale_pos + 1}x{self.scale}]"
        if self.kind == "mask":
            i, j = self.mask_range
            return f"mask[{i + 1}-{j + 1}:{self.mask_mode}]"
        return self.kind


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


def soft_mix(e_s: TextEmbedding, e_t: TextEmbedding, lam) -> TextEmbedding:
    _check_shapes(e_s, e_t)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (e_s.data.shape[0],):
        raise ValueError(f"lambda must have length {e_s.data.shape[0]}")
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("lambda entries must lie in [0, 1]")
    out = lam[:, None] * e_s.data + (1.0 - lam)[:, None] * e_t.data
    return TextEmbedding(data=out, semantic_len=e_s.semantic_len)


def apply_recipe(recipe: EditRecipe, e_s: TextEmbedding, e_t: TextEmbedding):
    """Resolve a recipe to (edited embedding, attention mask or None)."""
    if recipe.kind == "swap":
        return mix_swap(e_s, e_t, recipe.positions), None
    if recipe.kind == "soft_swap":
        return soft_swap(e_s, e_t, recipe.positions, recipe.weight), None
    if recipe.kind == "scale":
        return mix_scale(e_s, recipe.scale_pos, recipe.scale), None
    if recipe.kind == "style":
        return mix_style(e_s, e_t), None
    if recipe.kind == "mask":
        i, j = recipe.mask_range
        length = e_s.data.shape[0]
        if not (0 <= i <= j < length):
            raise ValueError(f"mask range {recipe.mask_range} out of bounds")
        if recipe.mask_mode == "exclude":
            allowed = np.ones(length, dtype=bool)
            allowed[i:j + 1] = False
            return e_s, AttnMask(allowed)
        if recipe.mask_mode == "zero":
            out = e_s.data.copy()
            out[i:j + 1] = 0.0
            return TextEmbedding(out, e_s.semantic_len), None
        raise ValueError(f"unknown mask mode {recipe.mask_mode!r}")
    raise ValueError(f"unknown recipe kind {recipe.kind!r}")


def run_edit(bundle: ModelBundle, source_text: str, target_text: str,
             recipe: EditRecipe, seeds) -> list:
    """One EditOutcome per seed: source and edit share x_T, then are scored.

    The source and the edit run as the two blocks of one chain, so an edit
    that changes nothing reproduces the source bitwise.
    """
    e_s, e_t = bundle.embed([source_text, target_text])
    e_star, mask = apply_recipe(recipe, e_s, e_t)
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
    bg = background_mask(bundle.world, bundle.class_of_text(source_text),
                         bundle.class_of_text(target_text))
    k, _ = oracle_classify(bundle.world, images)
    cls, style = k.tolist(), oracle_style(bundle.world, images, k).tolist()
    return [EditOutcome(
        i_s=i_s[i], i_star=i_star[i], class_src=cls[i], class_star=cls[n + i],
        style_src=style[i], style_star=style[n + i],
        background_l2=float(np.sqrt(np.sum((i_star[i] - i_s[i])[bg] ** 2))),
    ) for i in range(n)]
