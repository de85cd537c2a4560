"""Synthetic 8x8 image universe with a tiny prompt vocabulary.

Each class is a binary 8x8 pattern; a rendered sample is the pattern scaled
by a brightness value plus Gaussian pixel noise, clamped to [-0.2, 1.2].
Oracle functions measure class identity and brightness of arbitrary images,
so editing claims can be scored instead of eyeballed.
"""

import os
from dataclasses import dataclass

import numpy as np

from .rng import Rng

IMAGE_DIM = 64
CLAMP_LO, CLAMP_HI = -0.2, 1.2
# brightness interval of the data: training and gen-data draw styles from it
STYLE_LO, STYLE_HI = 0.3, 1.0


@dataclass(frozen=True)
class WorldSpec:
    classes: tuple          # (name, pattern 8x8 ndarray of 0/1) pairs
    style_words: tuple      # (name, brightness) pairs
    noise_sigma: float

    def class_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.classes):
            if n == name:
                return i
        raise ValueError(f"unknown class {name!r}")

    def pattern(self, k: int) -> np.ndarray:
        return self.classes[k][1]

    def nearest_style(self, style):
        """Index of the style word whose value is nearest each style (a
        scalar or an array); ties go to the lower index."""
        values = np.array([value for _, value in self.style_words])
        return np.argmin(np.abs(values - np.asarray(style)[..., None]),
                         axis=-1)


@dataclass(frozen=True)
class Sample:
    x0: np.ndarray          # flat length-64 image
    class_index: int
    style_value: float
    prompt: str


def _pattern(cells) -> np.ndarray:
    p = np.zeros((8, 8))
    for r, c in cells:
        p[r, c] = 1.0
    return p


def default_world() -> WorldSpec:
    hbar = _pattern([(r, c) for r in (3, 4) for c in range(8)])
    vbar = _pattern([(r, c) for r in range(8) for c in (3, 4)])
    # cross row/col chosen away from hbar/vbar so every pairwise
    # pattern correlation stays below 0.5
    cross = _pattern([(1, c) for c in range(8)] + [(r, 6) for r in range(8)])
    diag = _pattern(
        [(i, i) for i in range(8)] + [(i, i + 1) for i in range(7)]
    )
    world = WorldSpec(
        classes=(("hbar", hbar), ("vbar", vbar), ("cross", cross), ("diag", diag)),
        style_words=(("dim", 0.4), ("bright", 1.0)),
        noise_sigma=0.05,
    )
    _check_world(world)
    return world


def _check_world(world: WorldSpec) -> None:
    if len(world.classes) < 3 or len(world.style_words) < 2:
        raise ValueError("world needs >= 3 classes and >= 2 style words")
    pats = [p.ravel() for _, p in world.classes]
    for i in range(len(pats)):
        for j in range(i + 1, len(pats)):
            corr = abs(pats[i] @ pats[j]) / (
                np.sqrt(pats[i] @ pats[i]) * np.sqrt(pats[j] @ pats[j])
            )
            if corr >= 0.5:
                raise ValueError(
                    f"patterns {i} and {j} too correlated ({corr:.3f})"
                )


def draw_style(u):
    """The brightness of each uniform draw u in (0, 1), a scalar or an array."""
    return STYLE_LO + (STYLE_HI - STYLE_LO) * u


def render(world: WorldSpec, class_index: int, style_value: float, rng: Rng) -> Sample:
    if not 0 <= class_index < len(world.classes):
        raise ValueError(f"invalid class index {class_index}")
    if not 0.0 < style_value <= 1.0:
        raise ValueError(f"style value {style_value} outside (0, 1]")
    name, pattern = world.classes[class_index]
    x0 = style_value * pattern.ravel()
    if world.noise_sigma > 0.0:
        x0 = x0 + world.noise_sigma * rng.normal(IMAGE_DIM)
    x0 = np.clip(x0, CLAMP_LO, CLAMP_HI)
    style_word = world.style_words[world.nearest_style(style_value)][0]
    prompt = f"a photo of {name} {style_word}"
    return Sample(x0=x0, class_index=class_index, style_value=style_value, prompt=prompt)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., :] . b[..., :] over broadcast leading axes, bitwise the 1-D
    `a @ b` of each pair: matmul sends every 1x64 by 64x1 product to the
    same dot routine. (A gemm over the stack would reorder the sums.)"""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _patterns(world: WorldSpec) -> np.ndarray:
    return np.stack([p.ravel() for _, p in world.classes])


def oracle_classify(world: WorldSpec, x: np.ndarray):
    """Best-correlated class pattern; ties resolve to the lowest index.

    x is one image (64,), which gives (class, score) as (int, float), or a
    stack (N, 64), which gives an int array and a float array of N each.
    A zero image scores 0.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x)
    pats = _patterns(world)
    scores = _dot(rows[:, None, :], pats) / np.sqrt(_dot(pats, pats))
    best = np.argmax(scores, axis=1)  # argmax returns the first maximum
    norm = np.sqrt(_dot(rows, rows))
    score = np.divide(scores[np.arange(len(rows)), best], norm,
                      out=np.zeros(len(rows)), where=norm > 0.0)
    if x.ndim == 1:
        return int(best[0]), float(score[0])
    return best, score


def oracle_style(world: WorldSpec, x: np.ndarray, class_index):
    """Least-squares brightness of x against the class pattern.

    x is one image (64,), which gives a float, or a stack (N, 64), which
    gives N floats; class_index is one class or one per image.
    """
    k = np.asarray(class_index)
    if not np.all((0 <= k) & (k < len(world.classes))):
        raise ValueError(f"invalid class index {class_index}")
    b = _patterns(world)[k]
    x = np.asarray(x, dtype=np.float64)
    style = _dot(x, b) / _dot(b, b)
    return float(style) if style.ndim == 0 else style


def background_mask(world: WorldSpec, k1: int, k2: int) -> np.ndarray:
    """Cells outside the union of the two class patterns' supports."""
    support = (world.pattern(k1).ravel() > 0) | (world.pattern(k2).ravel() > 0)
    return ~support


def write_in_place(path, chunks) -> None:
    """Write the chunks (str, as UTF-8, or bytes-like) to path, over what it
    held before.

    The file is opened without O_TRUNC and cut at the written length
    afterwards. On ext4 (at its default auto_da_alloc), a non-empty file
    truncated to zero and written again starts writeback when it is
    closed. Rewriting a PGM of about 270 bytes on the ext4 root of a
    two-core VM took 64-87 us through open(path, "w") against 7-14 us in
    place (medians per file); ftruncate(0) before the write (44-60 us) and
    a temporary file renamed over the path (80-210 us) pay the same cost.
    A new file costs what it did.

    The trade-off: if the process dies mid-write, the file holds the new
    bytes over the old tail instead of a short file. Neither way syncs.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        for chunk in chunks:
            f.write(chunk.encode() if isinstance(chunk, str) else chunk)
        f.truncate()


def write_csv(path, header, rows) -> None:
    """Write the header's column names, then one line per row of fields.

    A float field (np.float64 included) prints as %.17g, which reads back
    as the same float; any other field prints as str().
    """
    def line(fields):
        return ",".join(["%.17g" % v if isinstance(v, float) else str(v)
                         for v in fields]) + "\n"
    write_in_place(path, [line(header)] + [line(row) for row in rows])


def save_pgm(path, x: np.ndarray) -> None:
    """8x8 image as ASCII PGM (P2), [0,1] mapped to 0..255 and clamped."""
    img = np.asarray(x, dtype=np.float64).reshape(8, 8)
    vals = np.clip(np.rint(img * 255.0), 0, 255).astype(int)
    lines = ["P2", "8 8", "255"]
    lines += [" ".join(str(v) for v in row) for row in vals]
    write_in_place(path, ["\n".join(lines) + "\n"])
