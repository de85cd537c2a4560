"""Synthetic 8x8 image universe with a tiny prompt vocabulary.

Each class is a binary 8x8 pattern; a rendered sample is the pattern scaled
by a brightness value plus Gaussian pixel noise, clamped to [-0.2, 1.2].
Oracle functions measure class identity and brightness of arbitrary images,
so editing claims can be scored instead of eyeballed.
"""

from dataclasses import dataclass

import numpy as np

from .rng import Rng

IMAGE_DIM = 64
CLAMP_LO, CLAMP_HI = -0.2, 1.2


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


def oracle_classify(world: WorldSpec, x: np.ndarray):
    """Best-correlated class pattern; ties resolve to the lowest index."""
    x = np.asarray(x, dtype=np.float64).ravel()
    scores = []
    for _, pattern in world.classes:
        b = pattern.ravel()
        scores.append((x @ b) / np.sqrt(b @ b))
    best = int(np.argmax(scores))  # argmax returns the first maximum
    norm = float(np.sqrt(x @ x))
    score = scores[best] / norm if norm > 0.0 else 0.0
    return best, float(score)


def oracle_style(world: WorldSpec, x: np.ndarray, class_index: int) -> float:
    """Least-squares brightness of x against the class pattern."""
    if not 0 <= class_index < len(world.classes):
        raise ValueError(f"invalid class index {class_index}")
    b = world.pattern(class_index).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    return float((x @ b) / (b @ b))


def background_mask(world: WorldSpec, k1: int, k2: int) -> np.ndarray:
    """Cells outside the union of the two class patterns' supports."""
    support = (world.pattern(k1).ravel() > 0) | (world.pattern(k2).ravel() > 0)
    return ~support


def save_dataset_csv(path, samples) -> None:
    with open(path, "w", encoding="utf-8") as f:
        cols = ",".join(f"x0_{i}" for i in range(IMAGE_DIM))
        f.write(f"class,style,{cols}\n")
        for s in samples:
            pixels = ",".join(f"{v:.17g}" for v in s.x0)
            f.write(f"{s.class_index},{s.style_value:.17g},{pixels}\n")


def save_pgm(path, x: np.ndarray) -> None:
    """8x8 image as ASCII PGM (P2), [0,1] mapped to 0..255 and clamped."""
    img = np.asarray(x, dtype=np.float64).reshape(8, 8)
    vals = np.clip(np.rint(img * 255.0), 0, 255).astype(int)
    lines = ["P2", "8 8", "255"]
    lines += [" ".join(str(v) for v in row) for row in vals]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
