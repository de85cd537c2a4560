import numpy as np
import pytest

from embedlab import toyworld as tw
from embedlab.rng import Rng


@pytest.fixture(scope="module")
def world():
    return tw.default_world()


def test_pattern_correlations_below_half(world):
    pats = [p.ravel() for _, p in world.classes]
    for i in range(len(pats)):
        for j in range(i + 1, len(pats)):
            corr = abs(pats[i] @ pats[j]) / (np.linalg.norm(pats[i])
                                             * np.linalg.norm(pats[j]))
            assert corr < 0.5


def test_render_clamped_and_prompted(world):
    s = tw.render(world, 0, 0.9, Rng(0))
    assert s.x0.shape == (tw.IMAGE_DIM,)
    assert np.all(s.x0 >= tw.CLAMP_LO) and np.all(s.x0 <= tw.CLAMP_HI)
    assert s.prompt == "a photo of hbar bright"
    assert tw.render(world, 1, 0.35, Rng(0)).prompt == "a photo of vbar dim"


def test_nearest_style_matches_min_rule_with_ties(world):
    """One tie rule serves render()'s prompt and training's prompt ids."""
    values = np.array([0.25, 0.75, 0.75, 1.0])
    four = tw.WorldSpec(classes=world.classes, noise_sigma=0.0,
                        style_words=tuple((f"w{j}", v)
                                          for j, v in enumerate(values)))
    style = np.concatenate([Rng(40).uniform(200) * 1.5 - 0.25,
                            [0.5, 0.75, 0.875, 0.25, 2.0, -1.0]])

    def rule(s):
        return min(range(len(values)), key=lambda j: abs(values[j] - s))
    expected = [rule(s) for s in style]
    assert expected[-6:-2] == [0, 1, 1, 0]   # the exact ties pick the lower
    assert four.nearest_style(style).tolist() == expected
    assert [int(four.nearest_style(s)) for s in style] == expected
    # render's prompt at the exact tie 0.5, between w0 and w1
    assert tw.render(four, 0, 0.5, Rng(0)).prompt == "a photo of hbar w0"
    # 0.7 is halfway between dim (0.4) and bright (1.0) only in decimal:
    # in binary it is nearer dim, by both rules
    assert world.nearest_style(0.7) == 0
    assert tw.render(world, 0, 0.7, Rng(0)).prompt == "a photo of hbar dim"


def test_render_rejects_bad_args(world):
    with pytest.raises(ValueError):
        tw.render(world, 99, 0.5, Rng(0))
    with pytest.raises(ValueError):
        tw.render(world, 0, 0.0, Rng(0))
    with pytest.raises(ValueError):
        tw.render(world, 0, 1.5, Rng(0))


def test_render_mean_monte_carlo(world):
    # fixed stream; the 3-sigma bound is applied per cell across 64 cells
    rng = Rng(12)
    n = 10_000
    acc = np.zeros(tw.IMAGE_DIM)
    for _ in range(n):
        acc += tw.render(world, 0, 0.7, rng).x0
    expect = 0.7 * world.pattern(0).ravel()
    assert np.max(np.abs(acc / n - expect)) < 3.0 * world.noise_sigma / np.sqrt(n)


def test_classify_monte_carlo(world):
    rng = Rng(12)
    hits = 0
    for _ in range(1000):
        x = 0.7 * world.pattern(1).ravel() + world.noise_sigma * rng.normal(64)
        hits += tw.oracle_classify(world, x)[0] == 1
    assert hits >= 999


def test_classify_tie_breaks_to_lowest_index(world):
    k, score = tw.oracle_classify(world, np.zeros(64))
    assert k == 0 and score == 0.0


def test_style_estimator_monte_carlo(world):
    rng = Rng(13)
    vals = [tw.oracle_style(world, tw.render(world, 0, 0.7, rng).x0, 0)
            for _ in range(10_000)]
    assert abs(np.mean(vals) - 0.7) < 0.01


def test_style_estimator_noise_free_exact(world):
    x = 0.55 * world.pattern(2).ravel()
    assert abs(tw.oracle_style(world, x, 2) - 0.55) < 1e-12


def test_background_mask_excludes_both_supports(world):
    bg = tw.background_mask(world, 0, 1)
    union = (world.pattern(0).ravel() > 0) | (world.pattern(1).ravel() > 0)
    assert not np.any(bg & union)
    assert np.all(bg | union)


def test_dataset_csv_roundtrip(tmp_path, world):
    rng = Rng(14)
    samples = [tw.render(world, k, 0.8, rng) for k in range(3)]
    path = tmp_path / "d.csv"
    tw.save_dataset_csv(path, samples)
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    assert raw.shape == (3, 2 + tw.IMAGE_DIM)
    for i, s in enumerate(samples):
        assert raw[i, 0] == s.class_index
        assert raw[i, 1] == s.style_value
        assert np.array_equal(raw[i, 2:], s.x0)


def test_pgm_format(tmp_path, world):
    path = tmp_path / "i.pgm"
    tw.save_pgm(path, world.pattern(0).ravel())
    lines = path.read_text().splitlines()
    assert lines[0] == "P2" and lines[1] == "8 8" and lines[2] == "255"
    assert len(lines) == 11
    vals = [int(v) for row in lines[3:] for v in row.split()]
    assert min(vals) == 0 and max(vals) == 255
