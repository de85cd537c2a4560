import numpy as np
import pytest

from embedlab import cli
from embedlab import toyworld as tw
from embedlab.rng import Rng


@pytest.fixture(scope="module")
def world():
    return tw.default_world()


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


def _classify_one(world, x):
    """The per-image oracle_classify that the batch path must reproduce."""
    x = np.asarray(x, dtype=np.float64).ravel()
    scores = []
    for _, pattern in world.classes:
        b = pattern.ravel()
        scores.append((x @ b) / np.sqrt(b @ b))
    best = int(np.argmax(scores))
    norm = float(np.sqrt(x @ x))
    score = scores[best] / norm if norm > 0.0 else 0.0
    return best, float(score)


def _style_one(world, x, k):
    b = world.pattern(k).ravel()
    return float((np.asarray(x, dtype=np.float64).ravel() @ b) / (b @ b))


def _oracle_images(world):
    """Rendered images, random ones from 1e-3 to 1e3 in magnitude, the zero
    image and a tie between classes 0 and 1, as one (N, 64) stack."""
    rng = Rng(15)
    rendered = [tw.render(world, k, s, rng).x0 for k in range(4)
                for s in (0.1, 0.4, 0.7, 1.0)]
    mags = 10.0 ** (6.0 * rng.uniform(2000) - 3.0)
    random = mags[:, None] * rng.normal((2000, tw.IMAGE_DIM))
    tie = world.pattern(0).ravel() + world.pattern(1).ravel()
    return np.vstack([rendered, random, np.zeros((1, tw.IMAGE_DIM)), tie])


def test_batch_oracles_match_per_image_bitwise(world):
    x = _oracle_images(world)
    k, score = tw.oracle_classify(world, x)
    style = tw.oracle_style(world, x, k)
    assert k.shape == score.shape == style.shape == (len(x),)
    for i, img in enumerate(x):
        k_ref, score_ref = _classify_one(world, img)
        assert (int(k[i]), float(score[i])) == (k_ref, score_ref), i
        assert float(style[i]) == _style_one(world, img, k_ref), i
        # one image gives Python scalars, bitwise the stack's row
        one = tw.oracle_classify(world, img)
        assert one == (k_ref, score_ref)
        assert type(one[0]) is int and type(one[1]) is float
        assert tw.oracle_style(world, img, k_ref) == float(style[i])
    # the zero image scores 0 and the tie goes to the lower index
    assert (k[-2], score[-2]) == (0, 0.0)
    p0, p1 = world.pattern(0).ravel(), world.pattern(1).ravel()
    assert x[-1] @ p0 / np.sqrt(p0 @ p0) == x[-1] @ p1 / np.sqrt(p1 @ p1)
    assert k[-1] == 0


def test_batch_style_takes_one_class_for_every_image(world):
    x = _oracle_images(world)[:40]
    for c in range(len(world.classes)):
        style = tw.oracle_style(world, x, c)
        assert style.tolist() == [_style_one(world, img, c) for img in x]


def test_style_rejects_invalid_class(world):
    x = np.ones((3, tw.IMAGE_DIM))
    for bad in (-1, len(world.classes)):
        with pytest.raises(ValueError, match="invalid class index"):
            tw.oracle_style(world, x[0], bad)
        with pytest.raises(ValueError, match="invalid class index"):
            tw.oracle_style(world, x, np.array([0, bad, 1]))


def test_write_in_place_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"x" * 5000)
    inode = path.stat().st_ino
    tw.write_in_place(path, ["short\n", b"tail"])
    assert path.read_bytes() == b"short\ntail"
    assert path.stat().st_ino == inode
    # a new file gets the mode open(path, "w") gives it
    tw.write_in_place(tmp_path / "new.txt", ["a"])
    with open(tmp_path / "ref.txt", "w"):
        pass
    assert (tmp_path / "new.txt").read_bytes() == b"a"
    assert ((tmp_path / "new.txt").stat().st_mode
            == (tmp_path / "ref.txt").stat().st_mode)


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


def test_write_csv_fields_read_back_exactly(tmp_path):
    row = (0.1, 1 / 3, 1e-300, -2.5e300, np.float64(2.0) / 3, 7, "swap[5]")
    header = ["z", "a", "tiny", "huge", "f64", "int", "label"]
    path = tmp_path / "r.csv"
    path.write_text("x" * 500)   # rewritten, not appended to
    tw.write_csv(path, header, [row, row[::-1]])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(header)
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert [float(f) for f in fields[:5]] == list(row[:5])
    # floats, np.float64 too, print as %.17g, not as their shortest repr
    assert fields[0] == "0.10000000000000001"
    assert fields[4] == "0.66666666666666663"
    assert int(fields[5]) == 7 and fields[6] == "swap[5]"
    assert lines[2].split(",") == fields[::-1]


def test_pgm_format(tmp_path, world):
    path = tmp_path / "i.pgm"
    tw.save_pgm(path, world.pattern(0).ravel())
    lines = path.read_text().splitlines()
    assert lines[0] == "P2" and lines[1] == "8 8" and lines[2] == "255"
    assert len(lines) == 11
    vals = [int(v) for row in lines[3:] for v in row.split()]
    assert min(vals) == 0 and max(vals) == 255


def test_dataset_csv_roundtrip(tmp_path, world):
    """gen-data's dataset.csv holds the samples its seed draws, exactly."""
    assert cli.main(["gen-data", "--out", str(tmp_path), "--n", "3"]) == 0
    path = tmp_path / "dataset.csv"
    header = path.read_text().splitlines()[0]
    assert header == ",".join(["class", "style"]
                              + [f"x0_{i}" for i in range(tw.IMAGE_DIM)])
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    assert raw.shape == (3, 2 + tw.IMAGE_DIM)
    rng = Rng(0).split(0)
    for row in raw:
        k = rng.randint(len(world.classes))
        s = tw.render(world, k, tw.draw_style(rng.uniform()), rng)
        assert row[0] == s.class_index
        assert row[1] == s.style_value
        assert np.array_equal(row[2:], s.x0)
