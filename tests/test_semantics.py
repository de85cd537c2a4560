import numpy as np
import pytest

from embedlab import cli
from embedlab import semantics as sm
from embedlab.linalg import svd
from embedlab.pipeline import seed_noise
from embedlab.rng import Rng
from embedlab.verify import RecordingBundle


@pytest.fixture()
def emb():
    return Rng(45).normal((6, 5))


def test_compress_right_norm_is_sigma(emb):
    f = svd(emb)
    for k in range(3):
        c = sm.compress(emb, "right", k)
        assert c.shape == (6,)
        assert abs(np.linalg.norm(c) - f.sigma[k]) < 1e-8


def test_compress_left_norm_is_sigma(emb):
    f = svd(emb)
    for k in range(3):
        c = sm.compress(emb, "left", k)
        assert c.shape == (5,)
        assert abs(np.linalg.norm(c) - f.sigma[k]) < 1e-8


def test_compress_validation(emb):
    with pytest.raises(ValueError):
        sm.compress(emb, "right", 99)
    with pytest.raises(ValueError):
        sm.compress(emb, "diagonal", 0)


def _swept_embeddings(emb, side, k, strengths):
    rec = RecordingBundle(emb)
    sm.direction_sweep(rec, "", side, k, strengths)
    return rec.generated


def test_left_shift_norm_identity(emb):
    """Along a left vector the shift repeats over the L rows, so its norm is
    |s| * sigma_k * sqrt(L / D)."""
    f = svd(emb)
    _, shifted = _swept_embeddings(emb, "left", 1, (0.5,))
    delta = np.linalg.norm(shifted[0] - emb)
    assert abs(delta - 0.5 * f.sigma[1] * np.sqrt(6 / 5)) < 1e-8


def test_zero_strength_is_identity(emb):
    """Strength 0 is the unshifted embedding: one generate() call, given emb."""
    generated = _swept_embeddings(emb, "right", 0, (0.0,))
    assert len(generated) == 1 and generated[0] is emb


@pytest.mark.parametrize("side", ["right", "left"])
def test_direction_sweep_images_are_generate_on_shifted(untrained_bundle,
                                                        side):
    """Each moved image is, bitwise, generate() on e + s / sqrt(D) * the
    compressed direction broadcast over e."""
    b = untrained_bundle
    strengths = (-1.0, 0.0, 0.5, 2.0)
    points = sm.direction_sweep(b, "a photo of cross dim", side, 2,
                                strengths=strengths, seed=3)
    e = b.embed("a photo of cross dim")
    f = svd(e)
    c = (e @ f.vt[2])[:, None] if side == "right" else (f.u[:, 2] @ e)[None, :]
    assert np.array_equal(sm.direction(e, side, 2), c)
    moved = [s for s in strengths if s != 0.0]
    want = b.generate(np.stack([e + s / np.sqrt(e.shape[1]) * c
                                for s in moved]),
                      np.tile(seed_noise(3), (len(moved), 1)))
    got = [p.image for p in points if p.strength != 0.0]
    assert np.array_equal(np.stack(got), want)


def test_direction_sweep_reuses_base_bitwise(untrained_bundle):
    points = sm.direction_sweep(untrained_bundle, "a photo of hbar bright",
                                "right", 0, strengths=(0.0, 0.5), seed=1)
    assert points[0].strength == 0.0
    assert points[0].delta_l2 == 0.0
    assert points[1].delta_l2 >= 0.0
    base = untrained_bundle.generate(
        untrained_bundle.embed("a photo of hbar bright"),
        __import__("embedlab.pipeline", fromlist=["seed_noise"]).seed_noise(1))
    assert np.array_equal(points[0].image, base)


def test_sweep_csv_roundtrip(tmp_path, ckpt, untrained_bundle):
    """svd-dirs' sweep.csv holds every point of the sweep, exactly."""
    assert cli.main(["svd-dirs", "--ckpt", ckpt, "--out", str(tmp_path),
                     "--side", "right", "--k", "0"]) == 0
    points = sm.direction_sweep(untrained_bundle, "a photo of hbar bright",
                                "right", 0, seed=0)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "side,k,s,class,style,delta_l2"
    assert len(lines) == 1 + len(points)
    for line, p in zip(lines[1:], points):
        f = line.split(",")
        assert f[:2] == ["right", "0"] and int(f[3]) == p.class_index
        assert ([float(f[2]), float(f[4]), float(f[5])]
                == [p.strength, p.style, p.delta_l2])
