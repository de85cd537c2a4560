import numpy as np
import pytest

from embedlab import denoiser as dn
from embedlab.pipeline import seed_noise
from embedlab.rng import Rng
from embedlab.toyworld import CLAMP_HI, CLAMP_LO


def test_seed_noise_deterministic():
    assert np.array_equal(seed_noise(5), seed_noise(5))
    assert not np.array_equal(seed_noise(5), seed_noise(6))
    assert seed_noise(0).shape == (64,)


def test_generate_deterministic(untrained_bundle):
    emb = untrained_bundle.embed("a photo of diag dim")
    x_T = seed_noise(2)
    a = untrained_bundle.generate(emb, x_T)
    b = untrained_bundle.generate(emb, x_T)
    assert np.array_equal(a, b)


def test_generate_batch_matches_single_closely(untrained_bundle):
    """Each row of a batched chain matches its own batch-1 run.

    Covers clipped DDIM, unclipped regeneration, DDPM with one rng per
    seed, per-row masks and per-row embeddings; rows agree to BLAS
    reassociation level.
    """
    b = untrained_bundle
    emb = b.embed("a photo of hbar bright")
    other = b.embed("a photo of cross dim")
    seeds = range(3)
    x_T = np.stack([seed_noise(s) for s in seeds])
    allowed = np.ones((3, 16), dtype=bool)
    allowed[1, 4:9] = False
    allowed[2, :6] = False
    stack = np.stack([emb.data, other.data, emb.data])
    cases = [
        (b.generate(emb, x_T),
         lambda i: b.generate(emb, x_T[i])),
        (b.regenerate(emb, x_T),
         lambda i: b.regenerate(emb, x_T[i])),
        (b.generate(emb, x_T, mode="ddpm",
                    rng=[Rng(s).split(1) for s in seeds]),
         lambda i: b.generate(emb, x_T[i], mode="ddpm",
                              rng=Rng(seeds[i]).split(1))),
        (b.generate(emb, x_T, mask=dn.AttnMask(allowed)),
         lambda i: b.generate(emb, x_T[i], mask=dn.AttnMask(allowed[i]))),
        (b.generate(stack, x_T),
         lambda i: b.generate(stack[i], x_T[i])),
    ]
    for batch, single in cases:
        assert batch.shape == x_T.shape
        for i in range(3):
            assert np.max(np.abs(batch[i] - single(i))) < 1e-9


def test_embed_and_tokens_consistent(untrained_bundle):
    e = untrained_bundle.embed("a photo of cross dim")
    t = untrained_bundle.tokens("a photo of cross dim")
    assert e.semantic_len == t.semantic_len
    assert e.data.shape == (16, 32)


def test_class_of_text(untrained_bundle):
    assert untrained_bundle.class_of_text("a photo of vbar dim") == 1
    with pytest.raises(ValueError):
        untrained_bundle.class_of_text("a photo of nothing")


def test_invert_shape(untrained_bundle):
    emb = untrained_bundle.embed("a photo of hbar dim")
    x0 = np.clip(seed_noise(1) * 0.1, CLAMP_LO, CLAMP_HI)
    x_T = untrained_bundle.invert(emb, x0)
    assert x_T.shape == (64,)
    assert np.all(np.isfinite(x_T))


def test_regenerate_retraces_inversion(untrained_bundle):
    # invert() solves each implicit step to a fixed point, so the unclamped
    # regeneration must retrace the original sample even for random weights
    emb = untrained_bundle.embed("a photo of vbar bright")
    x0 = np.clip(seed_noise(3) * 0.1, CLAMP_LO, CLAMP_HI)
    x_T = untrained_bundle.invert(emb, x0)
    rec = untrained_bundle.regenerate(emb, x_T)
    assert np.max(np.abs(rec - x0)) < 1e-8
