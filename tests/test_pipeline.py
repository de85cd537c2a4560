import os
import subprocess
import sys

import numpy as np
import pytest

import embedlab
from embedlab import denoiser as dn
from embedlab.pipeline import seed_noise
from embedlab.rng import Rng
from embedlab.toyworld import CLAMP_HI, CLAMP_LO


def test_seed_noise_deterministic():
    assert np.array_equal(seed_noise(5), seed_noise(5))
    assert not np.array_equal(seed_noise(5), seed_noise(6))
    assert seed_noise(0).shape == (64,)


def test_seed_noise_sequence_matches_per_seed_draws():
    """A sequence of seeds draws, bitwise, what each seed draws alone,
    masked to 64 bits as Rng masks a seed."""
    seeds = list(range(2000)) + [-1, -5, 2**63, 2**63 + 5, 2**64 - 1, 2**64 + 3]
    batch = seed_noise(seeds)
    assert batch.shape == (len(seeds), 64)
    for row, seed in zip(batch, seeds):
        assert np.array_equal(row, Rng(seed).split(0).normal(64))
    assert np.array_equal(seed_noise(range(3)), batch[:3])
    assert np.array_equal(seed_noise(-1), seed_noise(2**64 - 1))


def test_embed_list_matches_one_text_at_a_time(untrained_bundle):
    """One encode_batch call over several texts gives each text's own
    embedding bitwise: every ordered pair of training prompts, and all
    eight at once."""
    b = untrained_bundle
    prompts = [f"a photo of {c} {s}" for c in ("hbar", "vbar", "diag", "cross")
               for s in ("bright", "dim")]
    alone = {p: b.embed(p) for p in prompts}
    batches = [[p, q] for p in prompts for q in prompts] + [prompts]
    for texts in batches:
        embs = b.embed(texts)
        assert embs.shape == (len(texts), 16, 32)
        for text, emb in zip(texts, embs):
            assert np.array_equal(emb, alone[text]), texts


def test_generate_deterministic(untrained_bundle):
    emb = untrained_bundle.embed("a photo of diag dim")
    x_T = seed_noise(2)
    a = untrained_bundle.generate(emb, x_T)
    b = untrained_bundle.generate(emb, x_T)
    assert np.array_equal(a, b)


def test_generate_batch_matches_single_closely(untrained_bundle):
    """Each row of a batched chain matches its own batch-1 run.

    Covers clipped DDIM, unclipped regeneration, DDPM with one key per
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
    stack = np.stack([emb, other, emb])
    cases = [
        (b.generate(emb, x_T),
         lambda i: b.generate(emb, x_T[i])),
        (b.regenerate(emb, x_T),
         lambda i: b.regenerate(emb, x_T[i])),
        (b.generate(emb, x_T, mode="ddpm",
                    rng=Rng(seeds).split(1)),
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


def test_generate_vjp_is_generate_and_its_gradient(untrained_bundle):
    """The taped chain's image is generate()'s bitwise, and its reverse pass
    matches central differences of g . image along embedding directions."""
    b = untrained_bundle
    emb = b.embed("a photo of vbar dim")
    x_T = seed_noise(3)
    img, vjp = b.generate_vjp(emb, x_T)
    assert np.array_equal(img, b.generate(emb, x_T))
    rng = Rng(32)
    g = rng.normal(64)
    demb = vjp(g)
    assert np.array_equal(vjp(g), demb)
    h = 1e-5
    for _ in range(3):
        v = rng.normal(emb.shape)
        fd = (g @ b.generate(emb + h * v, x_T)
              - g @ b.generate(emb - h * v, x_T)) / (2 * h)
        assert abs(fd - np.sum(demb * v)) < 1e-6 * abs(fd)
    with pytest.raises(ValueError):
        b.generate_vjp(emb, x_T[None])


def test_embed_and_tokens_consistent(untrained_bundle):
    e = untrained_bundle.embed("a photo of cross dim")
    t = untrained_bundle.tokens("a photo of cross dim")
    assert e.shape == (len(t.ids), 32)


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


def test_batched_inversion_matches_single(untrained_bundle):
    """Each row of a (B, x_dim) inversion matches its batch-1 inversion:
    with one shared embedding, and with one embedding per image (G = B)."""
    b = untrained_bundle
    x0 = np.clip(np.stack([seed_noise(s) for s in range(3)]) * 0.1,
                 CLAMP_LO, CLAMP_HI)
    emb = b.embed("a photo of hbar dim")
    stack = np.stack([b.embed(p) for p in
                      ("a photo of hbar dim", "a photo of cross bright",
                       "a photo of vbar dim")])
    cases = [
        (b.invert(emb, x0), lambda i: b.invert(emb, x0[i])),
        (b.invert(stack, x0), lambda i: b.invert(stack[i], x0[i])),
    ]
    for batch, single in cases:
        assert batch.shape == x0.shape
        for i in range(3):
            assert np.max(np.abs(batch[i] - single(i))) < 1e-10, i


def test_regenerate_retraces_inversion(untrained_bundle):
    # invert() solves each implicit step to a fixed point, so the unclamped
    # regeneration must retrace the original sample even for random weights
    emb = untrained_bundle.embed("a photo of vbar bright")
    x0 = np.clip(seed_noise(3) * 0.1, CLAMP_LO, CLAMP_HI)
    x_T = untrained_bundle.invert(emb, x0)
    rec = untrained_bundle.regenerate(emb, x_T)
    assert np.max(np.abs(rec - x0)) < 1e-8


# one 470-row chain with a mask per row, the mask-sweep layout of 47 mask
# families x 10 seeds, then one chain of two stacked embeddings (G = 2)
# over 20 rows, unclamped; prints the sha256 of both outputs' bytes
CHAIN_SCRIPT = """
import hashlib
import numpy as np
from embedlab import denoiser as dn
from embedlab.pipeline import ModelBundle, seed_noise
from embedlab.rng import Rng
b = ModelBundle.untrained(Rng(99))
emb = b.embed("a photo of hbar bright")
x_T = np.tile(np.stack([seed_noise(s) for s in range(10)]), (47, 1))
allowed = np.ones((470, 16), dtype=bool)
for f in range(1, 47):
    allowed[10 * f:10 * f + 10, (5 * f) % 16] = False
swept = b.generate(emb, x_T, mask=dn.AttnMask(allowed))
pair = b.regenerate(np.stack([emb, b.embed("a photo of vbar dim")]),
                    x_T[:20])
print(hashlib.sha256(swept.tobytes() + pair.tobytes()).hexdigest())
"""


def test_chain_bytes_pinned():
    """A 470-row masked chain and a two-embedding chain write these exact
    bytes, at one and at two BLAS threads.

    The rows are above the size where each step's arrays would come back
    as fresh pages, so this pins the arithmetic of the chain's reused
    arrays; any change here is a change to the sampling arithmetic.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(embedlab.__file__)))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", CHAIN_SCRIPT], check=True,
                              capture_output=True, text=True, env=env,
                              timeout=300)
        digests.add(proc.stdout.strip())
    assert digests == {"a2023caa821e9784ceca450aea938eb2"
                       "10cc8a6924a15a8b9546a116e24063f2"}


def test_masked_chain_rows_match_short_chains(untrained_bundle):
    """Rows of one 470-row chain with per-row masks equal, bitwise, the
    same rows run as 47 chains of 10."""
    b = untrained_bundle
    emb = b.embed("a photo of cross bright")
    x_T = np.tile(np.stack([seed_noise(s) for s in range(10)]), (47, 1))
    allowed = np.ones((470, 16), dtype=bool)
    for f in range(1, 47):
        allowed[10 * f:10 * f + 10, f % 16] = False
        allowed[10 * f:10 * f + 10, (3 * f) % 16] = False
    full = b.generate(emb, x_T, mask=dn.AttnMask(allowed))
    for lo in range(0, 470, 10):
        part = b.generate(emb, x_T[lo:lo + 10],
                          mask=dn.AttnMask(allowed[lo:lo + 10]))
        assert np.array_equal(full[lo:lo + 10], part), lo


def test_chain_results_are_not_reused(untrained_bundle):
    """A later chain on the same bundle leaves earlier results as they were."""
    b = untrained_bundle
    emb = b.embed("a photo of diag bright")
    x_T = np.stack([seed_noise(s) for s in range(4)])
    first = b.generate(emb, x_T)
    kept = first.copy()
    b.generate(emb, x_T[::-1])
    b.generate(emb, x_T[0])
    assert np.array_equal(first, kept)
    x0 = np.clip(seed_noise(5) * 0.1, CLAMP_LO, CLAMP_HI)
    inv = b.invert(emb, x0)
    kept = inv.copy()
    b.invert(emb, x0[::-1].copy())
    b.generate(emb, inv)
    assert np.array_equal(inv, kept)
    assert not np.array_equal(x0, inv)
