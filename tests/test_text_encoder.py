import numpy as np
import pytest

from embedlab import text_encoder as te
from embedlab.rng import Rng


@pytest.fixture(scope="module")
def vocab():
    return te.default_vocabulary()


CFG = te.EncoderConfig()


def test_tokenize_structure(vocab):
    t = te.tokenize(vocab, "a photo of hbar dim", CFG.max_len)
    assert t.ids[0] == te.BOS
    assert t.ids[t.semantic_len - 1] == te.EOS
    assert all(i == te.PAD for i in t.ids[t.semantic_len:])
    assert len(t.ids) == CFG.max_len
    assert t.semantic_len == 7


def test_tokenize_unknown_word(vocab):
    with pytest.raises(te.VocabularyError):
        te.tokenize(vocab, "a photo of cat", CFG.max_len)


def test_tokenize_too_long(vocab):
    with pytest.raises(ValueError):
        te.tokenize(vocab, "a " * 20, CFG.max_len)


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        te.Vocabulary(("a", "a"))


def test_causal_prefix_property(vocab):
    """Rows before the first differing token are bitwise equal."""
    for trial in range(10):
        params = te.init_encoder_params(CFG, vocab.size, Rng(trial))
        e1 = te.encode(params, CFG,
                       te.tokenize(vocab, "a photo of hbar dim", CFG.max_len))
        e2 = te.encode(params, CFG,
                       te.tokenize(vocab, "a photo of vbar dim", CFG.max_len))
        assert np.array_equal(e1[:4], e2[:4])
        assert not np.array_equal(e1[4:], e2[4:])


def test_padding_information_witness(vocab):
    """PAD rows are never masked, so they soak up the semantic change."""
    params = te.init_encoder_params(CFG, vocab.size, Rng(50))
    t1 = te.tokenize(vocab, "a photo of hbar dim", CFG.max_len)
    t2 = te.tokenize(vocab, "a photo of vbar dim", CFG.max_len)
    e1 = te.encode(params, CFG, t1, causal=True)
    e2 = te.encode(params, CFG, t2, causal=True)
    sem = t1.semantic_len
    dist = np.linalg.norm(e1[sem:] - e2[sem:], axis=1)
    assert dist.max() > 1e-6


def test_noncausal_breaks_prefix_protection(vocab):
    for trial in range(20):
        params = te.init_encoder_params(CFG, vocab.size, Rng(100 + trial))
        e1 = te.encode(params, CFG,
                       te.tokenize(vocab, "a photo of hbar dim", CFG.max_len),
                       causal=False)
        e2 = te.encode(params, CFG,
                       te.tokenize(vocab, "a photo of hbar bright", CFG.max_len),
                       causal=False)
        assert not np.array_equal(e1[0], e2[0])


def test_bos_row_constancy(vocab):
    params = te.init_encoder_params(CFG, vocab.size, Rng(52))
    prompts = ["a photo of hbar dim", "a photo of cross bright", "diag dim"]
    rows = [te.encode(params, CFG,
                      te.tokenize(vocab, p, CFG.max_len))[0]
            for p in prompts]
    assert np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows[0], rows[2])


def _layer_norm_textbook(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + te.LN_EPS)
    xhat = xc * inv
    return g * xhat + b, xhat, inv


def _layer_norm_backward_textbook(dy, xhat, inv, g):
    rows = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=rows)
    db = dy.sum(axis=rows)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dg, db


@pytest.mark.parametrize("shape", [(8, 16, 32), (3, 5, 7), (2, 16, 48),
                                   (1, 1, 4), (6, 9)])
def test_layer_norm_matches_textbook_bitwise(shape):
    """The layer norm's ufunc reductions and in-place updates give the
    bits of the ndarray.mean / .sum form, forward and backward."""
    r = Rng(70 + len(shape) + shape[-1])
    x = 3.0 * r.normal(shape) + 0.5
    g = 1.0 + 0.1 * r.normal(shape[-1])
    b = 0.1 * r.normal(shape[-1])
    dy = r.normal(shape)
    out, cache = te._layer_norm(x.copy(), g, b)
    want, xhat, inv = _layer_norm_textbook(x, g, b)
    assert np.array_equal(out, want)
    assert np.array_equal(cache[0], xhat) and np.array_equal(cache[1], inv)
    dg, db = np.empty_like(g), np.empty_like(b)
    dx = te._layer_norm_backward(dy.copy(), cache, dg, db)
    want_dx, want_dg, want_db = _layer_norm_backward_textbook(dy, xhat, inv, g)
    assert np.array_equal(dx, want_dx)
    assert np.array_equal(dg, want_dg) and np.array_equal(db, want_db)
