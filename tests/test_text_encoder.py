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
        assert np.array_equal(e1.data[:4], e2.data[:4])
        assert not np.array_equal(e1.data[4:], e2.data[4:])


def test_padding_information_witness(vocab):
    """With pad_mask off, PAD rows soak up the semantic change."""
    params = te.init_encoder_params(CFG, vocab.size, Rng(50))
    t1 = te.tokenize(vocab, "a photo of hbar dim", CFG.max_len)
    t2 = te.tokenize(vocab, "a photo of vbar dim", CFG.max_len)
    e1 = te.encode(params, CFG, t1, causal=True, pad_mask=False)
    e2 = te.encode(params, CFG, t2, causal=True, pad_mask=False)
    sem = t1.semantic_len
    dist = np.linalg.norm(e1.data[sem:] - e2.data[sem:], axis=1)
    assert dist.max() > 1e-6


def test_padding_isolation_with_pad_mask(vocab):
    """With pad_mask on, PAD token content cannot reach other rows."""
    params = te.init_encoder_params(CFG, vocab.size, Rng(51))
    t = te.tokenize(vocab, "a photo of hbar dim", CFG.max_len)
    base = te.encode(params, CFG, t, causal=False, pad_mask=True)
    params2 = {k: v.copy() for k, v in params.items()}
    params2["tok_emb"][te.PAD] += 5.0
    moved = te.encode(params2, CFG, t, causal=False, pad_mask=True)
    sem = t.semantic_len
    assert np.array_equal(base.data[:sem], moved.data[:sem])
    assert not np.array_equal(base.data[sem:], moved.data[sem:])


def test_noncausal_breaks_prefix_protection(vocab):
    for trial in range(20):
        params = te.init_encoder_params(CFG, vocab.size, Rng(100 + trial))
        e1 = te.encode(params, CFG,
                       te.tokenize(vocab, "a photo of hbar dim", CFG.max_len),
                       causal=False)
        e2 = te.encode(params, CFG,
                       te.tokenize(vocab, "a photo of hbar bright", CFG.max_len),
                       causal=False)
        assert not np.array_equal(e1.data[0], e2.data[0])


def test_bos_row_constancy(vocab):
    params = te.init_encoder_params(CFG, vocab.size, Rng(52))
    prompts = ["a photo of hbar dim", "a photo of cross bright", "diag dim"]
    rows = [te.encode(params, CFG,
                      te.tokenize(vocab, p, CFG.max_len)).data[0]
            for p in prompts]
    assert np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows[0], rows[2])


def test_encoder_gradients_match_finite_differences(vocab):
    cfg = te.EncoderConfig(max_len=6, dim=8, n_blocks=1, n_heads=2)
    params = te.init_encoder_params(cfg, vocab.size, Rng(60))
    ids = np.asarray([te.tokenize(vocab, "hbar dim", cfg.max_len).ids,
                      te.tokenize(vocab, "a photo of vbar", cfg.max_len).ids])
    target = Rng(61).normal((2, cfg.max_len, cfg.dim))

    def loss_of(p):
        out = te.encode_batch(p, cfg, ids)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, tape = te.encode_batch(params, cfg, ids, need_tape=True)
    grads = te.encode_backward(params, cfg, tape, out - target)
    h = 1e-5
    pick = Rng(62)
    for name, arr in params.items():
        for _ in range(4):
            idx = np.unravel_index(pick.randint(arr.size), arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss_of(params)
            arr[idx] = orig - h
            lm = loss_of(params)
            arr[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[name][idx]
            assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd)) + 1e-7, name
