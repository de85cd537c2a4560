import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import embedlab
from embedlab import denoiser as dn
from embedlab import text_encoder as te
from embedlab import toyworld as tw
from embedlab import verify as vf
from embedlab.diffusion import MAX_T, make_schedule
from embedlab.pipeline import ModelBundle
from embedlab.rng import Rng

SMALL_CFG = dn.DenoiserConfig(x_dim=6, d_h=5, d_a=4, t_feat=4,
                              emb_dim=3, max_len=4)


def test_time_features_shape_and_values():
    f = dn.time_features(np.array([0.0, 3.0]), 8)
    assert f.shape == (2, 8)
    assert np.allclose(f[0], [0, 0, 0, 0, 1, 1, 1, 1])


def test_masking_equals_row_slicing():
    """Excluding keys by mask equals removing those rows entirely."""
    rng = Rng(31)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    x = rng.normal(6)
    emb = rng.normal((4, 3))
    allowed = np.array([True, False, True, False])
    masked = vf.predict_eps(params, SMALL_CFG, x, 5, emb, dn.AttnMask(allowed))
    cfg2 = dn.DenoiserConfig(x_dim=6, d_h=5, d_a=4, t_feat=4,
                             emb_dim=3, max_len=2)
    sliced = vf.predict_eps(params, cfg2, x, 5, emb[allowed],
                            dn.AttnMask(np.array([True, True])))
    assert np.max(np.abs(masked - sliced)) < 1e-12


def test_masking_a_zero_row_differs_from_including_it():
    """Masking is not zeroing: a zero embedding row contributes zero value
    but still receives nonzero softmax weight when included."""
    rng = Rng(38)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    x = rng.normal(6)
    emb = rng.normal((4, 3))
    emb[2] = 0.0
    all_true = vf.predict_eps(params, SMALL_CFG, x, 5, emb,
                              dn.AttnMask(np.array([True] * 4)))
    excluded = vf.predict_eps(params, SMALL_CFG, x, 5, emb,
                              dn.AttnMask(np.array([True, True, False, True])))
    assert np.max(np.abs(all_true - excluded)) > 1e-9


def test_permuting_equal_rows_leaves_output_unchanged():
    rng = Rng(39)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    x = rng.normal(6)
    emb = rng.normal((4, 3))
    emb[3] = emb[1]
    base = vf.predict_eps(params, SMALL_CFG, x, 2, emb)
    perm = vf.predict_eps(params, SMALL_CFG, x, 2, emb[[0, 3, 2, 1]])
    assert np.max(np.abs(base - perm)) < 1e-12


def test_zero_residual_gives_zero_gradients():
    """With eps_true equal to the prediction the L1 subgradient (sign(0)=0)
    vanishes for every parameter."""
    vocab = te.default_vocabulary()
    enc_cfg = te.EncoderConfig(max_len=8, dim=8, n_blocks=1, n_heads=2)
    cfg = dn.DenoiserConfig(x_dim=6, d_h=8, d_a=4, t_feat=4,
                            emb_dim=8, max_len=8)
    enc_params = te.init_encoder_params(enc_cfg, vocab.size, Rng(40))
    den_params = dn.init_denoiser_params(cfg, Rng(41))
    rng = Rng(42)
    tok = np.asarray([te.tokenize(vocab, "a photo of hbar dim", 8).ids])
    batch = dn.Batch(x_t=rng.normal((2, 6)), eps_true=np.zeros((2, 6)),
                     token_matrix=tok, allowed=np.ones((2, 8), dtype=bool),
                     row_src=np.zeros((2, 8), dtype=np.int64),
                     tf=dn.time_features(np.array([3.0, 9.0]), cfg.t_feat))
    emb = te.encode_batch(enc_params, enc_cfg, tok)[[0, 0]]
    batch.eps_true = dn.forward_batch(den_params, cfg, batch.x_t, batch.tf,
                                      emb, batch.allowed,
                                      unit=dn._unit_rows(emb))
    loss, enc_g, den_g = dn.loss_and_grads(enc_params, den_params,
                                           enc_cfg, cfg, batch)
    assert loss == 0.0
    for g in list(enc_g.values()) + list(den_g.values()):
        assert np.all(g == 0.0)


def test_duplicated_batch_keeps_mean_gradients():
    vocab = te.default_vocabulary()
    enc_cfg = te.EncoderConfig(max_len=8, dim=8, n_blocks=1, n_heads=2)
    cfg = dn.DenoiserConfig(x_dim=6, d_h=8, d_a=4, t_feat=4,
                            emb_dim=8, max_len=8)
    enc_params = te.init_encoder_params(enc_cfg, vocab.size, Rng(43))
    den_params = dn.init_denoiser_params(cfg, Rng(44))
    rng = Rng(45)
    tok = np.asarray([te.tokenize(vocab, "a photo of vbar bright", 8).ids])
    x_t = rng.normal((2, 6))
    tf = dn.time_features(np.array([5.0, 11.0]), cfg.t_feat)
    eps = rng.normal((2, 6))
    allowed = np.ones((2, 8), dtype=bool)
    row_src = np.zeros((2, 8), dtype=np.int64)
    single = dn.Batch(x_t=x_t, eps_true=eps, token_matrix=tok,
                      allowed=allowed, row_src=row_src, tf=tf)
    double = dn.Batch(x_t=np.tile(x_t, (2, 1)), eps_true=np.tile(eps, (2, 1)),
                      token_matrix=tok, allowed=np.tile(allowed, (2, 1)),
                      row_src=np.tile(row_src, (2, 1)), tf=np.tile(tf, (2, 1)))
    l1, eg1, dg1 = dn.loss_and_grads(enc_params, den_params, enc_cfg,
                                     cfg, single)
    l2, eg2, dg2 = dn.loss_and_grads(enc_params, den_params, enc_cfg,
                                     cfg, double)
    assert abs(l1 - l2) < 1e-14
    for k in eg1:
        assert np.max(np.abs(eg1[k] - eg2[k])) < 1e-14, k
    for k in dg1:
        assert np.max(np.abs(dg1[k] - dg2[k])) < 1e-14, k


def test_row_scale_scales_value_contribution_linearly():
    """With unit-normalized keys, scaling one conditioning row changes only
    that row's value contribution; attention weights stay fixed."""
    rng = Rng(46)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    x = rng.normal(6)
    emb = rng.normal((4, 3))
    base = vf.predict_eps(params, SMALL_CFG, x, 3, emb)
    scaled = emb.copy()
    scaled[1] *= 2.5
    out = vf.predict_eps(params, SMALL_CFG, x, 3, scaled)
    # the context change equals (2.5 - 1) * w_1 * (emb_1 @ wv) pushed through
    # the (here inactive-ReLU-free) tail only if no ReLU flips; instead just
    # assert attention weights are identical by reconstructing them
    for e in (emb, scaled):
        _, tape = dn.forward_batch(params, SMALL_CFG, x[None],
                                   dn.time_features(np.array([3.0]), 4),
                                   e[None], np.ones((1, 4), dtype=bool),
                                   need_tape=True, unit=dn._unit_rows(e[None]))
        if e is emb:
            w_base = tape["w"]
        else:
            assert np.max(np.abs(tape["w"] - w_base)) < 1e-12
    assert np.max(np.abs(out - base)) > 0.0


@pytest.mark.parametrize("batch", [1, 4, 5])
def test_shared_conditioning_matches_per_row(batch):
    """The folded branch of attend() agrees with the per-row branch that
    training runs, for one shared embedding (G = 1), a stack of G = 2 and
    one embedding per row (G = B), each row given its block's embedding."""
    cfg = dn.DenoiserConfig(x_dim=6, d_h=16, d_a=8, t_feat=4,
                            emb_dim=5, max_len=7)
    rng = Rng(47 + batch)
    params = {k: 0.5 * rng.normal(shape)
              for k, shape in dn.denoiser_param_shapes(cfg).items()}
    x = rng.normal((batch, 6))
    t = rng.randint(100, batch) + 1
    t_proj = dn.time_features(t, 4) @ params["w_t"]
    one = rng.uniform(7) < 0.5
    one[3] = True
    per_row = rng.uniform((batch, 7)) < 0.5
    per_row[np.arange(batch), rng.randint(7, batch)] = True
    for groups in sorted({1, 2, batch}):
        scale = 1.0 + rng.uniform((groups, 7))
        embs = rng.normal((groups, 7, 5)) * scale[..., None]
        if batch % groups:
            with pytest.raises(ValueError):
                dn.attend(params, cfg, x, t_proj, dn.condition(params, cfg, embs))
            continue
        cond = dn.condition(params, cfg, embs[0] if groups == 1 else embs)
        rows = np.repeat(embs, batch // groups, axis=0)
        for allowed in (None, one, per_row):
            got = dn.attend(params, cfg, x, t_proj, cond,
                            None if allowed is None else ~allowed)
            ref = dn.forward_batch(
                params, cfg, x, dn.time_features(t, 4), rows,
                np.broadcast_to(True if allowed is None else allowed, (batch, 7)),
                unit=dn._unit_rows(rows))
            assert np.max(np.abs(got - ref)) < 1e-12
    # a folded step's tape is what attend_reverse reads
    eps, tape = dn.attend(params, cfg, x, t_proj, cond, need_tape=True)
    assert np.array_equal(eps, dn.attend(params, cfg, x, t_proj, cond))
    assert sorted(tape) == ["h", "m", "w"]


def _folded_setup(seed):
    """Small denoiser weights large enough that the ReLUs and the softmax
    matter, one embedding's conditioning and one row x."""
    cfg = dn.DenoiserConfig(x_dim=6, d_h=16, d_a=8, t_feat=4,
                            emb_dim=5, max_len=7)
    rng = Rng(seed)
    params = {k: 0.5 * rng.normal(shape)
              for k, shape in dn.denoiser_param_shapes(cfg).items()}
    emb = rng.normal((7, 5)) * (1.0 + rng.uniform((7, 1)))
    t_proj = dn.time_features(np.array(30), 4) @ params["w_t"]
    return cfg, params, emb, rng.normal(6), t_proj, rng


def test_attend_reverse_matches_finite_differences():
    """The reverse of one folded step of one row, in x and in (qk, vo),
    against central differences of L = c . eps."""
    cfg, params, emb, x, t_proj, rng = _folded_setup(80)
    cond = dn.condition(params, cfg, emb)
    c = rng.normal(6)
    eps, tape = dn.attend(params, cfg, x, t_proj, cond, need_tape=True)
    dh2, ds = np.empty(16), np.empty(7)
    dx = dn.attend_reverse(params, cond, tape["h"], tape["w"].ravel(),
                           tape["m"], c, dh2, ds)
    dqk = np.outer(tape["h"], ds)
    dvo = np.outer(tape["w"].ravel(), dh2)

    def loss(x_, qk, vo):
        return c @ dn.attend(params, cfg, x_, t_proj, {"qk": qk, "vo": vo})

    h = 1e-6
    qk, vo = cond["qk"], cond["vo"]
    for grad, move in ((dx, lambda v: (x + v, qk, vo)),
                       (dqk, lambda v: (x, qk + v[None], vo)),
                       (dvo, lambda v: (x, qk, vo + v[None]))):
        for _ in range(4):
            v = rng.normal(grad.shape)
            fd = (loss(*move(h * v)) - loss(*move(-h * v))) / (2 * h)
            assert abs(fd - np.sum(grad * v)) < 1e-7 * max(abs(fd), 1.0)
    # a blocked key gets no attention, so no gradient either
    blocked = np.zeros(7, dtype=bool)
    blocked[2] = True
    _, tape = dn.attend(params, cfg, x, t_proj, cond, blocked, need_tape=True)
    dn.attend_reverse(params, cond, tape["h"], tape["w"].ravel(), tape["m"],
                      c, dh2, ds)
    assert ds[2] == 0.0


def test_condition_reverse_matches_finite_differences():
    """dL/demb for L = sum(A * qk) + sum(B * vo), through the unit rows,
    against central differences."""
    cfg, params, emb, _, _, rng = _folded_setup(81)
    a = rng.normal((16, 7))
    b = rng.normal((7, 16))

    def loss(e):
        cond = dn.condition(params, cfg, e)
        return np.sum(a * cond["qk"][0]) + np.sum(b * cond["vo"][0])

    demb = dn.condition_reverse(params, cfg, emb, a, b)
    h = 1e-6
    for _ in range(6):
        v = rng.normal(emb.shape)
        fd = (loss(emb + h * v) - loss(emb - h * v)) / (2 * h)
        assert abs(fd - np.sum(demb * v)) < 1e-7 * max(abs(fd), 1.0)


def test_loss_and_grads_reuses_work_across_batch_sizes():
    """One work dict over batches of 64, 8 and 64 rows gives, bitwise, the
    loss and gradients of fresh calls."""
    rng = Rng(60)
    b = ModelBundle.untrained(rng)
    model = (b.enc_params, b.den_params, b.enc_cfg, b.den_cfg)
    _, tokens = dn.training_prompts(b.world, b.vocab, b.enc_cfg.max_len)
    work = {}
    for i, bsz in enumerate((64, 8, 64)):
        r = rng.split(2 + i)
        allowed = r.uniform((bsz, 16)) < 0.7
        allowed[:, 0] = True
        x_t = r.normal((bsz, 64))
        tf = dn.time_features(r.randint(100, bsz) + 1, b.den_cfg.t_feat)
        batch = dn.Batch(x_t=x_t, eps_true=r.normal((bsz, 64)),
                         token_matrix=tokens, allowed=allowed,
                         row_src=r.randint(len(tokens), (bsz, 16)), tf=tf)
        got = dn.loss_and_grads(*model, batch, work=work)
        ref = dn.loss_and_grads(*model, batch)
        assert got[0] == ref[0]
        for g, want in zip(got[1:], ref[1:]):
            for k in want:
                assert np.array_equal(g[k], want[k]), (bsz, k)


def test_split_checkpoint_checks_shapes_against_meta():
    rng = Rng(38)
    enc_cfg = te.EncoderConfig(max_len=8, dim=8, n_blocks=1, n_heads=2)
    cfg = dn.DenoiserConfig(d_h=8, d_a=4, t_feat=4, emb_dim=8, max_len=8)
    good = dn.checkpoint_tensors(te.init_encoder_params(enc_cfg, 12, rng),
                                 dn.init_denoiser_params(cfg, rng),
                                 enc_cfg, cfg, make_schedule(10, 1e-3, 0.2))
    assert dn.split_checkpoint(good)[2:4] == (enc_cfg, cfg)

    def tampered(name, value):
        t = dict(good)
        if value is None:
            del t[name]
        else:
            t[name] = np.asarray(value, dtype=np.float64)
        return t
    cases = {
        "meta.den_cfg": tampered("meta.den_cfg", [64, 8, 2, 4, 8, 8]),
        "head count 0": tampered("meta.enc_cfg", [8, 8, 1, 0]),
        "head count 3": tampered("meta.enc_cfg", [8, 8, 1, 3]),
        "n_blocks 10**9": tampered("meta.enc_cfg", [8, 8, 1e9, 2]),
        "non-integer": tampered("meta.den_cfg", [64, 8, 4.5, 4, 8, 8]),
        "emb_dim": tampered("meta.den_cfg", [64, 8, 4, 4, 6, 8]),
        "missing": tampered("den.wo", None),
        "extra": tampered("den.extra", np.zeros(2)),
        "shape": tampered("enc.pos_emb", np.zeros((9, 8))),
    }
    for case, tensors in cases.items():
        with pytest.raises(dn.CheckpointError):
            dn.split_checkpoint(tensors)
            pytest.fail(case)
    for schedule in ([2.5, 1e-3, 0.2], [3.9, 1e-3, 0.2], [0, 1e-3, 0.2],
                     [10, 0.2, 1e-3],
                     [MAX_T + 1, 1e-3, 0.2]):   # make_schedule rejects each
        with pytest.raises(dn.CheckpointError, match="'meta.schedule'"):
            dn.split_checkpoint(tampered("meta.schedule", schedule))


def test_all_masked_rejected():
    rng = Rng(32)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    with pytest.raises(ValueError):
        vf.predict_eps(params, SMALL_CFG, rng.normal(6), 1, rng.normal((4, 3)),
                       dn.AttnMask(np.zeros(4, dtype=bool)))


def test_checkpoint_roundtrip(tmp_path):
    """A checkpoint holds the tensors, configs and schedule it was saved
    from, and a bundle loaded and saved again writes the bytes it was
    loaded from, untrained and after a short training run."""
    b = ModelBundle.untrained(Rng(36))
    tensors = dn.checkpoint_tensors(b.enc_params, b.den_params, b.enc_cfg,
                                    b.den_cfg, b.sched)
    path = tmp_path / "m.ckpt"
    b.save(path)
    loaded = dn.load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
    _, _, enc_cfg, den_cfg, sched = dn.split_checkpoint(loaded)
    assert (enc_cfg, den_cfg) == (b.enc_cfg, b.den_cfg)
    for name, value in vars(b.sched).items():   # spec and every array
        assert np.array_equal(getattr(sched, name), value), name
    enc_params, den_params, _ = dn.train(b.world, b.vocab, b.sched, b.enc_cfg,
                                         b.den_cfg, dn.TrainConfig(steps=5))
    trained = dataclasses.replace(b, enc_params=enc_params,
                                  den_params=den_params)
    for i, bundle in enumerate((b, trained)):
        first, again = tmp_path / f"{i}.ckpt", tmp_path / f"{i}-again.ckpt"
        bundle.save(first)
        ModelBundle.load(first).save(again)
        assert again.read_bytes() == first.read_bytes(), i


def test_checkpoint_saved_over_a_longer_file(tmp_path):
    """Saving cuts the file at the new checkpoint's end: a tail left from
    the longer file would fail the load's trailing-bytes check."""
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([0.5])}
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"\xff" * 4096)
    dn.save_checkpoint(path, tensors)
    loaded = dn.load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_checkpoint_loads_share_no_memory(tmp_path):
    """Each load fills its own buffer; the parameters it hands out are
    writable views of it, and writing one leaves another load alone."""
    rng = Rng(40)
    enc_cfg = te.EncoderConfig(max_len=8, dim=8, n_blocks=1, n_heads=2)
    cfg = dn.DenoiserConfig(d_h=8, d_a=4, t_feat=4, emb_dim=8, max_len=8)
    tensors = dn.checkpoint_tensors(te.init_encoder_params(enc_cfg, 12, rng),
                                    dn.init_denoiser_params(cfg, rng),
                                    enc_cfg, cfg, make_schedule(10, 1e-3, 0.2))
    path = tmp_path / "m.ckpt"
    dn.save_checkpoint(path, tensors)
    first, second = dn.load_checkpoint(path), dn.load_checkpoint(path)
    for name in tensors:
        assert not np.may_share_memory(first[name], second[name]), name
        assert first[name].flags.writeable, name
    enc_params, den_params = dn.split_checkpoint(first)[:2]
    for name, arr in list(enc_params.items()) + list(den_params.items()):
        assert arr.flags.writeable, name
        arr += 1.0
    for name in tensors:
        assert np.array_equal(second[name], tensors[name]), name


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        dn.load_checkpoint(path)


def test_checkpoint_truncated_at_every_offset(tmp_path):
    rng = Rng(37)
    path = tmp_path / "small.ckpt"
    dn.save_checkpoint(path, {"den.a": rng.normal((2, 3)),
                              "meta.b": np.array(4.0),
                              "enc.c": rng.normal((5,))})
    full = path.read_bytes()
    assert set(dn.load_checkpoint(path)) == {"den.a", "meta.b", "enc.c"}
    cut = tmp_path / "cut.ckpt"
    for n in range(len(full)):
        cut.write_bytes(full[:n])
        with pytest.raises(dn.CheckpointError):
            dn.load_checkpoint(cut)
    cut.write_bytes(full + b"\x00")
    with pytest.raises(dn.CheckpointError, match="trailing"):
        dn.load_checkpoint(cut)


def test_flat_adam_matches_textbook_update_bitwise():
    rng = Rng(39)
    shapes = {"a": (7, 5), "b": (3,), "c": (4, 2, 6)}
    params = {k: rng.normal(s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    m_ref = {k: np.zeros_like(v) for k, v in ref.items()}
    v_ref = {k: np.zeros_like(v) for k, v in ref.items()}
    flat = np.concatenate([v.ravel() for v in params.values()])
    (views,) = dn.flat_views(flat, [params])
    grad = np.empty_like(flat)
    (gviews,) = dn.flat_views(grad, [params])
    m, v2, scratch = (np.zeros_like(flat) for _ in range(3))
    b1, b2, eps = 0.9, 0.999, 1e-8
    for step in range(1, 6):
        lr = 1e-3 * (1.0 + np.cos(step))
        for k in shapes:
            gk = rng.normal(shapes[k]) * 10.0 ** (step - 3)
            gviews[k][...] = gk
            # the per-tensor textbook update
            m_ref[k] = b1 * m_ref[k] + (1.0 - b1) * gk
            v_ref[k] = b2 * v_ref[k] + (1.0 - b2) * gk * gk
            mhat = m_ref[k] / (1.0 - b1**step)
            vhat = v_ref[k] / (1.0 - b2**step)
            ref[k] -= lr * mhat / (np.sqrt(vhat) + eps)
        dn.adam_update(flat, grad, m, v2, step, lr, b1, b2, eps, scratch)
        for k in shapes:
            assert np.array_equal(views[k], ref[k]), (step, k)


def test_class_word_position_from_tokens():
    world = tw.default_world()
    vocab = te.default_vocabulary()
    _, tok = dn.training_prompts(world, vocab, te.EncoderConfig().max_len)
    sem_len = int(np.max(np.sum(tok != te.PAD, axis=1)))
    assert dn.class_word_position(world, vocab, tok) == sem_len - 3
    shifted = tok.copy()
    shifted[0] = np.roll(shifted[0], 1)   # one prompt's class word moves
    with pytest.raises(ValueError):
        dn.class_word_position(world, vocab, shifted)


def test_training_smoke_reduces_loss():
    world = tw.default_world()
    vocab = te.default_vocabulary()
    sched = make_schedule(20, 1e-3, 0.2)
    enc_cfg = te.EncoderConfig(max_len=8, dim=8, n_blocks=1, n_heads=2)
    cfg = dn.DenoiserConfig(d_h=16, d_a=8, t_feat=8, emb_dim=8, max_len=8)
    tcfg = dn.TrainConfig(steps=600, batch_size=16, seed=1, lr=3e-3)
    _, _, log = dn.train(world, vocab, sched, enc_cfg, cfg, tcfg)
    first = np.mean([l for _, l in log[:2]])
    last = np.mean([l for _, l in log[-3:]])
    assert np.isfinite(last)
    assert last < first - 0.02


def test_training_is_deterministic(tmp_path):
    world = tw.default_world()
    vocab = te.default_vocabulary()
    sched = make_schedule(10, 1e-3, 0.2)
    enc_cfg = te.EncoderConfig(max_len=8, dim=8, n_blocks=1, n_heads=2)
    cfg = dn.DenoiserConfig(d_h=8, d_a=4, t_feat=4, emb_dim=8, max_len=8)
    tcfg = dn.TrainConfig(steps=30, batch_size=8, seed=3)
    run1 = dn.train(world, vocab, sched, enc_cfg, cfg, tcfg)
    run2 = dn.train(world, vocab, sched, enc_cfg, cfg, tcfg)
    for k in run1[0]:
        assert np.array_equal(run1[0][k], run2[0][k])
    for k in run1[1]:
        assert np.array_equal(run1[1][k], run2[1][k])
    assert run1[2] == run2[2]
    # same seed and config produce byte-identical checkpoints
    paths = [tmp_path / "run0.ckpt", tmp_path / "run1.ckpt"]
    for path, run in zip(paths, (run1, run2)):
        ModelBundle(world, vocab, enc_cfg, cfg, sched, *run[:2]).save(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # the CLI's full-size training writes the same bytes with one and with
    # two BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(embedlab.__file__)))
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"cli{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-m", "embedlab.cli", "train",
                        "--steps", "30", "--seed", "5", "--out", str(out)],
                       check=True, capture_output=True, env=env, timeout=300)
        digests.add((out / "model.ckpt").read_bytes())
    assert len(digests) == 1


@pytest.mark.parametrize("p,l,d,bsz", [(8, 16, 32, 64), (3, 5, 7, 4),
                                       (2, 16, 48, 9)])
def test_unit_rows_gathered_from_the_bank_match_direct(p, l, d, bsz):
    """The norms and unit rows gathered from the prompt bank's are bitwise
    _unit_rows of the gathered conditioning rows."""
    r = Rng(80 + d)
    bank = r.normal((p, l, d))
    bank[0, 0] = 0.0   # a zero row, whose norm is KEY_NORM_EPS
    row_src = r.randint(p, (bsz, l))
    for work in (None, {}):
        emb, (norm, unit), _ = dn._gather_conditioning(bank, row_src, work)
        want_norm, want_unit = dn._unit_rows(emb)
        assert np.array_equal(norm, want_norm)
        assert np.array_equal(unit, want_unit)


@pytest.mark.parametrize("n_steps,n_feat", [(1, 4), (7, 6), (100, 32),
                                            (1000, 32)])
def test_time_feature_table_rows_match_time_features(n_steps, n_feat):
    """Rows t - 1 of the table of steps 1..T are bitwise time_features(t)."""
    table = dn.time_features(np.arange(1, n_steps + 1), n_feat)
    t = Rng(n_steps).randint(n_steps, 50) + 1
    assert np.array_equal(table[t - 1],
                          dn.time_features(t.astype(np.float64), n_feat))


def _per_call_batches(world, vocab, sched, enc_cfg, bsz, rng):
    """Training batches drawn with one Rng call per draw: the reference
    for training_batches' one-pass draws."""
    _, tokens = dn.training_prompts(world, vocab, enc_cfg.max_len)
    n_styles = len(world.style_words)
    patterns = np.stack([p.ravel() for _, p in world.classes])
    sem_len = int(np.max(np.sum(tokens != te.PAD, axis=1)))
    class_pos = dn.class_word_position(world, vocab, tokens)
    cols = np.arange(enc_cfg.max_len)
    while True:
        cls = rng.randint(len(world.classes), bsz)
        style = tw.draw_style(rng.uniform(bsz))
        x0 = style[:, None] * patterns[cls]
        if world.noise_sigma > 0.0:
            x0 = x0 + world.noise_sigma * rng.normal(x0.shape)
        x0 = np.clip(x0, tw.CLAMP_LO, tw.CLAMP_HI)
        nearest = world.nearest_style(style)
        prompt_ids = cls * n_styles + nearest
        t = rng.randint(sched.T, bsz) + 1
        eps = rng.normal(x0.shape)
        ab = sched.alpha_bars[t - 1][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        allowed = np.ones((bsz, enc_cfg.max_len), dtype=bool)
        u = rng.uniform(bsz)
        allowed[u < dn.P_WORDS_ONLY] = cols < sem_len - 1
        allowed[(u >= dn.P_WORDS_ONLY)
                & (u < dn.P_WORDS_ONLY + dn.P_PAD_MASKED)] = cols < sem_len
        row_src = np.repeat(prompt_ids[:, None], enc_cfg.max_len, axis=1)
        swap_sel = rng.uniform(bsz) < dn.P_SWAP_AUG
        donor_ids = rng.randint(len(world.classes), bsz) * n_styles + nearest
        row_src[swap_sel] = donor_ids[swap_sel, None]
        row_src[swap_sel, class_pos] = prompt_ids[swap_sel]
        yield x_t, t, eps, prompt_ids, allowed, row_src


@pytest.mark.parametrize("noise_sigma", [None, 0.0])
@pytest.mark.parametrize("bsz", [1, 7, 64])
def test_training_batches_match_per_call_draws(noise_sigma, bsz):
    """training_batches' one-pass draws give, bitwise and step after step,
    the batches of one Rng call per draw, in a noisy world and in a
    noise-free one."""
    world = tw.default_world()
    if noise_sigma is not None:
        world = tw.WorldSpec(classes=world.classes,
                             style_words=world.style_words,
                             noise_sigma=noise_sigma)
    vocab = te.default_vocabulary()
    enc_cfg = te.EncoderConfig()
    cfg = dn.DenoiserConfig()
    sched = make_schedule(100, 1e-3, 0.2)
    stream, ref_stream = Rng(90).split(1), Rng(90).split(1)
    got = dn.training_batches(world, vocab, sched, enc_cfg, cfg, bsz, stream)
    ref = _per_call_batches(world, vocab, sched, enc_cfg, bsz, ref_stream)
    class_pos = dn.class_word_position(
        world, vocab, dn.training_prompts(world, vocab, enc_cfg.max_len)[1])
    kinds = set()
    for _ in range(12):
        batch = next(got)
        x_t, t, eps, prompt_ids, allowed, row_src = next(ref)
        assert np.array_equal(batch.x_t, x_t)
        assert np.array_equal(batch.tf, dn.time_features(t, cfg.t_feat))
        assert np.array_equal(batch.eps_true, eps)
        assert np.array_equal(batch.allowed, allowed)
        assert np.array_equal(batch.row_src, row_src)
        assert np.array_equal(batch.row_src[:, class_pos], prompt_ids)
        kinds.update(allowed.sum(axis=1))
    # both took the same number of words from the stream
    assert stream.raw(1) == ref_stream.raw(1)
    assert len(kinds) == 3   # every key-mask kind was drawn


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_training_batch_gradients_match_finite_differences(seed):
    """loss_and_grads on a batch of training's own form against central
    differences along every tensor, on the streams of `verify --seed 0..2`:
    the check's 1e-4 bound holds on more than the default stream."""
    result = vf.run_check(vf.check_denoiser_gradients, seed)
    assert result.passed and result.detail.startswith("32 tensors"), result.detail
