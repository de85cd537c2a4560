import os
import subprocess
import sys
import time

import numpy as np
import pytest

import embedlab
from embedlab import denoiser as dn
from embedlab import text_encoder as te
from embedlab import toyworld as tw
from embedlab.diffusion import make_schedule
from embedlab.rng import Rng

SMALL_CFG = dn.DenoiserConfig(x_dim=6, d_h=5, d_a=4, t_feat=4,
                              emb_dim=3, max_len=4)


def test_time_features_shape_and_values():
    f = dn.time_features(np.array([0.0, 3.0]), 8)
    assert f.shape == (2, 8)
    assert np.allclose(f[0], [0, 0, 0, 0, 1, 1, 1, 1])


def test_forward_straight_line_oracle():
    rng = Rng(30)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    x = rng.normal(6)
    emb = rng.normal((4, 3))
    allowed = np.array([True, True, False, True])
    t = 7
    got = dn.predict_eps(params, SMALL_CFG, x, t, emb, dn.AttnMask(allowed))

    tf = np.zeros(4)
    for i in range(2):
        f = 10000.0 ** (-i / 2)
        tf[i] = np.sin(t * f)
        tf[i + 2] = np.cos(t * f)
    h = np.maximum(x @ params["w_in"] + tf @ params["w_t"], 0.0)
    q = h @ params["wq"]
    scores = []
    for j in range(4):
        kj = (emb[j] / (np.sqrt(emb[j] @ emb[j]) + 1e-12)) @ params["wk"]
        scores.append((q @ kj) / np.sqrt(SMALL_CFG.d_a)
                      if allowed[j] else -np.inf)
    scores = np.asarray(scores)
    w = np.exp(scores - scores[np.isfinite(scores)].max())
    w[~allowed] = 0.0
    w /= w.sum()
    ctx = sum(w[j] * (emb[j] @ params["wv"]) for j in range(4))
    ref = np.maximum((h + ctx @ params["wo"]) @ params["w1"], 0.0) @ params["w2"]
    assert np.max(np.abs(got - ref)) < 1e-12


def test_masking_equals_row_slicing():
    """Excluding keys by mask equals removing those rows entirely."""
    rng = Rng(31)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    x = rng.normal(6)
    emb = rng.normal((4, 3))
    allowed = np.array([True, False, True, False])
    masked = dn.predict_eps(params, SMALL_CFG, x, 5, emb, dn.AttnMask(allowed))
    cfg2 = dn.DenoiserConfig(x_dim=6, d_h=5, d_a=4, t_feat=4,
                             emb_dim=3, max_len=2)
    sliced = dn.predict_eps(params, cfg2, x, 5, emb[allowed],
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
    all_true = dn.predict_eps(params, SMALL_CFG, x, 5, emb,
                              dn.AttnMask(np.array([True] * 4)))
    excluded = dn.predict_eps(params, SMALL_CFG, x, 5, emb,
                              dn.AttnMask(np.array([True, True, False, True])))
    assert np.max(np.abs(all_true - excluded)) > 1e-9


def test_permuting_equal_rows_leaves_output_unchanged():
    rng = Rng(39)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    x = rng.normal(6)
    emb = rng.normal((4, 3))
    emb[3] = emb[1]
    base = dn.predict_eps(params, SMALL_CFG, x, 2, emb)
    perm = dn.predict_eps(params, SMALL_CFG, x, 2, emb[[0, 3, 2, 1]])
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
    batch = dn.Batch(x_t=rng.normal((2, 6)), t=np.array([3.0, 9.0]),
                     eps_true=np.zeros((2, 6)),
                     prompt_ids=np.array([0, 0]), token_matrix=tok)
    emb = te.encode_batch(enc_params, enc_cfg, tok)[batch.prompt_ids]
    batch.eps_true = dn.forward_batch(den_params, cfg, batch.x_t, batch.t,
                                      emb, np.ones((2, 8), dtype=bool))
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
    t = np.array([5.0, 11.0])
    eps = rng.normal((2, 6))
    pid = np.array([0, 0])
    single = dn.Batch(x_t=x_t, t=t, eps_true=eps, prompt_ids=pid,
                      token_matrix=tok)
    double = dn.Batch(x_t=np.tile(x_t, (2, 1)), t=np.tile(t, 2),
                      eps_true=np.tile(eps, (2, 1)),
                      prompt_ids=np.tile(pid, 2), token_matrix=tok)
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
    base = dn.predict_eps(params, SMALL_CFG, x, 3, emb)
    scaled = emb.copy()
    scaled[1] *= 2.5
    out = dn.predict_eps(params, SMALL_CFG, x, 3, scaled)
    # the context change equals (2.5 - 1) * w_1 * (emb_1 @ wv) pushed through
    # the (here inactive-ReLU-free) tail only if no ReLU flips; instead just
    # assert attention weights are identical by reconstructing them
    for e in (emb, scaled):
        _, tape = dn.forward_batch(params, SMALL_CFG, x[None], np.array([3.0]),
                                   e[None], np.ones((1, 4), dtype=bool),
                                   need_tape=True)
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
                params, cfg, x, t, rows,
                np.broadcast_to(True if allowed is None else allowed, (batch, 7)))
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
    world = tw.default_world()
    vocab = te.default_vocabulary()
    enc_cfg = te.EncoderConfig()
    cfg = dn.DenoiserConfig()
    rng = Rng(60)
    enc_params = te.init_encoder_params(enc_cfg, vocab.size, rng.split(0))
    den_params = dn.init_denoiser_params(cfg, rng.split(1))
    _, tokens = dn.training_prompts(world, vocab, enc_cfg.max_len)
    work = {}
    for i, bsz in enumerate((64, 8, 64)):
        r = rng.split(2 + i)
        allowed = r.uniform((bsz, 16)) < 0.7
        allowed[:, 0] = True
        batch = dn.Batch(x_t=r.normal((bsz, 64)),
                         t=(r.randint(100, bsz) + 1).astype(np.float64),
                         eps_true=r.normal((bsz, 64)),
                         prompt_ids=r.randint(len(tokens), bsz),
                         token_matrix=tokens, allowed=allowed,
                         row_src=r.randint(len(tokens), (bsz, 16)))
        got = dn.loss_and_grads(enc_params, den_params, enc_cfg, cfg, batch,
                                work=work)
        ref = dn.loss_and_grads(enc_params, den_params, enc_cfg, cfg, batch)
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
                                 enc_cfg, cfg, (10, 1e-3, 0.2))
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


def test_all_masked_rejected():
    rng = Rng(32)
    params = dn.init_denoiser_params(SMALL_CFG, rng)
    with pytest.raises(ValueError):
        dn.predict_eps(params, SMALL_CFG, rng.normal(6), 1, rng.normal((4, 3)),
                       dn.AttnMask(np.zeros(4, dtype=bool)))


from gradient_gate import run_gate


def test_gradient_gate_every_parameter():
    """Central finite differences validate every trainable parameter; see
    gradient_gate.run_gate for the staged-recompute construction."""
    checked, elapsed = run_gate()
    assert checked > 40_000
    assert elapsed < 60.0, f"gradient gate took {elapsed:.1f}s"


def test_checkpoint_roundtrip(tmp_path):
    rng = Rng(36)
    enc_cfg = te.EncoderConfig()
    cfg = dn.DenoiserConfig()
    enc_params = te.init_encoder_params(enc_cfg, 12, rng)
    den_params = dn.init_denoiser_params(cfg, rng)
    tensors = dn.checkpoint_tensors(enc_params, den_params, enc_cfg, cfg,
                                    (100, 1e-3, 0.2))
    path = tmp_path / "m.ckpt"
    dn.save_checkpoint(path, tensors)
    loaded = dn.load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
    e2, d2, ecfg2, cfg2, meta = dn.split_checkpoint(loaded)
    assert ecfg2 == enc_cfg and cfg2 == cfg and meta == (100.0, 1e-3, 0.2)
    for k, v in enc_params.items():
        assert np.array_equal(e2[k], v)


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
    tcfg = dn.TrainConfig(steps=600, batch_size=16, seed=1, log_every=50,
                          lr=3e-3, lr_final=None)
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
    tcfg = dn.TrainConfig(steps=30, batch_size=8, seed=3, log_every=10)
    run1 = dn.train(world, vocab, sched, enc_cfg, cfg, tcfg)
    run2 = dn.train(world, vocab, sched, enc_cfg, cfg, tcfg)
    for k in run1[0]:
        assert np.array_equal(run1[0][k], run2[0][k])
    for k in run1[1]:
        assert np.array_equal(run1[1][k], run2[1][k])
    assert run1[2] == run2[2]
    # same seed and config produce byte-identical checkpoints
    paths = []
    for i, run in enumerate((run1, run2)):
        tensors = dn.checkpoint_tensors(run[0], run[1], enc_cfg, cfg,
                                        (10, 1e-3, 0.2))
        p = tmp_path / f"run{i}.ckpt"
        dn.save_checkpoint(p, tensors)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # the CLI's full-size training writes the same bytes with one and with
    # two BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(embedlab.__file__)))
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"cli{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("EMBEDLAB_OUT", None)
        subprocess.run([sys.executable, "-m", "embedlab.cli", "train",
                        "--steps", "30", "--seed", "5", "--out", str(out)],
                       check=True, capture_output=True, env=env, timeout=300)
        digests.add((out / "model.ckpt").read_bytes())
    assert len(digests) == 1
