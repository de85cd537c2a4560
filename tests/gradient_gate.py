"""Finite-difference gradient gate behind acceptance criterion 4.

Checks every trainable parameter of the full-size encoder + denoiser
against central finite differences (h=1e-5, 1e-4 relative with a 5e-7
absolute floor). Perturbing one tensor leaves everything upstream of it
unchanged, so each evaluation recomputes only from the sub-layer that the
tensor feeds; a guard asserts the staged loss equals the full-path loss to
1e-12 before any differencing starts.
"""

import time

import numpy as np

from embedlab import denoiser as dn
from embedlab import text_encoder as te
from embedlab.rng import Rng


def _fixed_batch(vocab, enc_cfg):
    rng = Rng(33)
    tok = np.asarray([
        te.tokenize(vocab, "a photo of hbar dim", enc_cfg.max_len).ids,
        te.tokenize(vocab, "a photo of vbar bright", enc_cfg.max_len).ids,
        te.tokenize(vocab, "cross dim", enc_cfg.max_len).ids,
    ])
    # every row of a sample from one prompt, every key allowed
    return dn.Batch(
        x_t=rng.normal((4, dn.DenoiserConfig().x_dim)),
        eps_true=rng.normal((4, dn.DenoiserConfig().x_dim)),
        token_matrix=tok,
        allowed=np.ones((4, enc_cfg.max_len), dtype=bool),
        row_src=np.repeat([[0], [1], [2], [0]], enc_cfg.max_len, axis=1),
        tf=dn.time_features(np.array([3.0, 42.0, 97.0, 1.0]),
                            dn.DenoiserConfig().t_feat),
    )


def run_gate():
    start = time.time()
    vocab = te.default_vocabulary()
    enc_cfg = te.EncoderConfig()
    cfg = dn.DenoiserConfig()
    enc_params = te.init_encoder_params(enc_cfg, vocab.size, Rng(34))
    den_params = dn.init_denoiser_params(cfg, Rng(35))
    batch = _fixed_batch(vocab, enc_cfg)
    base_loss, enc_g, den_g = dn.loss_and_grads(enc_params, den_params,
                                                enc_cfg, cfg, batch)
    h = 1e-5
    tok = batch.token_matrix
    pids = batch.row_src[:, 0]
    bsz = batch.x_t.shape[0]
    length = enc_cfg.max_len
    tf = batch.tf
    att_scale = 1.0 / np.sqrt(cfg.d_a)

    def lean_eps(emb, emb_n):
        hh = np.maximum(batch.x_t @ den_params["w_in"]
                        + tf @ den_params["w_t"], 0.0)
        q = hh @ den_params["wq"]
        k = (emb_n.reshape(-1, cfg.emb_dim)
             @ den_params["wk"]).reshape(bsz, length, cfg.d_a)
        scores = np.einsum("ba,bla->bl", q, k) * att_scale
        scores -= scores.max(axis=-1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=-1, keepdims=True)
        v = (emb.reshape(-1, cfg.emb_dim)
             @ den_params["wv"]).reshape(bsz, length, cfg.d_a)
        ctx = np.einsum("bl,bla->ba", w, v)
        h2 = hh + ctx @ den_params["wo"]
        return np.maximum(h2 @ den_params["w1"], 0.0) @ den_params["w2"]

    def loss_from_emb_all(emb_all):
        emb = emb_all[pids]
        n = np.sqrt(np.einsum("bld,bld->bl", emb, emb)) + dn.KEY_NORM_EPS
        pred = lean_eps(emb, emb / n[..., None])
        return float(np.mean(np.abs(pred - batch.eps_true)))

    allowed_enc = te._attention_allowed(tok)
    nh = enc_cfg.n_heads
    dh = enc_cfg.dim // nh
    enc_scale = 1.0 / np.sqrt(dh)
    nb = enc_cfg.n_blocks
    ep = enc_params

    # unperturbed intermediates of every encoder sub-layer; a perturbation
    # of one tensor resumes exactly at the sub-layer that tensor feeds
    block_in = [ep["tok_emb"][tok] + ep["pos_emb"][None, :, :]]
    cache = []
    for i in range(nb):
        out, t = te.block_forward(ep, enc_cfg, i, block_in[-1], allowed_enc,
                                  need_tape=True)
        x1 = block_in[-1] + t["merged"] @ ep[f"b{i}.wo"]
        cache.append({"merged": t["merged"], "x1": x1})
        block_in.append(out)

    def finish(j, x):
        for i in range(j, nb):
            x = te.block_forward(ep, enc_cfg, i, x, allowed_enc)
        out, _ = te._layer_norm(x, ep["ln_f_g"], ep["ln_f_b"])
        return loss_from_emb_all(out)

    def mlp_then_finish(i, x1):
        xn2, _ = te._layer_norm(x1, ep[f"b{i}.ln2_g"], ep[f"b{i}.ln2_b"])
        out = x1 + np.maximum(xn2 @ ep[f"b{i}.w1"], 0.0) @ ep[f"b{i}.w2"]
        return finish(i + 1, out)

    def from_attn(i):
        x = block_in[i]
        xn, _ = te._layer_norm(x, ep[f"b{i}.ln1_g"], ep[f"b{i}.ln1_b"])
        q = xn @ ep[f"b{i}.wq"]
        k = xn @ ep[f"b{i}.wk"]
        v = xn @ ep[f"b{i}.wv"]
        b, l, _ = q.shape
        qh = q.reshape(b, l, nh, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(b, l, nh, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(b, l, nh, dh).transpose(0, 2, 1, 3)
        scores = np.einsum("bhid,bhjd->bhij", qh, kh) * enc_scale
        scores = np.where(allowed_enc[:, None, :, :], scores, -1e30)
        scores -= scores.max(axis=-1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=-1, keepdims=True)
        ctx = np.einsum("bhij,bhjd->bhid", w, vh)
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, l, enc_cfg.dim)
        return mlp_then_finish(i, x + merged @ ep[f"b{i}.wo"])

    def from_wo(i):
        return mlp_then_finish(i, block_in[i] + cache[i]["merged"]
                               @ ep[f"b{i}.wo"])

    def enc_loss_fn(name):
        if name.startswith("ln_f"):
            return lambda: finish(nb, block_in[nb])
        if not name.startswith("b"):  # token/position embeddings
            return lambda: finish(
                0, ep["tok_emb"][tok] + ep["pos_emb"][None, :, :])
        i = int(name[1:name.index(".")])
        sub = name.split(".")[1]
        if sub in ("ln1_g", "ln1_b", "wq", "wk", "wv"):
            return lambda: from_attn(i)
        if sub == "wo":
            return lambda: from_wo(i)
        return lambda: mlp_then_finish(i, cache[i]["x1"])

    # denoiser-side caches: perturbing one denoiser tensor leaves both the
    # embedding and everything upstream of that tensor unchanged
    dp = den_params
    emb_fix, _ = te._layer_norm(block_in[-1], ep["ln_f_g"], ep["ln_f_b"])
    emb_fix = emb_fix[pids]
    n_fix = np.sqrt(np.einsum("bld,bld->bl", emb_fix, emb_fix)) + dn.KEY_NORM_EPS
    embn_fix = emb_fix / n_fix[..., None]
    hh_c = np.maximum(batch.x_t @ dp["w_in"] + tf @ dp["w_t"], 0.0)
    k_c = (embn_fix.reshape(-1, cfg.emb_dim)
           @ dp["wk"]).reshape(bsz, length, cfg.d_a)
    v_c = (emb_fix.reshape(-1, cfg.emb_dim)
           @ dp["wv"]).reshape(bsz, length, cfg.d_a)
    s_c = np.einsum("ba,bla->bl", hh_c @ dp["wq"], k_c) * att_scale
    s_c -= s_c.max(axis=-1, keepdims=True)
    w_c = np.exp(s_c)
    w_c /= w_c.sum(axis=-1, keepdims=True)
    ctx_c = np.einsum("bl,bla->ba", w_c, v_c)
    h2_c = hh_c + ctx_c @ dp["wo"]
    m_c = np.maximum(h2_c @ dp["w1"], 0.0)

    def den_l1(pred):
        return float(np.mean(np.abs(pred - batch.eps_true)))

    def den_tail(h2):
        return den_l1(np.maximum(h2 @ dp["w1"], 0.0) @ dp["w2"])

    def den_from_qk():
        q = hh_c @ dp["wq"]
        k = (embn_fix.reshape(-1, cfg.emb_dim)
             @ dp["wk"]).reshape(bsz, length, cfg.d_a)
        scores = np.einsum("ba,bla->bl", q, k) * att_scale
        scores -= scores.max(axis=-1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=-1, keepdims=True)
        ctx = np.einsum("bl,bla->ba", w, v_c)
        return den_tail(hh_c + ctx @ dp["wo"])

    def den_from_wv():
        v = (emb_fix.reshape(-1, cfg.emb_dim)
             @ dp["wv"]).reshape(bsz, length, cfg.d_a)
        ctx = np.einsum("bl,bla->ba", w_c, v)
        return den_tail(hh_c + ctx @ dp["wo"])

    den_loss_fns = {
        "w_in": lambda: den_l1(lean_eps(emb_fix, embn_fix)),
        "w_t": lambda: den_l1(lean_eps(emb_fix, embn_fix)),
        "wq": den_from_qk,
        "wk": den_from_qk,
        "wv": den_from_wv,
        "wo": lambda: den_tail(hh_c + ctx_c @ dp["wo"]),
        "w1": lambda: den_tail(h2_c),
        "w2": lambda: den_l1(m_c @ dp["w2"]),
    }

    # guard: every staged path reproduces the full forward loss exactly
    for name in list(enc_params) + list(den_params):
        fn = enc_loss_fn(name) if name in enc_params else den_loss_fns[name]
        assert abs(fn() - base_loss) < 1e-12, name

    checked = 0
    for params, grads, fn_of in (
            (enc_params, enc_g, enc_loss_fn),
            (den_params, den_g, den_loss_fns.__getitem__)):
        for name, arr in params.items():
            loss_fn = fn_of(name)
            flat = arr.ravel()
            gflat = grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_fn()
                flat[i] = orig - h
                lm = loss_fn()
                flat[i] = orig
                fd = (lp - lm) / (2.0 * h)
                an = gflat[i]
                assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd)) + 5e-7, \
                    f"{name}[{i}]: analytic {an} vs fd {fd}"
                checked += 1
    return checked, time.time() - start
