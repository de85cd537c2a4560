"""Conditional noise predictor with single-head cross-attention.

The predictor maps (x_t, t, text embedding) to an estimate of the Gaussian
noise that produced x_t. Conditioning happens through cross-attention over
the L word-embedding rows, so masking individual words is meaningful.
Gradients of the L1 objective are derived by hand for every parameter of
both the denoiser and the text encoder, and are validated against central
finite differences in the test suite before any training result is trusted.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import text_encoder as te
from .diffusion import Schedule, l1_objective, make_schedule
from .rng import Rng, box_muller, randints, uniforms
from .toyworld import (IMAGE_DIM, CLAMP_HI, CLAMP_LO, WorldSpec, draw_style,
                       write_in_place)


class CheckpointError(ValueError):
    """A checkpoint file is malformed or holds non-finite weights."""


KEY_NORM_EPS = 1e-12


@dataclass(frozen=True)
class DenoiserConfig:
    x_dim: int = IMAGE_DIM
    d_h: int = 128
    d_a: int = 64
    t_feat: int = 32
    emb_dim: int = 32
    max_len: int = 16


@dataclass(frozen=True)
class AttnMask:
    allowed: np.ndarray  # bool, length L, or (B, L) with one mask per row

    def __post_init__(self):
        allowed = np.asarray(self.allowed, dtype=bool)
        if not allowed.any(axis=-1).all():
            raise ValueError("attention mask with no allowed position")
        object.__setattr__(self, "allowed", allowed)


def denoiser_param_shapes(cfg: DenoiserConfig) -> dict:
    """Shape of every denoiser tensor, in parameter order."""
    return {
        "w_in": (cfg.x_dim, cfg.d_h),
        "w_t": (cfg.t_feat, cfg.d_h),
        "wq": (cfg.d_h, cfg.d_a),
        "wk": (cfg.emb_dim, cfg.d_a),
        "wv": (cfg.emb_dim, cfg.d_a),
        "wo": (cfg.d_a, cfg.d_h),
        "w1": (cfg.d_h, cfg.d_h),
        "w2": (cfg.d_h, cfg.x_dim),
    }


def init_denoiser_params(cfg: DenoiserConfig, rng: Rng) -> dict:
    return {name: 0.02 * rng.normal(shape)
            for name, shape in denoiser_param_shapes(cfg).items()}


def time_features(t, n_feat: int) -> np.ndarray:
    """Sinusoidal features of the integer step index; shape (..., n_feat)."""
    t = np.asarray(t, dtype=np.float64)
    half = n_feat // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    arg = t[..., None] * freqs
    return np.concatenate([np.sin(arg), np.cos(arg)], axis=-1)


def _unit_rows(emb: np.ndarray):
    """Row norms (+ KEY_NORM_EPS) and unit rows of embeddings (..., L, D)."""
    # keys are computed from unit-normalized rows so attention depends only
    # on a row's direction; scaling a row then modulates its value
    # contribution linearly (the fader behaviour) instead of exponentially
    # re-routing attention toward it
    emb_norm = np.sqrt(np.einsum("...ld,...ld->...l", emb, emb)) + KEY_NORM_EPS
    return emb_norm, emb / emb_norm[..., None]


def condition(params, cfg: DenoiserConfig, emb) -> dict:
    """Sampling conditioning of one embedding (L, D) or a stack of G (G, L, D).

    Each embedding is folded with the query and output projections here,
    once per chain: qk = wq @ (n @ wk).T / sqrt(d_a) is (G, d_h, L) and
    vo = (e @ wv) @ wo is (G, L, d_h), with G = 1 for one embedding. The
    rows of a chain belong to the G embeddings in G equal contiguous
    blocks, so one shared embedding is G = 1 and one per row is G = B.
    """
    emb = np.asarray(emb, dtype=np.float64)
    _, emb_n = _unit_rows(emb)
    qk = params["wq"] @ np.swapaxes(emb_n @ params["wk"], -1, -2)
    qk *= 1.0 / np.sqrt(cfg.d_a)
    vo = (emb @ params["wv"]) @ params["wo"]
    if emb.ndim == 2:
        qk, vo = qk[None], vo[None]
    return {"qk": qk, "vo": vo}


def condition_reverse(params, cfg: DenoiserConfig, emb, dqk, dvo):
    """Reverse of condition() for one embedding (L, D): dL/demb from
    dL/dqk (d_h, L) and dL/dvo (L, d_h)."""
    emb = np.asarray(emb, dtype=np.float64)
    emb_norm, emb_n = _unit_rows(emb)
    demb = (dvo @ params["wo"].T) @ params["wv"].T
    dunit = (dqk.T @ params["wq"]) @ params["wk"].T
    dunit *= 1.0 / np.sqrt(cfg.d_a)
    # through n = e / ||e||, as backward_batch: de = (dn - n (n . dn)) / ||e||
    dunit -= emb_n * np.einsum("ld,ld->l", emb_n, dunit)[:, None]
    dunit /= emb_norm[:, None]
    demb += dunit
    return demb


def _attend_arrays(shape: tuple, cfg: DenoiserConfig, cond: dict) -> tuple:
    """attend()'s arrays for rows x of this shape: (shape, h, hg, scores,
    h2, h2g, m, eps), where hg and h2g are the folded branch's block views
    of h and h2."""
    h = np.empty(shape[:-1] + (cfg.d_h,))
    h2 = np.empty_like(h)
    rows = h.size // cfg.d_h
    if "qk" in cond:
        groups, _, length = cond["qk"].shape
        if rows % groups:
            raise ValueError(f"{groups} embeddings do not split {rows} rows "
                             f"into equal blocks")
        hg = h.reshape(groups, rows // groups, cfg.d_h)
        h2g = h2.reshape(hg.shape)
        scores = np.empty((groups, rows // groups, length))
    else:
        hg = h2g = None
        scores = np.empty((rows, cond["emb"].shape[1]))
    return (shape, h, hg, scores, h2, h2g, np.empty_like(h),
            np.empty(shape[:-1] + (cfg.x_dim,)))


def attend(params, cfg: DenoiserConfig, x, t_proj, cond: dict,
           blocked=None, need_tape: bool = False, work: dict | None = None):
    """The forward pass after the conditioning; t_proj is time_features(t) @ w_t.

    x: (B, x_dim) or (x_dim,). blocked: the key positions a row may not
    attend to, (L,) for every row, (B, L) one row each, or None for none.
    cond is condition()'s folded form, or the per-row form forward_batch()
    builds for training. Folded, the B rows split into G blocks, one per
    embedding (a ValueError when G does not divide B), and each block's
    step is scores = h @ qk and h2 = h + w @ vo; its tape is h, w and m,
    what attend_reverse reads. Per row, the scores are q . (n @ wk) =
    (q @ wk.T) . n and the context is (w @ e) @ wv, so each row costs
    (L, D) products, not (L, d_a) ones; its tape is what backward_batch
    reads.

    work owns the arrays of one chain (or one training run): a dict, filled
    on the first call and written into by every later call on rows shaped
    alike with the same conditioning form. The eps it returns, and the
    tape, then hold only until the next call with that dict. work None
    makes new arrays.
    """
    folded = "qk" in cond
    arrays = None if work is None else work.get("attend")
    if arrays is None or arrays[0] != x.shape:
        arrays = _attend_arrays(x.shape, cfg, cond)
        if work is not None:
            work["attend"] = arrays
    _, h, hg, scores, h2, h2g, m, eps = arrays
    # ReLUs and softmax work in place; backward reads the ReLU masks from
    # their outputs (h > 0 exactly where the pre-activation is > 0)
    np.matmul(x, params["w_in"], out=h)
    h += t_proj
    np.maximum(h, 0.0, out=h)
    if folded:
        np.matmul(hg, cond["qk"], out=scores)
    else:
        q = h @ params["wq"]
        qk = q @ params["wk"].T
        np.matmul(cond["emb_n"], qk[:, :, None], out=scores[:, :, None])
        scores *= 1.0 / np.sqrt(cfg.d_a)
    if blocked is not None:
        if folded and blocked.ndim == 2:
            blocked = blocked.reshape(scores.shape)
        np.copyto(scores, -1e30, where=blocked)
    # the ufunc reductions behind ndarray.max and .sum, without the wrappers
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    w = np.exp(scores, out=scores)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    if folded:
        np.matmul(w, cond["vo"], out=h2g)
        h2g += hg
    else:
        w_emb = (w[:, None, :] @ cond["emb"])[:, 0]
        ctx = w_emb @ params["wv"]
        np.matmul(ctx, params["wo"], out=h2)
        h2 += h
    np.matmul(h2, params["w1"], out=m)
    np.maximum(m, 0.0, out=m)
    np.matmul(m, params["w2"], out=eps)
    if need_tape and folded:
        return eps, {"h": h, "w": w, "m": m}
    if need_tape:
        return eps, dict(cond, x=x, h=h, q=q, qk=qk, w=w, w_emb=w_emb,
                         ctx=ctx, h2=h2, m=m)
    return eps


def attend_reverse(params, cond: dict, h, w, m, deps, dh2, ds):
    """Reverse of one folded attend step of one row (G = B = 1): dL/dx.

    h (d_h,), w (L,) and m (d_h,) are the step's tape; deps is dL/deps.
    dh2 (d_h,) and ds (L,) receive dL/dh2 and dL/dscores. The step's
    share of the conditioning's gradients is two outer products,
    dL/dqk += h x ds and dL/dvo += w x dh2, so a chain sums them once over
    its stacked steps (H.T @ DS and W.T @ DH2) for condition_reverse.
    """
    dm = params["w2"] @ deps
    dm *= m > 0.0
    np.matmul(params["w1"], dm, out=dh2)
    dw = cond["vo"][0] @ dh2
    np.multiply(dw - w @ dw, w, out=ds)
    dh = cond["qk"][0] @ ds
    dh += dh2
    dh *= h > 0.0
    return params["w_in"] @ dh


def forward_batch(params, cfg: DenoiserConfig, x, tf, emb, allowed,
                  need_tape: bool = False, work: dict | None = None, *,
                  unit):
    """Batched forward pass with per-row conditioning, as training runs it.

    x: (B, x_dim), tf: (B, t_feat), time_features of each row's step, emb:
    (B, L, D), allowed: (B, L) bool, unit: the (norms, unit rows) pair
    _unit_rows(emb) gives, which _gather_conditioning gathers from the
    prompt bank's. work as for attend().
    """
    x = np.asarray(x, dtype=np.float64)
    allowed = np.asarray(allowed, dtype=bool)
    if not allowed.any(axis=1).all():
        raise ValueError("attention mask with no allowed position")
    emb = np.asarray(emb, dtype=np.float64)
    emb_norm, emb_n = unit
    out = attend(params, cfg, x, tf @ params["w_t"],
                 {"emb": emb, "emb_norm": emb_norm, "emb_n": emb_n},
                 ~allowed, need_tape, work)
    if need_tape:
        out[1]["tf"] = tf
    return out


def predict_eps(params, cfg: DenoiserConfig, x_t, t: int,
                emb, mask: AttnMask | None = None) -> np.ndarray:
    """Noise prediction as the sampler makes it; emb as for condition()."""
    return attend(params, cfg, np.asarray(x_t, dtype=np.float64),
                  time_features(t, cfg.t_feat) @ params["w_t"],
                  condition(params, cfg, emb),
                  None if mask is None else ~mask.allowed)


def backward_batch(params, cfg: DenoiserConfig, tape, deps,
                   grads: dict | None = None, work: dict | None = None):
    """Gradients w.r.t. denoiser params and the per-row embeddings (B, L, D).

    grads: arrays shaped like params to overwrite (e.g. views of one flat
    buffer); new arrays when None. work, as for attend(), receives the
    embedding gradient and the (B, d_h) and (B, L, D) temporaries.
    """
    scale = 1.0 / np.sqrt(cfg.d_a)
    g = {k: np.empty_like(v) for k, v in params.items()} if grads is None else grads
    hidden = tape["h"].shape
    dm = np.matmul(deps, params["w2"].T, out=te.work_array(work, "dm", hidden))
    np.matmul(tape["m"].T, deps, out=g["w2"])
    dm *= tape["m"] > 0.0
    np.matmul(tape["h2"].T, dm, out=g["w1"])
    dh2 = np.matmul(dm, params["w1"].T, out=te.work_array(work, "dh2", hidden))
    dctx = dh2 @ params["wo"].T
    np.matmul(tape["ctx"].T, dh2, out=g["wo"])
    w, qk, emb_n = tape["w"], tape["qk"], tape["emb_n"]
    # the key and value gradients of row b are rank 1, dk[b] = ds[b] x q[b]
    # and dv[b] = w[b] x dctx[b]: contract them over l first
    dctx_emb = dctx @ params["wv"].T
    np.matmul(tape["w_emb"].T, dctx, out=g["wv"])
    dw = (tape["emb"] @ dctx_emb[:, :, None])[:, :, 0]
    ds = (dw - (dw * w).sum(axis=-1, keepdims=True)) * w * scale
    ds_n = (ds[:, None, :] @ emb_n)[:, 0]
    np.matmul(ds_n.T, tape["q"], out=g["wk"])
    dq = ds_n @ params["wk"]
    np.matmul(tape["h"].T, dq, out=g["wq"])
    dh = np.matmul(dq, params["wq"].T, out=te.work_array(work, "dh", hidden))
    dh += dh2
    # key path goes through the row normalization n = e / ||e||:
    # de = (dn - n (n . dn)) / ||e||, where dn[b, l] = ds[b, l] qk[b]
    dn_proj = ds * (emb_n @ qk[:, :, None])[:, :, 0]
    demb = te.work_array(work, "demb", emb_n.shape)
    term = te.work_array(work, "demb_term", emb_n.shape)
    np.multiply(ds[:, :, None], qk[:, None, :], out=demb)
    np.multiply(emb_n, dn_proj[..., None], out=term)
    demb -= term
    demb /= tape["emb_norm"][..., None]
    np.multiply(w[:, :, None], dctx_emb[:, None, :], out=term)
    demb += term
    dh *= tape["h"] > 0.0
    np.matmul(tape["x"].T, dh, out=g["w_in"])
    np.matmul(tape["tf"].T, dh, out=g["w_t"])
    return g, demb


@dataclass
class Batch:
    """One training step's inputs: every array loss_and_grads reads."""
    x_t: np.ndarray           # (B, x_dim) noised images
    eps_true: np.ndarray      # (B, x_dim) the noise that made them
    token_matrix: np.ndarray  # (P, L) token ids of the distinct prompts
    allowed: np.ndarray       # (B, L) bool attention-key mask
    # conditioning row l of sample b is row l of encoded prompt row_src[b, l]
    row_src: np.ndarray       # (B, L) int
    tf: np.ndarray            # (B, t_feat) time_features of each step


def _gather_conditioning(emb_all: np.ndarray, row_src: np.ndarray,
                         work: dict | None = None):
    """Assemble per-sample conditioning from the encoded prompt bank.

    Returns the (B, L, D) conditioning whose row l of sample b is row l of
    emb_all[row_src[b, l]]; its (norms, unit rows) pair, as _unit_rows
    gives it, gathered from the bank's; and the (B, L) source of each
    conditioning row as an index into emb_all flattened to (P * L, D). The
    gathered arrays are written into work when given (see attend()).
    """
    p, l, d = emb_all.shape
    index = row_src * l + np.arange(l)
    if index.min() < 0 or index.max() >= p * l:
        raise IndexError(f"conditioning rows outside the {p} encoded prompts")
    # mode "clip" (the indices are checked above): "raise" would copy out
    emb = np.take(emb_all.reshape(p * l, d), index, axis=0, mode="clip",
                  out=te.work_array(work, "emb", index.shape + (d,)))
    # the gathered rows are copies of the bank's P * L rows, and a row's
    # norm and unit row do not depend on the array it sits in
    bank_norm, bank_n = _unit_rows(emb_all)
    emb_n = np.take(bank_n.reshape(p * l, d), index, axis=0, mode="clip",
                    out=te.work_array(work, "emb_n", index.shape + (d,)))
    emb_norm = np.take(bank_norm.ravel(), index, mode="clip",
                       out=te.work_array(work, "emb_norm", index.shape))
    return emb, (emb_norm, emb_n), index


def loss_and_grads(enc_params, den_params, enc_cfg: te.EncoderConfig,
                   cfg: DenoiserConfig, batch: Batch,
                   enc_grads: dict | None = None, den_grads: dict | None = None,
                   work: dict | None = None):
    """Joint L1 loss and exact gradients for encoder + denoiser parameters.

    Subgradient convention: d|u|/du = sign(u), zero at u = 0. enc_grads and
    den_grads, if given, receive the gradients (see encode_backward). work,
    if given, holds the large per-batch arrays from one call to the next
    (see attend()); the results never alias it.
    """
    emb_all, enc_tape = te.encode_batch(
        enc_params, enc_cfg, batch.token_matrix,
        causal=True, need_tape=True, work=work)
    emb, unit, index = _gather_conditioning(emb_all, batch.row_src, work)
    eps_pred, tape = forward_batch(den_params, cfg, batch.x_t, batch.tf, emb,
                                   batch.allowed, need_tape=True, work=work,
                                   unit=unit)
    loss = l1_objective(batch.eps_true, eps_pred)
    diff = eps_pred - batch.eps_true
    deps = np.sign(diff) / diff.size
    den_grads, demb = backward_batch(den_params, cfg, tape, deps, den_grads,
                                     work)
    p, l, d = emb_all.shape
    demb_all = te.scatter_add_rows(index.ravel(), demb.reshape(-1, d), p * l)
    enc_grads = te.encode_backward(enc_params, enc_cfg, enc_tape,
                                   demb_all.reshape(p, l, d), enc_grads, work)
    return loss, enc_grads, den_grads


# Adam moment decays and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# conditioning-dropout augmentation. The causal encoder copies the whole
# prompt's meaning into the EOS summary row, and a denoiser trained only
# on full contexts learns to read that one row, which makes single-row
# embedding edits generatively inert. Hiding the EOS/PAD keys on most
# samples forces the class and style word rows to carry the signal.
P_WORDS_ONLY = 0.35
P_PAD_MASKED = 0.25
# compositional conditioning augmentation: on a small fraction of samples
# the conditioning is a donor prompt's embedding with the class-word row
# swapped in from the true prompt. This puts row-swapped embeddings on
# the training manifold, so single-row edits steer generation instead of
# producing out-of-distribution conditioning the denoiser ignores. The
# rate must stay small: a large rate makes the context rows unreliable
# and the model degenerates to reading the class row alone.
P_SWAP_AUG = 0.12


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 25000
    batch_size: int = 64
    lr: float = 1e-3
    lr_final: float | None = 5e-5  # cosine decay target; None = constant lr
    seed: int = 0
    log_every: int = 100


def training_prompts(world: WorldSpec, vocab: te.Vocabulary, max_len: int):
    """All (class, style word) prompt combinations, tokenized."""
    prompts = []
    token_rows = []
    for name, _ in world.classes:
        for style, _ in world.style_words:
            text = f"a photo of {name} {style}"
            prompts.append(text)
            token_rows.append(te.tokenize(vocab, text, max_len).ids)
    return prompts, np.asarray(token_rows, dtype=np.int64)


def class_word_position(world: WorldSpec, vocab: te.Vocabulary,
                        token_matrix: np.ndarray) -> int:
    """Token column of the class word, shared by every training prompt."""
    class_ids = [vocab.word_id(name) for name, _ in world.classes]
    per_prompt = np.repeat(class_ids, len(world.style_words))
    cols = np.flatnonzero((token_matrix == per_prompt[:, None]).all(axis=0))
    if cols.size != 1:
        raise ValueError("training prompts do not share one class-word column")
    return int(cols[0])


def flat_views(flat: np.ndarray, layout: list) -> list:
    """Views of consecutive slices of flat, shaped like each dict in layout."""
    out, start = [], 0
    for tensors in layout:
        views = {}
        for name, arr in tensors.items():
            views[name] = flat[start:start + arr.size].reshape(arr.shape)
            start += arr.size
        out.append(views)
    return out


def adam_update(p, g, m, v, step: int, lr, b1: float, b2: float,
                eps: float, scratch) -> None:
    """One Adam step on flat vectors in place; g is used as scratch too.

    Bitwise the textbook update p -= lr * mhat / (sqrt(vhat) + eps).
    """
    np.multiply(g, 1.0 - b1, out=scratch)
    m *= b1
    m += scratch
    np.multiply(g, 1.0 - b2, out=scratch)
    scratch *= g
    v *= b2
    v += scratch
    np.divide(v, 1.0 - b2**step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    np.divide(m, 1.0 - b1**step, out=g)
    g *= lr
    g /= scratch
    p -= g


def training_batches(world: WorldSpec, vocab: te.Vocabulary, sched: Schedule,
                     enc_cfg: te.EncoderConfig, cfg: DenoiserConfig,
                     bsz: int, rng: Rng):
    """Endless training batches of bsz samples, drawn from rng.

    Each step cuts one raw() pass over the stream into these segments, in
    stream order: the class of each sample (randint(C, B)), its style
    (uniform(B)), in a noisy world its pixel noise (normal(B * x_dim)),
    its step (randint(T, B)), its target noise (normal(B * x_dim)), its
    key mask (uniform(B)), whether it is swap augmented (uniform(B)) and
    its donor class (randint(C, B)). Each segment is converted where it
    is used, with the same bits as those calls give.
    """
    _, token_matrix = training_prompts(world, vocab, enc_cfg.max_len)
    n_classes = len(world.classes)
    n_styles = len(world.style_words)
    patterns = np.stack([p.ravel() for _, p in world.classes])
    noisy = world.noise_sigma > 0.0
    n_px = bsz * patterns.shape[1]
    normal_words = 2 * ((n_px + 1) // 2)
    # the step's segments; a noise-free world's noise segment is empty
    ends = np.cumsum([bsz, bsz, normal_words if noisy else 0, bsz,
                      normal_words, bsz, bsz, bsz]).tolist()
    segments = [slice(a, b) for a, b in zip([0, *ends], ends)]

    # tables by step index t_idx, the step being t_idx + 1
    sqrt_ab = sched.sqrt_ab[1:]
    sqrt_1m_ab = sched.sqrt_1mab[1:]
    t_table = time_features(np.arange(1, sched.T + 1), cfg.t_feat)
    sem_len = int(np.max(np.sum(token_matrix != te.PAD, axis=1)))
    class_pos = class_word_position(world, vocab, token_matrix)
    cols = np.arange(enc_cfg.max_len)
    # key masks by kind: words-only hides the EOS summary row and the PAD
    # tail, pad-masked only the PAD tail, and the rest hide nothing; a
    # sample's kind is how many of the bounds its key-mask draw reaches
    key_masks = np.stack([cols < sem_len - 1, cols < sem_len,
                          np.ones(enc_cfg.max_len, dtype=bool)])
    kind_bounds = np.array([P_WORDS_ONLY, P_WORDS_ONLY + P_PAD_MASKED])

    while True:
        words = rng.raw(ends[-1])
        (w_cls, w_style, w_noise, w_t, w_eps, w_keys, w_swap,
         w_donor) = (words[s] for s in segments)
        cls = randints(w_cls, n_classes)
        style = draw_style(uniforms(w_style))
        x0 = style[:, None] * patterns[cls]
        if noisy:
            x0 += world.noise_sigma * box_muller(uniforms(w_noise),
                                                 n_px).reshape(x0.shape)
        np.clip(x0, CLAMP_LO, CLAMP_HI, out=x0)
        # prompt index: class block + nearest style word
        nearest = world.nearest_style(style)
        prompt_ids = cls * n_styles + nearest
        t_idx = randints(w_t, sched.T)
        eps = box_muller(uniforms(w_eps), n_px).reshape(x0.shape)
        x_t = sqrt_ab[t_idx][:, None] * x0
        x_t += sqrt_1m_ab[t_idx][:, None] * eps
        allowed = key_masks[np.searchsorted(kind_bounds, uniforms(w_keys),
                                            side="right")]
        # compositional augmentation: condition on a donor prompt of a random
        # class with the true prompt's class-word row swapped in
        donor_ids = randints(w_donor, n_classes) * n_styles + nearest
        row_src = np.empty((bsz, enc_cfg.max_len), dtype=np.int64)
        row_src[...] = np.where(uniforms(w_swap) < P_SWAP_AUG, donor_ids,
                                prompt_ids)[:, None]
        row_src[:, class_pos] = prompt_ids
        yield Batch(x_t=x_t, eps_true=eps, token_matrix=token_matrix,
                    allowed=allowed, row_src=row_src, tf=t_table[t_idx])


def train(world: WorldSpec, vocab: te.Vocabulary, sched: Schedule,
          enc_cfg: te.EncoderConfig, cfg: DenoiserConfig,
          train_cfg: TrainConfig, on_log=None):
    """Joint Adam training of encoder and denoiser on the L1 objective.

    Trains fresh parameters, held as views of one flat vector, on
    training_batches() of the seed's data stream, and returns them with
    the log of (step, loss) pairs.
    on_log(step, loss, lr, grad_norm), if given, is called at every logged
    step; grad_norm is the L2 norm of that step's flat gradient.

    The run owns one workspace (see attend()) that every step's large
    arrays are written into, so a step allocates no large array; the
    returned parameters are the run's own flat vector and never alias it.
    """
    rng = Rng(train_cfg.seed)
    init_rng = rng.split(0)
    enc_params = te.init_encoder_params(enc_cfg, vocab.size, init_rng)
    den_params = init_denoiser_params(cfg, init_rng)
    batches = training_batches(world, vocab, sched, enc_cfg, cfg,
                               train_cfg.batch_size, rng.split(1))

    flat = np.concatenate([a.ravel() for t in (enc_params, den_params)
                           for a in t.values()])
    enc_params, den_params = flat_views(flat, [enc_params, den_params])
    grad = np.empty_like(flat)
    enc_g, den_g = flat_views(grad, [enc_params, den_params])
    m = np.zeros_like(flat)
    v2 = np.zeros_like(flat)
    scratch = np.empty_like(flat)
    work = {}

    log = []
    for step in range(1, train_cfg.steps + 1):
        loss, _, _ = loss_and_grads(enc_params, den_params, enc_cfg, cfg,
                                    next(batches), enc_g, den_g, work)
        if not np.isfinite(loss):
            raise FloatingPointError(f"train: non-finite loss at step {step}")
        if train_cfg.lr_final is None:
            lr = train_cfg.lr
        else:
            frac = (step - 1) / max(train_cfg.steps - 1, 1)
            lr = (train_cfg.lr_final + 0.5 * (train_cfg.lr - train_cfg.lr_final)
                  * (1.0 + np.cos(np.pi * frac)))
        logged = step % train_cfg.log_every == 0 or step == train_cfg.steps
        if logged:
            # before adam_update overwrites grad
            grad_norm = float(np.linalg.norm(grad))
        adam_update(flat, grad, m, v2, step, lr, ADAM_BETA1, ADAM_BETA2,
                    ADAM_EPS, scratch)
        if logged:
            log.append((step, loss))
            if on_log is not None:
                on_log(step, loss, lr, grad_norm)
    return enc_params, den_params, log


# ---------------------------------------------------------------------------
# checkpoint format: magic "EMB1", u32 tensor count, then per tensor
# u32 name length, UTF-8 name, u32 ndim, u32 dims[], little-endian f64 data
# ---------------------------------------------------------------------------

def save_checkpoint(path, tensors: dict) -> None:
    """Write tensors to path, one tensor's chunks at a time."""
    def chunks():
        yield b"EMB1" + struct.pack("<I", len(tensors))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            nb = name.encode("utf-8")
            yield (struct.pack("<I", len(nb)) + nb
                   + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
            yield arr.tobytes()
    write_in_place(path, chunks())


def load_checkpoint(path) -> dict:
    """The tensors of a checkpoint file, by name.

    The file is read into one float64 buffer, made anew for each load.
    Once the headers are parsed, each tensor's data moves forward to the
    end of the previous tensor's, so the tensors lie packed from the
    buffer's start, the rest of it zeroed, and each tensor is a writable
    view of its slice.
    """
    with open(path, "rb") as f:
        flat = np.empty(-(-os.fstat(f.fileno()).st_size // 8), dtype="<f8")
        raw = memoryview(flat).cast("B")
        buf = raw[:f.readinto(raw)]
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(buf) - pos:
            raise CheckpointError(f"checkpoint truncated: {what} needs {n} "
                                  f"bytes at offset {pos}, {len(buf) - pos} left")
        pos += n
        return buf[pos - n:pos]

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    if take(4, "magic") != b"EMB1":
        raise CheckpointError("bad checkpoint magic")
    spans = []
    for _ in range(u32("tensor count")):
        name = str(take(u32("name length"), "name"), "utf-8")
        ndim = u32(f"rank of {name!r}")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of {name!r}"))
        n = 8 * math.prod(dims)
        take(n, f"data of {name!r}")
        spans.append((name, dims, pos - n, n))
    if pos != len(buf):
        raise CheckpointError(f"{len(buf) - pos} trailing bytes after the last tensor")
    out, start = {}, 0
    for name, dims, offset, n in spans:
        raw[start:start + n] = raw[offset:offset + n]   # a memmove
        out[name] = flat[start // 8:(start + n) // 8].reshape(dims)
        start += n
    flat[start // 8:] = 0.0
    return out


def checkpoint_tensors(enc_params: dict, den_params: dict,
                       enc_cfg: te.EncoderConfig, cfg: DenoiserConfig,
                       sched: Schedule) -> dict:
    """The tensors that split_checkpoint turns back into these arguments."""
    tensors = {f"enc.{k}": v for k, v in enc_params.items()}
    tensors.update({f"den.{k}": v for k, v in den_params.items()})
    tensors["meta.enc_cfg"] = np.array(
        [enc_cfg.max_len, enc_cfg.dim, enc_cfg.n_blocks, enc_cfg.n_heads],
        dtype=np.float64)
    tensors["meta.den_cfg"] = np.array(
        [cfg.x_dim, cfg.d_h, cfg.d_a, cfg.t_feat, cfg.emb_dim, cfg.max_len],
        dtype=np.float64)
    tensors["meta.schedule"] = np.array(sched.spec, dtype=np.float64)
    return tensors


def _positive_ints(tensors: dict, name: str, n: int) -> list:
    arr = tensors[name]
    if arr.shape != (n,) or not (arr >= 1).all() or (arr != np.round(arr)).any():
        raise CheckpointError(f"tensor {name!r} must hold {n} positive integers")
    return [int(v) for v in arr]


def split_checkpoint(tensors: dict):
    """Parameters, configs and schedule of a checkpoint's tensors.

    Every tensor is checked against the configs in meta.*: a missing,
    extra or misshapen tensor raises CheckpointError naming it, as does a
    non-finite one, a head count that does not divide the encoder width or
    a schedule make_schedule rejects. The parameter dicts hold the tensors
    themselves, not copies.
    """
    # load_checkpoint's tensors view one buffer: one check clears them all,
    # and only a failed check looks for the tensor to name
    buffers = {id(b): b for b in (a.base if isinstance(a.base, np.ndarray)
                                  else a for a in tensors.values())}
    if not all(np.isfinite(b).all() for b in buffers.values()):
        for name, arr in tensors.items():
            if not np.isfinite(arr).all():
                raise CheckpointError(f"tensor {name!r} has non-finite values")
    for name in ("meta.enc_cfg", "meta.den_cfg", "meta.schedule", "enc.tok_emb"):
        if name not in tensors:
            raise CheckpointError(f"tensor {name!r} is missing")
    e = _positive_ints(tensors, "meta.enc_cfg", 4)
    d = _positive_ints(tensors, "meta.den_cfg", 6)
    enc_cfg = te.EncoderConfig(max_len=e[0], dim=e[1], n_blocks=e[2], n_heads=e[3])
    cfg = DenoiserConfig(x_dim=d[0], d_h=d[1], d_a=d[2], t_feat=d[3],
                         emb_dim=d[4], max_len=d[5])
    if enc_cfg.dim % enc_cfg.n_heads:
        raise CheckpointError(f"encoder head count {enc_cfg.n_heads} does not "
                              f"divide its dimension {enc_cfg.dim}")
    if (cfg.emb_dim, cfg.max_len) != (enc_cfg.dim, enc_cfg.max_len):
        raise CheckpointError(
            f"denoiser conditioning (emb_dim {cfg.emb_dim}, max_len "
            f"{cfg.max_len}) does not match the encoder (dim {enc_cfg.dim}, "
            f"max_len {enc_cfg.max_len})")
    # 10 tensors per encoder block, 4 more in the encoder, 8 in the
    # denoiser and 3 meta: a count check first keeps a tampered n_blocks
    # from building a huge shape table
    n_expected = 10 * enc_cfg.n_blocks + 15
    if len(tensors) != n_expected:
        raise CheckpointError(f"checkpoint has {len(tensors)} tensors, the "
                              f"configs in meta.* give {n_expected}")
    tok = tensors["enc.tok_emb"]
    vocab_size = tok.shape[0] if tok.ndim == 2 else -1
    expected = {"meta.enc_cfg": (4,), "meta.den_cfg": (6,), "meta.schedule": (3,)}
    expected.update({f"enc.{k}": s for k, s
                     in te.encoder_param_shapes(enc_cfg, vocab_size).items()})
    expected.update({f"den.{k}": s for k, s
                     in denoiser_param_shapes(cfg).items()})
    for name in sorted(expected.keys() | tensors.keys()):
        if name not in tensors:
            raise CheckpointError(f"tensor {name!r} is missing")
        if name not in expected:
            raise CheckpointError(f"unexpected tensor {name!r}")
        if tensors[name].shape != expected[name]:
            raise CheckpointError(f"tensor {name!r} has shape "
                                  f"{tensors[name].shape}, the configs in "
                                  f"meta.* give {expected[name]}")
    enc_params = {k[4:]: v for k, v in tensors.items() if k.startswith("enc.")}
    den_params = {k[4:]: v for k, v in tensors.items() if k.startswith("den.")}
    try:
        sched = make_schedule(*tensors["meta.schedule"].tolist())
    except ValueError as e:
        raise CheckpointError(f"tensor 'meta.schedule': {e}") from None
    return enc_params, den_params, enc_cfg, cfg, sched
