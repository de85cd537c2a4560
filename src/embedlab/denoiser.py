"""Conditional noise predictor with single-head cross-attention.

The predictor maps (x_t, t, text embedding) to an estimate of the Gaussian
noise that produced x_t. Conditioning happens through cross-attention over
the L word-embedding rows, so masking individual words is meaningful.
Gradients of the L1 objective are derived by hand for every parameter of
both the denoiser and the text encoder, and are validated against central
finite differences in the test suite before any training result is trusted.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from . import text_encoder as te
from .diffusion import Schedule
from .rng import Rng
from .toyworld import IMAGE_DIM, CLAMP_HI, CLAMP_LO, WorldSpec


class TrainingError(RuntimeError):
    """Loss became non-finite during training."""


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


def init_denoiser_params(cfg: DenoiserConfig, rng: Rng) -> dict:
    s = 0.02
    return {
        "w_in": s * rng.normal((cfg.x_dim, cfg.d_h)),
        "w_t": s * rng.normal((cfg.t_feat, cfg.d_h)),
        "wq": s * rng.normal((cfg.d_h, cfg.d_a)),
        "wk": s * rng.normal((cfg.emb_dim, cfg.d_a)),
        "wv": s * rng.normal((cfg.emb_dim, cfg.d_a)),
        "wo": s * rng.normal((cfg.d_a, cfg.d_h)),
        "w1": s * rng.normal((cfg.d_h, cfg.d_h)),
        "w2": s * rng.normal((cfg.d_h, cfg.x_dim)),
    }


def time_features(t, n_feat: int) -> np.ndarray:
    """Sinusoidal features of the integer step index; shape (..., n_feat)."""
    t = np.asarray(t, dtype=np.float64)
    half = n_feat // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    arg = t[..., None] * freqs
    return np.concatenate([np.sin(arg), np.cos(arg)], axis=-1)


def condition(params, emb) -> dict:
    """Keys and values of one shared embedding (L, D) or of one per row (B, L, D)."""
    emb = np.asarray(emb, dtype=np.float64)
    # keys are computed from unit-normalized rows so attention depends only
    # on a row's direction; scaling a row then modulates its value
    # contribution linearly (the fader behaviour) instead of exponentially
    # re-routing attention toward it
    emb_norm = np.sqrt(np.einsum("...ld,...ld->...l", emb, emb)) + KEY_NORM_EPS
    emb_n = emb / emb_norm[..., None]
    return {"emb": emb, "emb_norm": emb_norm, "emb_n": emb_n,
            "k": np.einsum("...ld,da->...la", emb_n, params["wk"]),
            "v": np.einsum("...ld,da->...la", emb, params["wv"])}


def attend(params, cfg: DenoiserConfig, x, t_proj, cond: dict,
           allowed=None, need_tape: bool = False):
    """The forward pass after condition(); t_proj is time_features(t) @ w_t.

    Shared (L, d_a) keys and values go through BLAS products, per-row
    (B, L, d_a) ones through einsum. allowed: (B, L), (L,), or None for all.
    """
    scale = 1.0 / np.sqrt(cfg.d_a)
    k, v = cond["k"], cond["v"]
    # ReLUs and softmax work in place; backward reads the ReLU masks from
    # their outputs (h > 0 exactly where the pre-activation is > 0)
    h = x @ params["w_in"] + t_proj
    np.maximum(h, 0.0, out=h)
    q = h @ params["wq"]
    if k.ndim == 2:
        scores = (q @ k.T) * scale
    else:
        scores = np.einsum("ba,bla->bl", q, k) * scale
    if allowed is not None:
        scores = np.where(allowed, scores, -1e30)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores, out=scores)
    w /= w.sum(axis=-1, keepdims=True)
    ctx = w @ v if v.ndim == 2 else np.einsum("bl,bla->ba", w, v)
    h2 = h + ctx @ params["wo"]
    m = h2 @ params["w1"]
    np.maximum(m, 0.0, out=m)
    eps = m @ params["w2"]
    if need_tape:
        tape = dict(cond, x=x, h=h, q=q, w=w, ctx=ctx, h2=h2, m=m)
        return eps, tape
    return eps


def forward_batch(params, cfg: DenoiserConfig, x, t, emb, allowed,
                  need_tape: bool = False):
    """Batched forward pass.

    x: (B, x_dim), t: (B,), emb: (B, L, D), allowed: (B, L) bool.
    """
    x = np.asarray(x, dtype=np.float64)
    allowed = np.asarray(allowed, dtype=bool)
    if not allowed.any(axis=1).all():
        raise ValueError("attention mask with no allowed position")
    tf = time_features(t, cfg.t_feat)
    out = attend(params, cfg, x, tf @ params["w_t"], condition(params, emb),
                 allowed, need_tape)
    if need_tape:
        out[1]["tf"] = tf
    return out


def predict_eps(params, cfg: DenoiserConfig, x_t, t: int,
                emb, mask: AttnMask | None = None) -> np.ndarray:
    """Noise prediction as the sampler makes it; emb is (L, D) or a TextEmbedding."""
    data = emb.data if isinstance(emb, te.TextEmbedding) else emb
    return attend(params, cfg, np.asarray(x_t, dtype=np.float64),
                  time_features(t, cfg.t_feat) @ params["w_t"],
                  condition(params, data), None if mask is None else mask.allowed)


def backward_batch(params, cfg: DenoiserConfig, tape, deps):
    """Gradients w.r.t. denoiser params and the conditioning embeddings."""
    scale = 1.0 / np.sqrt(cfg.d_a)
    g = {}
    dm = deps @ params["w2"].T
    g["w2"] = tape["m"].T @ deps
    dm_pre = dm * (tape["m"] > 0.0)
    g["w1"] = tape["h2"].T @ dm_pre
    dh2 = dm_pre @ params["w1"].T
    dh = dh2.copy()
    dctx = dh2 @ params["wo"].T
    g["wo"] = tape["ctx"].T @ dh2
    w = tape["w"]
    dw = np.einsum("ba,bla->bl", dctx, tape["v"])
    dv = w[:, :, None] * dctx[:, None, :]
    dscores = (dw - (dw * w).sum(axis=-1, keepdims=True)) * w
    dq = np.einsum("bl,bla->ba", dscores, tape["k"]) * scale
    dk = dscores[:, :, None] * tape["q"][:, None, :] * scale
    g["wq"] = tape["h"].T @ dq
    dh += dq @ params["wq"].T
    g["wk"] = tape["emb_n"].reshape(-1, cfg.emb_dim).T @ dk.reshape(-1, cfg.d_a)
    g["wv"] = tape["emb"].reshape(-1, cfg.emb_dim).T @ dv.reshape(-1, cfg.d_a)
    # key path goes through the row normalization n = e / ||e||:
    # de = (dn - n (n . dn)) / ||e||
    dn = np.einsum("bla,da->bld", dk, params["wk"])
    emb_n = tape["emb_n"]
    dn_proj = np.einsum("bld,bld->bl", dn, emb_n)
    demb = (dn - emb_n * dn_proj[..., None]) / tape["emb_norm"][..., None]
    demb += np.einsum("bla,da->bld", dv, params["wv"])
    dh_pre = dh * (tape["h"] > 0.0)
    g["w_in"] = tape["x"].T @ dh_pre
    g["w_t"] = tape["tf"].T @ dh_pre
    return g, demb


@dataclass
class Batch:
    x_t: np.ndarray          # (B, x_dim)
    t: np.ndarray            # (B,)
    eps_true: np.ndarray     # (B, x_dim)
    prompt_ids: np.ndarray   # (B,) index into token_matrix
    token_matrix: np.ndarray  # (P, L) token ids of the distinct prompts
    allowed: np.ndarray | None = None  # (B, L) attention-key mask
    # conditioning construction: row l of sample b comes from encoded prompt
    # row_src[b, l] (defaults to prompt_ids[b] for every row) and is then
    # multiplied by row_scale[b, l] (defaults to 1)
    row_src: np.ndarray | None = None    # (B, L) int
    row_scale: np.ndarray | None = None  # (B, L) float


def _gather_conditioning(emb_all: np.ndarray, batch: Batch):
    """Assemble per-sample conditioning from the encoded prompt bank."""
    b = batch.x_t.shape[0]
    l = emb_all.shape[1]
    if batch.row_src is None:
        row_src = np.broadcast_to(batch.prompt_ids[:, None], (b, l))
    else:
        row_src = batch.row_src
    cols = np.broadcast_to(np.arange(l)[None, :], (b, l))
    emb = emb_all[row_src, cols]
    if batch.row_scale is not None:
        emb = emb * batch.row_scale[..., None]
    if batch.allowed is None:
        allowed = np.ones((b, l), dtype=bool)
    else:
        allowed = batch.allowed
    return emb, allowed, row_src, cols


def loss_and_grads(enc_params, den_params, enc_cfg: te.EncoderConfig,
                   cfg: DenoiserConfig, batch: Batch):
    """Joint L1 loss and exact gradients for encoder + denoiser parameters.

    Subgradient convention: d|u|/du = sign(u), zero at u = 0.
    """
    emb_all, enc_tape = te.encode_batch(
        enc_params, enc_cfg, batch.token_matrix,
        causal=True, pad_mask=False, need_tape=True)
    emb, allowed, row_src, cols = _gather_conditioning(emb_all, batch)
    eps_pred, tape = forward_batch(den_params, cfg, batch.x_t, batch.t,
                                   emb, allowed, need_tape=True)
    diff = eps_pred - batch.eps_true
    loss = float(np.mean(np.abs(diff)))
    deps = np.sign(diff) / diff.size
    den_grads, demb = backward_batch(den_params, cfg, tape, deps)
    if batch.row_scale is not None:
        demb = demb * batch.row_scale[..., None]
    demb_all = np.zeros_like(emb_all)
    np.add.at(demb_all, (row_src, cols), demb)
    enc_grads = te.encode_backward(enc_params, enc_cfg, enc_tape, demb_all)
    return loss, enc_grads, den_grads


def loss_only(enc_params, den_params, enc_cfg: te.EncoderConfig,
              cfg: DenoiserConfig, batch: Batch) -> float:
    """Forward-only L1 loss; used by finite-difference checks."""
    emb_all = te.encode_batch(enc_params, enc_cfg, batch.token_matrix,
                              causal=True, pad_mask=False)
    emb, allowed, _, _ = _gather_conditioning(emb_all, batch)
    eps_pred = forward_batch(den_params, cfg, batch.x_t, batch.t, emb, allowed)
    return float(np.mean(np.abs(eps_pred - batch.eps_true)))


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 25000
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    lr_final: float | None = 5e-5  # cosine decay target; None = constant lr
    seed: int = 0
    log_every: int = 100
    style_min: float = 0.3
    style_max: float = 1.0
    # conditioning-dropout augmentation. The causal encoder copies the whole
    # prompt's meaning into the EOS summary row, and a denoiser trained only
    # on full contexts learns to read that one row, which makes single-row
    # embedding edits generatively inert. Hiding the EOS/PAD keys on most
    # samples forces the class and style word rows to carry the signal.
    p_words_only: float = 0.35
    p_pad_masked: float = 0.25
    # compositional conditioning augmentation: on a small fraction of samples
    # the conditioning is a donor prompt's embedding with the class-word row
    # swapped in from the true prompt. This puts row-swapped embeddings on
    # the training manifold, so single-row edits steer generation instead of
    # producing out-of-distribution conditioning the denoiser ignores. The
    # rate must stay small: a large rate makes the context rows unreliable
    # and the model degenerates to reading the class row alone.
    p_swap_aug: float = 0.12


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


def train(world: WorldSpec, vocab: te.Vocabulary, sched: Schedule,
          enc_cfg: te.EncoderConfig, cfg: DenoiserConfig,
          train_cfg: TrainConfig,
          enc_params: dict | None = None, den_params: dict | None = None):
    """Joint Adam training of encoder and denoiser on the L1 objective."""
    rng = Rng(train_cfg.seed)
    init_rng = rng.split(0)
    data_rng = rng.split(1)
    if enc_params is None:
        enc_params = te.init_encoder_params(enc_cfg, vocab.size, init_rng)
    if den_params is None:
        den_params = init_denoiser_params(cfg, init_rng)
    prompts, token_matrix = training_prompts(world, vocab, enc_cfg.max_len)
    n_styles = len(world.style_words)

    patterns = np.stack([p.ravel() for _, p in world.classes])
    style_names = [s for s, _ in world.style_words]

    params = {("enc", k): v for k, v in enc_params.items()}
    params.update({("den", k): v for k, v in den_params.items()})
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}

    bsz = train_cfg.batch_size
    log = []
    for step in range(1, train_cfg.steps + 1):
        cls = data_rng.randint(len(world.classes), bsz)
        style = (train_cfg.style_min
                 + (train_cfg.style_max - train_cfg.style_min)
                 * data_rng.uniform(bsz))
        x0 = style[:, None] * patterns[cls]
        if world.noise_sigma > 0.0:
            x0 = x0 + world.noise_sigma * data_rng.normal(x0.shape)
        x0 = np.clip(x0, CLAMP_LO, CLAMP_HI)
        # prompt index: class block + nearest style word
        nearest = np.array([
            min(range(n_styles),
                key=lambda j: abs(world.style_words[j][1] - s))
            for s in style])
        prompt_ids = cls * n_styles + nearest
        t = data_rng.randint(sched.T, bsz) + 1
        eps = data_rng.normal(x0.shape)
        ab = sched.alpha_bars[t - 1][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        allowed = np.ones((bsz, enc_cfg.max_len), dtype=bool)
        u = data_rng.uniform(bsz)
        sem_len = int(np.max(np.sum(token_matrix != te.PAD, axis=1)))
        cols = np.arange(enc_cfg.max_len)
        words_sel = u < train_cfg.p_words_only
        pad_sel = ((u >= train_cfg.p_words_only)
                   & (u < train_cfg.p_words_only + train_cfg.p_pad_masked))
        # words-only: hide the EOS summary row and the PAD tail
        allowed[words_sel] = cols[None, :] < sem_len - 1
        # pad-masked: hide only the PAD tail
        allowed[pad_sel] = cols[None, :] < sem_len
        # compositional augmentation: condition on a donor prompt of a random
        # class with the true prompt's class-word row swapped in
        class_pos = sem_len - 3
        row_src = np.broadcast_to(prompt_ids[:, None],
                                  (bsz, enc_cfg.max_len)).copy()
        swap_sel = data_rng.uniform(bsz) < train_cfg.p_swap_aug
        donor_cls = data_rng.randint(len(world.classes), bsz)
        donor_ids = donor_cls * n_styles + nearest
        row_src[swap_sel] = donor_ids[swap_sel, None]
        row_src[swap_sel, class_pos] = prompt_ids[swap_sel]
        batch = Batch(x_t=x_t, t=t.astype(np.float64), eps_true=eps,
                      prompt_ids=prompt_ids, token_matrix=token_matrix,
                      allowed=allowed, row_src=row_src)
        loss, enc_g, den_g = loss_and_grads(enc_params, den_params,
                                            enc_cfg, cfg, batch)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at step {step}")
        grads = {("enc", k): v for k, v in enc_g.items()}
        grads.update({("den", k): v for k, v in den_g.items()})
        b1, b2 = train_cfg.beta1, train_cfg.beta2
        if train_cfg.lr_final is None:
            lr = train_cfg.lr
        else:
            frac = (step - 1) / max(train_cfg.steps - 1, 1)
            lr = (train_cfg.lr_final + 0.5 * (train_cfg.lr - train_cfg.lr_final)
                  * (1.0 + np.cos(np.pi * frac)))
        for key in params:
            gk = grads[key]
            m[key] = b1 * m[key] + (1.0 - b1) * gk
            v2[key] = b2 * v2[key] + (1.0 - b2) * gk * gk
            mhat = m[key] / (1.0 - b1**step)
            vhat = v2[key] / (1.0 - b2**step)
            params[key] -= lr * mhat / (np.sqrt(vhat) + train_cfg.adam_eps)
        if step % train_cfg.log_every == 0 or step == train_cfg.steps:
            log.append((step, loss))
    return enc_params, den_params, log


# ---------------------------------------------------------------------------
# checkpoint format: magic "EMB1", u32 tensor count, then per tensor
# u32 name length, UTF-8 name, u32 ndim, u32 dims[], little-endian f64 data
# ---------------------------------------------------------------------------

def save_checkpoint(path, tensors: dict) -> None:
    with open(path, "wb") as f:
        f.write(b"EMB1")
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    with open(path, "rb") as f:
        if f.read(4) != b"EMB1":
            raise ValueError("bad checkpoint magic")
        (count,) = struct.unpack("<I", f.read(4))
        out = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", f.read(4))
            name = f.read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<I", f.read(4))
            dims = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
            n = int(np.prod(dims)) if ndim else 1
            data = np.frombuffer(f.read(8 * n), dtype="<f8").reshape(dims)
            out[name] = data.astype(np.float64)
        return out


def checkpoint_tensors(enc_params: dict, den_params: dict,
                       enc_cfg: te.EncoderConfig, cfg: DenoiserConfig,
                       sched_meta: tuple) -> dict:
    tensors = {f"enc.{k}": v for k, v in enc_params.items()}
    tensors.update({f"den.{k}": v for k, v in den_params.items()})
    tensors["meta.enc_cfg"] = np.array(
        [enc_cfg.max_len, enc_cfg.dim, enc_cfg.n_blocks, enc_cfg.n_heads],
        dtype=np.float64)
    tensors["meta.den_cfg"] = np.array(
        [cfg.x_dim, cfg.d_h, cfg.d_a, cfg.t_feat, cfg.emb_dim, cfg.max_len],
        dtype=np.float64)
    tensors["meta.schedule"] = np.array(sched_meta, dtype=np.float64)
    return tensors


def split_checkpoint(tensors: dict):
    enc_params = {k[4:]: v.copy() for k, v in tensors.items()
                  if k.startswith("enc.")}
    den_params = {k[4:]: v.copy() for k, v in tensors.items()
                  if k.startswith("den.")}
    e = tensors["meta.enc_cfg"].astype(int)
    d = tensors["meta.den_cfg"].astype(int)
    enc_cfg = te.EncoderConfig(max_len=int(e[0]), dim=int(e[1]),
                               n_blocks=int(e[2]), n_heads=int(e[3]))
    cfg = DenoiserConfig(x_dim=int(d[0]), d_h=int(d[1]), d_a=int(d[2]),
                         t_feat=int(d[3]), emb_dim=int(d[4]), max_len=int(d[5]))
    sched_meta = tuple(tensors["meta.schedule"])
    return enc_params, den_params, enc_cfg, cfg, sched_meta
