"""CLIP-style toy transformer text encoder.

Pre-norm residual blocks, multi-head scaled dot-product self-attention,
ReLU feed-forward, final layer norm. Attention is causal, as in CLIP, and
PAD positions are never masked, so PAD rows absorb information from the
semantic tokens.
Forward and backward passes are written out by hand so the encoder
can be trained jointly with the denoiser without an autodiff framework.
"""

from dataclasses import dataclass

import numpy as np

from .rng import Rng

BOS, EOS, PAD = 0, 1, 2
RESERVED = ("<bos>", "<eos>", "<pad>")
LN_EPS = 1e-5


class VocabularyError(ValueError):
    """A word is missing from the vocabulary."""


@dataclass(frozen=True)
class Vocabulary:
    words: tuple  # non-reserved words, in id order

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate words in vocabulary")

    @property
    def size(self) -> int:
        return len(RESERVED) + len(self.words)

    def word_id(self, word: str) -> int:
        try:
            return len(RESERVED) + self.words.index(word)
        except ValueError:
            raise VocabularyError(f"unknown word {word!r}") from None


def default_vocabulary() -> Vocabulary:
    return Vocabulary(
        ("a", "photo", "of", "hbar", "vbar", "cross", "diag", "dim", "bright")
    )


@dataclass(frozen=True)
class TokenSeq:
    ids: tuple
    semantic_len: int  # positions BOS..EOS inclusive

    def __post_init__(self):
        if self.ids[0] != BOS or self.ids[self.semantic_len - 1] != EOS:
            raise ValueError("token sequence must be BOS ... EOS PAD*")
        if any(t != PAD for t in self.ids[self.semantic_len:]):
            raise ValueError("non-PAD token after EOS")


def tokenize(vocab: Vocabulary, text: str, max_len: int) -> TokenSeq:
    words = text.split()
    if len(words) > max_len - 2:
        raise ValueError(f"text has {len(words)} words, max is {max_len - 2}")
    ids = [BOS] + [vocab.word_id(w) for w in words] + [EOS]
    semantic_len = len(ids)
    ids += [PAD] * (max_len - semantic_len)
    return TokenSeq(ids=tuple(ids), semantic_len=semantic_len)


@dataclass(frozen=True)
class EncoderConfig:
    max_len: int = 16
    dim: int = 32
    n_blocks: int = 2
    n_heads: int = 2


def work_array(work: dict | None, name: str, shape: tuple) -> np.ndarray:
    """work[name], (re)made when missing or shaped otherwise; a new array
    when work is None.

    A work dict holds the large arrays of one training run (or one sampling
    chain) from one call to the next, so a hot loop allocates no large
    array per iteration; whatever is written into it holds only until the
    next call that is given the same dict.
    """
    if work is None:
        return np.empty(shape)
    arr = work.get(name)
    if arr is None or arr.shape != shape:
        arr = work[name] = np.empty(shape)
    return arr


def encoder_param_shapes(cfg: EncoderConfig, vocab_size: int) -> dict:
    """Shape of every encoder tensor, in parameter order."""
    d = cfg.dim
    shapes = {"tok_emb": (vocab_size, d), "pos_emb": (cfg.max_len, d),
              "ln_f_g": (d,), "ln_f_b": (d,)}
    for i in range(cfg.n_blocks):
        for ln in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"):
            shapes[f"b{i}.{ln}"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"b{i}.{w}"] = (d, d)
        shapes[f"b{i}.w1"] = (d, 4 * d)
        shapes[f"b{i}.w2"] = (4 * d, d)
    return shapes


def init_encoder_params(cfg: EncoderConfig, vocab_size: int, rng: Rng) -> dict:
    """Gaussian(0, 0.02^2) weights; layer-norm gains 1, biases 0."""
    p = {}
    for name, shape in encoder_param_shapes(cfg, vocab_size).items():
        if name.endswith("_g"):
            p[name] = np.ones(shape)
        elif name.endswith("_b"):
            p[name] = np.zeros(shape)
        else:
            p[name] = 0.02 * rng.normal(shape)
    return p


def _layer_norm(x, g, b):
    # np.add.reduce and then a divide by n are the two ufunc calls that
    # ndarray.mean makes, without its Python wrapper; every array updated
    # in place here is fresh
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= n
    var += LN_EPS
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat = np.multiply(xc, inv, out=xc)
    out = g * xhat
    out += b
    return out, (xhat, inv, g)


def _layer_norm_backward(dy, cache, dg, db):
    """dL/dx of a layer norm; dg and db receive dL/dgain and dL/dbias."""
    xhat, inv, g = cache
    n = dy.shape[-1]
    rows = tuple(range(dy.ndim - 1))
    prod = dy * xhat
    np.add.reduce(prod, axis=rows, out=dg)
    np.add.reduce(dy, axis=rows, out=db)
    dxhat = dy * g
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= n
    m2 = np.add.reduce(np.multiply(dxhat, xhat, out=prod), axis=-1,
                       keepdims=True)
    m2 /= n
    # dx = inv * (dxhat - m1 - xhat * m2), written into dxhat
    dxhat -= m1
    dxhat -= np.multiply(xhat, m2, out=prod)
    dxhat *= inv
    return dxhat


def _attention_allowed(ids: np.ndarray) -> np.ndarray:
    """Boolean (B, L, L): may query position i attend to key position j,
    that is, j <= i."""
    b, l = ids.shape
    return np.repeat(np.tril(np.ones((l, l), dtype=bool))[None], b, axis=0)


def _rows_matmul(x, w, out=None):
    """x (..., n) @ w (n, m) as one 2-D product over every row of x.

    numpy's matmul makes one BLAS call per leading index of x; one call
    gives the same bits for every product it is used on here. It does not
    for dpre @ w1.T and dx1 @ wo.T in encode_backward (their bits changed
    on some batch shapes), which stay stacked.
    out, if given, is a C-contiguous (..., m) array that receives x @ w.
    """
    rows = x.reshape(-1, x.shape[-1])
    if out is None:
        return (rows @ w).reshape(x.shape[:-1] + (w.shape[-1],))
    np.matmul(rows, w, out=out.reshape(rows.shape[0], w.shape[-1]))
    return out


def block_forward(params, cfg: EncoderConfig, i: int, x: np.ndarray,
                  allowed: np.ndarray, need_tape: bool = False,
                  work: dict | None = None):
    """One pre-norm transformer block; x is (B, L, D), allowed is (B, L, L).

    work (see work_array) holds the (B, L, 4D) feed-forward arrays.
    """
    h = cfg.n_heads
    dh = cfg.dim // h
    scale = 1.0 / np.sqrt(dh)
    bsz, l, _ = x.shape
    xn, ln1 = _layer_norm(x, params[f"b{i}.ln1_g"], params[f"b{i}.ln1_b"])
    heads = (bsz, l, h, dh)
    qh = _rows_matmul(xn, params[f"b{i}.wq"]).reshape(heads).transpose(0, 2, 1, 3)
    kh = _rows_matmul(xn, params[f"b{i}.wk"]).reshape(heads).transpose(0, 2, 1, 3)
    vh = _rows_matmul(xn, params[f"b{i}.wv"]).reshape(heads).transpose(0, 2, 1, 3)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    np.copyto(scores, -1e30, where=~allowed[:, None, :, :])
    # the ufunc reductions behind ndarray.max and .sum, without the wrappers
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    w = np.exp(scores, out=scores)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    ctx = w @ vh
    merged = ctx.transpose(0, 2, 1, 3).reshape(bsz, l, cfg.dim)
    x1 = x + _rows_matmul(merged, params[f"b{i}.wo"])
    xn2, ln2 = _layer_norm(x1, params[f"b{i}.ln2_g"], params[f"b{i}.ln2_b"])
    ff = (bsz, l, 4 * cfg.dim)
    pre = _rows_matmul(xn2, params[f"b{i}.w1"],
                       out=work_array(work, f"enc.b{i}.pre", ff))
    act = np.maximum(pre, 0.0, out=work_array(work, f"enc.b{i}.act", ff))
    out = x1 + _rows_matmul(act, params[f"b{i}.w2"])
    if need_tape:
        return out, {"ln1": ln1, "xn": xn, "qh": qh, "kh": kh, "vh": vh,
                     "w": w, "merged": merged, "ln2": ln2, "xn2": xn2,
                     "pre": pre, "act": act}
    return out


def encode_batch(params, cfg: EncoderConfig, ids: np.ndarray,
                 need_tape: bool = False, work: dict | None = None):
    """Encode a (B, L) id batch to (B, L, D); optionally keep a backprop tape.

    work as for block_forward; it keeps the attention mask too, which
    depends only on the batch shape.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask_key = ("enc.allowed", ids.shape)
    allowed = None if work is None else work.get(mask_key)
    if allowed is None:
        allowed = _attention_allowed(ids)
        if work is not None:
            work[mask_key] = allowed

    x = params["tok_emb"][ids] + params["pos_emb"][None, :, :]
    tape = {"ids": ids, "blocks": []}
    for i in range(cfg.n_blocks):
        if need_tape:
            x, block_tape = block_forward(params, cfg, i, x, allowed,
                                          need_tape=True, work=work)
            tape["blocks"].append(block_tape)
        else:
            x = block_forward(params, cfg, i, x, allowed, work=work)
    out, ln_f = _layer_norm(x, params["ln_f_g"], params["ln_f_b"])
    if need_tape:
        tape["ln_f"] = ln_f
        return out, tape
    return out


def scatter_add_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, D) sums of the rows of (N, D) `rows` grouped by `index` (N,).

    The sums run in row order from zero, as np.add.at adds, so the result
    is bitwise that of np.add.at.
    """
    d = rows.shape[-1]
    slots = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(slots, weights=rows.ravel(),
                       minlength=n * d).reshape(n, d)


def encode_backward(params, cfg: EncoderConfig, tape, dout,
                    grads: dict | None = None, work: dict | None = None) -> dict:
    """Gradients of all encoder parameters given d(loss)/d(output).

    grads: arrays shaped like params to overwrite (e.g. views of one flat
    buffer); new arrays when None. work (see work_array) holds the
    feed-forward gradients.
    """
    h = cfg.n_heads
    dh = cfg.dim // h
    d = cfg.dim
    scale = 1.0 / np.sqrt(dh)
    if grads is None:
        grads = {k: np.empty_like(v) for k, v in params.items()}

    dx = _layer_norm_backward(dout, tape["ln_f"], grads["ln_f_g"],
                              grads["ln_f_b"])

    for i in reversed(range(cfg.n_blocks)):
        t = tape["blocks"][i]
        bsz, l, _ = dx.shape
        # feed-forward
        ff = t["pre"].shape
        dact = _rows_matmul(dx, params[f"b{i}.w2"].T,
                            out=work_array(work, "enc.dact", ff))
        np.matmul(t["act"].reshape(-1, 4 * d).T, dx.reshape(-1, d),
                  out=grads[f"b{i}.w2"])
        dpre = np.multiply(dact, t["pre"] > 0.0,
                           out=work_array(work, "enc.dpre", ff))
        np.matmul(t["xn2"].reshape(-1, d).T, dpre.reshape(-1, 4 * d),
                  out=grads[f"b{i}.w1"])
        dxn2 = dpre @ params[f"b{i}.w1"].T
        dx1 = _layer_norm_backward(dxn2, t["ln2"], grads[f"b{i}.ln2_g"],
                                   grads[f"b{i}.ln2_b"])
        dx1 += dx  # residual
        # attention
        np.matmul(t["merged"].reshape(-1, d).T, dx1.reshape(-1, d),
                  out=grads[f"b{i}.wo"])
        dmerged = dx1 @ params[f"b{i}.wo"].T
        dctx = dmerged.reshape(bsz, l, h, dh).transpose(0, 2, 1, 3)
        w = t["w"]
        dw = dctx @ t["vh"].swapaxes(-1, -2)
        dvh = w.swapaxes(-1, -2) @ dctx
        dscores = (dw - np.add.reduce(dw * w, axis=-1, keepdims=True)) * w
        dqh = (dscores @ t["kh"]) * scale
        dkh = (dscores.swapaxes(-1, -2) @ t["qh"]) * scale
        xn_flat = t["xn"].reshape(-1, d)
        dxn = 0.0
        for name, dpart in (("wq", dqh), ("wk", dkh), ("wv", dvh)):
            dpart = dpart.transpose(0, 2, 1, 3).reshape(bsz * l, d)
            np.matmul(xn_flat.T, dpart, out=grads[f"b{i}.{name}"])
            dxn = dxn + dpart @ params[f"b{i}.{name}"].T
        dx0 = _layer_norm_backward(dxn.reshape(bsz, l, d), t["ln1"],
                                   grads[f"b{i}.ln1_g"], grads[f"b{i}.ln1_b"])
        dx = dx0 + dx1  # residual

    grads["tok_emb"][...] = scatter_add_rows(
        tape["ids"].ravel(), dx.reshape(-1, d), params["tok_emb"].shape[0])
    dx.sum(axis=0, out=grads["pos_emb"])
    return grads
