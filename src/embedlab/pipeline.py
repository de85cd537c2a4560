"""The model bundle: making, saving and loading a model, and generating."""

import functools
from dataclasses import dataclass

import numpy as np

from . import denoiser as dn
from . import text_encoder as te
from .diffusion import (Schedule, ddim_invert, ddim_step_vjp, make_schedule,
                        sample)
from .rng import Rng, split_normals
from .toyworld import CLAMP_HI, CLAMP_LO, IMAGE_DIM, WorldSpec, default_world


@dataclass
class ModelBundle:
    world: WorldSpec
    vocab: te.Vocabulary
    enc_cfg: te.EncoderConfig
    den_cfg: dn.DenoiserConfig
    sched: Schedule
    enc_params: dict
    den_params: dict

    @classmethod
    def untrained(cls, rng: Rng) -> "ModelBundle":
        """Random weights at the default configs and schedule: the
        encoder's from rng.split(0), the denoiser's from rng.split(1)."""
        vocab = te.default_vocabulary()
        enc_cfg, den_cfg = te.EncoderConfig(), dn.DenoiserConfig()
        return cls(default_world(), vocab, enc_cfg, den_cfg,
                   make_schedule(100, 1e-3, 0.2),
                   te.init_encoder_params(enc_cfg, vocab.size, rng.split(0)),
                   dn.init_denoiser_params(den_cfg, rng.split(1)))

    @classmethod
    def load(cls, path) -> "ModelBundle":
        """The model a checkpoint file holds, in the default world and
        vocabulary, which the file does not record."""
        enc_params, den_params, enc_cfg, den_cfg, sched = dn.split_checkpoint(
            dn.load_checkpoint(path))
        vocab = te.default_vocabulary()
        n_tokens = enc_params["tok_emb"].shape[0]
        if n_tokens != vocab.size:
            raise dn.CheckpointError(f"tensor 'enc.tok_emb' embeds {n_tokens} "
                                     f"tokens, the vocabulary has {vocab.size}")
        return cls(default_world(), vocab, enc_cfg, den_cfg, sched,
                   enc_params, den_params)

    def save(self, path) -> None:
        """Write the weights, configs and schedule as a checkpoint file."""
        dn.save_checkpoint(path, dn.checkpoint_tensors(
            self.enc_params, self.den_params, self.enc_cfg, self.den_cfg,
            self.sched))

    def embed(self, text):
        """The embedding of one text, or a list of embeddings of a list of
        texts, from one encode_batch call.

        A text's rows do not depend on the others in the batch, so each
        embedding is bitwise the one its text gives alone.
        """
        texts = [text] if isinstance(text, str) else list(text)
        tokens = [self.tokens(t) for t in texts]
        data = te.encode_batch(self.enc_params, self.enc_cfg,
                               [t.ids for t in tokens])
        embs = [te.TextEmbedding(data=d, semantic_len=t.semantic_len)
                for d, t in zip(data, tokens)]
        return embs[0] if isinstance(text, str) else embs

    def tokens(self, text: str) -> te.TokenSeq:
        return te.tokenize(self.vocab, text, self.enc_cfg.max_len)

    @functools.cached_property
    def t_proj(self) -> np.ndarray:
        """(T, d_h): row t - 1 is step t's time_features(t) @ w_t, made on
        first use. Nothing changes den_params of a bundle once it is made."""
        t_proj = (dn.time_features(np.arange(1, self.sched.T + 1),
                                   self.den_cfg.t_feat)
                  @ self.den_params["w_t"])
        t_proj.flags.writeable = False
        return t_proj

    def predictor(self, emb, mask: dn.AttnMask | None = None,
                  tape: dict | None = None):
        """Noise predictor for one chain, with the conditioning made once.

        emb: one embedding (TextEmbedding or (L, D)) or a stack of G (G, L, D).
        The chain's B rows belong to the G embeddings in G equal contiguous
        blocks: one shared embedding is G = 1, one per row is G = B.
        mask: (L,) for every row or (B, L) with one row each.
        predict(x, t) takes one step t for every row, or an int array of one
        step per row.

        The predictor owns the chain's workspace (see denoiser.attend): the
        eps it returns is overwritten by its next call, so each chain needs
        its own predictor, and what the chain returns must not be that eps.

        tape, for a chain of one row, is a dict the predictor fills for
        denoiser.attend_reverse: the conditioning under "cond", and step
        t's h, w and m at row T - t of (T, d_h), (T, L) and (T, d_h) arrays.
        """
        data = emb.data if isinstance(emb, te.TextEmbedding) else emb
        params, cfg, T = self.den_params, self.den_cfg, self.sched.T
        cond = dn.condition(params, cfg, data)
        blocked = None if mask is None else ~mask.allowed
        t_proj = self.t_proj
        work = {}

        def predict(x, t):
            return dn.attend(params, cfg, x, t_proj[t - 1], cond, blocked,
                             work=work)
        if tape is None:
            return predict
        length = cond["qk"].shape[-1]
        tape.update(cond=cond, h=np.empty((T, cfg.d_h)),
                    w=np.empty((T, length)), m=np.empty((T, cfg.d_h)))

        def predict_taped(x, t):
            eps, step = dn.attend(params, cfg, x, t_proj[t - 1], cond,
                                  blocked, need_tape=True, work=work)
            for name in ("h", "w", "m"):
                tape[name][T - t] = step[name]
            return eps
        return predict_taped

    def generate(self, emb, x_T: np.ndarray,
                 mask: dn.AttnMask | None = None,
                 mode: str = "ddim", rng=None,
                 clip_x0: tuple | None = (CLAMP_LO, CLAMP_HI)) -> np.ndarray:
        """Generate from one noise (x_dim,) or, in one chain, B noises (B, x_dim).

        emb and mask as for predictor(): a stack of G embeddings conditions
        G equal blocks of rows. DDPM takes one Rng per row (one Rng for a
        single noise). x0 estimates are clamped to clip_x0.
        """
        x0 = sample(self.sched, self.predictor(emb, mask), x_T,
                    mode=mode, rng=rng, clip_x0=clip_x0)
        return _finite("generate", x0)

    def generate_vjp(self, emb, x_T: np.ndarray):
        """generate(emb, x_T) for one embedding and one noise, and its
        vector-Jacobian product.

        Returns the image, bitwise generate()'s, and vjp(g): dL/demb (L, D)
        for a loss L with dL/dimage = g, by one reverse pass through the
        chain's tape (any number of calls).
        """
        data = emb.data if isinstance(emb, te.TextEmbedding) else emb
        sched, params = self.sched, self.den_params
        if np.shape(x_T) != (self.den_cfg.x_dim,) or np.ndim(data) != 2:
            raise ValueError("generate_vjp takes one embedding and one noise")
        tape = {}
        keep = np.empty((sched.T,) + np.shape(x_T), dtype=bool)
        x0 = sample(sched, self.predictor(data, tape=tape), x_T,
                    clip_x0=(CLAMP_LO, CLAMP_HI), keep=keep)
        h, w, m, cond = tape["h"], tape["w"], tape["m"], tape["cond"]

        def vjp(g):
            dh2 = np.empty_like(h)
            ds = np.empty_like(w)
            gx = np.asarray(g, dtype=np.float64)
            for t in range(1, sched.T + 1):
                i = sched.T - t
                gx, geps = ddim_step_vjp(sched, gx, t, keep[i])
                gx += dn.attend_reverse(params, cond, h[i], w[i], m[i], geps,
                                        dh2[i], ds[i])
            return dn.condition_reverse(params, self.den_cfg, data,
                                        h.T @ ds, w.T @ dh2)
        return _finite("generate", x0), vjp

    def regenerate(self, emb, x_T: np.ndarray) -> np.ndarray:
        """Deterministic DDIM regeneration from an inverted latent.

        Unlike generate(), the intermediate x0 estimate is not clamped:
        inversion solves the exact (unclamped) update, and along an inverted
        trajectory the estimate legitimately leaves the data range at high
        noise levels, so clamping would break the bijection and the round
        trip regenerate(invert(x0)) would no longer retrace x0.
        """
        return self.generate(emb, x_T, clip_x0=None)

    def invert(self, emb, x0: np.ndarray) -> np.ndarray:
        """The DDIM latent x_T of one image (x_dim,) or, in one solve, of B
        images (B, x_dim).

        emb as for generate(): a stack of G embeddings conditions G equal
        blocks of images.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        x_T = ddim_invert(self.sched, self.predictor(emb), x0)[..., -1, :]
        return _finite("invert", x_T.copy())

    def class_of_text(self, text: str) -> int:
        words = set(text.split())
        for i, (name, _) in enumerate(self.world.classes):
            if name in words:
                return i
        raise ValueError(f"no class word in {text!r}")


def _finite(stage: str, x: np.ndarray) -> np.ndarray:
    """x, after checking that every row of a chain's output is finite."""
    ok = np.isfinite(x).all(axis=-1)
    if not ok.all():
        raise FloatingPointError(f"{stage}: non-finite output in row "
                                 f"{int(np.argmin(ok))} of {ok.size}")
    return x


def seed_noise(seeds) -> np.ndarray:
    """The shared x_T of a seed: stream 0 of the seed's generator.

    One seed gives (IMAGE_DIM,); a sequence of seeds gives (len(seeds),
    IMAGE_DIM), drawn in one pass, each row bitwise the draw of its seed
    alone.
    """
    if np.ndim(seeds) == 0:
        return split_normals([seeds], 0, IMAGE_DIM)[0]
    return split_normals(seeds, 0, IMAGE_DIM)
