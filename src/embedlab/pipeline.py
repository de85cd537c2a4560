"""Trained-model bundle and conditional generation helpers."""

from dataclasses import dataclass

import numpy as np

from . import denoiser as dn
from . import text_encoder as te
from .diffusion import Schedule, ddim_invert, sample
from .rng import Rng
from .toyworld import CLAMP_HI, CLAMP_LO, IMAGE_DIM, WorldSpec


@dataclass
class ModelBundle:
    world: WorldSpec
    vocab: te.Vocabulary
    enc_cfg: te.EncoderConfig
    den_cfg: dn.DenoiserConfig
    sched: Schedule
    enc_params: dict
    den_params: dict

    def embed(self, text: str) -> te.TextEmbedding:
        tokens = te.tokenize(self.vocab, text, self.enc_cfg.max_len)
        return te.encode(self.enc_params, self.enc_cfg, tokens)

    def tokens(self, text: str) -> te.TokenSeq:
        return te.tokenize(self.vocab, text, self.enc_cfg.max_len)

    def predictor(self, emb, mask: dn.AttnMask | None = None):
        """Noise predictor for one chain, with the conditioning made once.

        emb: one embedding (TextEmbedding or (L, D)) or a stack of G (G, L, D).
        The chain's B rows belong to the G embeddings in G equal contiguous
        blocks: one shared embedding is G = 1, one per row is G = B.
        mask: (L,) for every row or (B, L) with one row each.

        The predictor owns the chain's workspace (see denoiser.attend): the
        eps it returns is overwritten by its next call, so each chain needs
        its own predictor, and what the chain returns must not be that eps.
        """
        data = emb.data if isinstance(emb, te.TextEmbedding) else emb
        cond = dn.condition(self.den_params, self.den_cfg, data)
        blocked = None if mask is None else ~mask.allowed
        t_proj = (dn.time_features(np.arange(1, self.sched.T + 1),
                                   self.den_cfg.t_feat) @ self.den_params["w_t"])
        work = {}

        def predict(x, t):
            return dn.attend(self.den_params, self.den_cfg, x, t_proj[t - 1],
                             cond, blocked, work=work)
        return predict

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

    def regenerate(self, emb, x_T: np.ndarray,
                   mask: dn.AttnMask | None = None) -> np.ndarray:
        """Deterministic DDIM regeneration from an inverted latent.

        Unlike generate(), the intermediate x0 estimate is not clamped:
        inversion solves the exact (unclamped) update, and along an inverted
        trajectory the estimate legitimately leaves the data range at high
        noise levels, so clamping would break the bijection and the round
        trip regenerate(invert(x0)) would no longer retrace x0.
        """
        return self.generate(emb, x_T, mask, clip_x0=None)

    def invert(self, emb, x0: np.ndarray,
               mask: dn.AttnMask | None = None) -> np.ndarray:
        x_T = ddim_invert(self.sched, self.predictor(emb, mask), x0)
        return _finite("invert", x_T)

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


def seed_noise(seed: int, n: int = IMAGE_DIM) -> np.ndarray:
    """The shared x_T for a given seed (stream 0 of the seed's generator)."""
    return Rng(seed).split(0).normal(n)
