"""Optimization of the per-position soft mixing weight lambda.

lambda is parameterized as sigmoid(theta), so it stays strictly inside
(0, 1). The loss couples a directional surrogate of the CLIP loss (cosine
between the image change and the class-pattern change) with a background
preservation term. Gradients are exact: one reverse pass through the
clamped DDIM chain that gave the loss (ModelBundle.generate_vjp), then
through soft_mix and the sigmoid. `verify` checks them against central
finite differences on theta.
"""

from dataclasses import dataclass

import numpy as np

from .edit_ops import diff_positions, soft_mix
from .pipeline import ModelBundle, seed_noise
from .toyworld import background_mask

INIT_LOGIT = np.log(0.95 / 0.05)  # lambda in {0.05, 0.95} at init
EPS_GUARD = 1e-8
# optimize's line search: the first step length tried, then up to
# MAX_HALVINGS halvings of it
LR = 0.5
MAX_HALVINGS = 5


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LambdaParams:
    theta: np.ndarray

    def lam(self) -> np.ndarray:
        return sigmoid(self.theta)


@dataclass(frozen=True)
class OptConfig:
    steps: int = 150
    gamma: float = 1.0   # preservation weight
    seed: int = 0

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")


@dataclass
class LambdaContext:
    bundle: ModelBundle
    e_s: np.ndarray  # (L, D)
    e_t: np.ndarray
    diff: set
    x_T: np.ndarray
    i_s: np.ndarray
    b_s: np.ndarray
    b_t: np.ndarray
    bg: np.ndarray
    gamma: float


def make_context(bundle: ModelBundle, source_text: str, target_text: str,
                 cfg: OptConfig) -> LambdaContext:
    t_s = bundle.tokens(source_text)
    t_t = bundle.tokens(target_text)
    k_s = bundle.class_of_text(source_text)
    k_t = bundle.class_of_text(target_text)
    x_T = seed_noise(cfg.seed)
    e_s, e_t = bundle.embed([source_text, target_text])
    return LambdaContext(
        bundle=bundle,
        e_s=e_s,
        e_t=e_t,
        diff=diff_positions(t_s, t_t),
        x_T=x_T,
        i_s=bundle.generate(e_s, x_T),
        b_s=bundle.world.pattern(k_s).ravel(),
        b_t=bundle.world.pattern(k_t).ravel(),
        bg=background_mask(bundle.world, k_s, k_t),
        gamma=cfg.gamma,
    )


def row_losses(d: np.ndarray, ctx: LambdaContext) -> np.ndarray:
    """Directional-cosine semantic term plus weighted background term, one
    per row of the image changes d (N, x_dim)."""
    target_dir = ctx.b_t - ctx.b_s
    # row-wise sums, so a row's loss does not depend on the batch size
    denom = (np.sqrt(np.sum(d * d, axis=1)) * np.sqrt(target_dir @ target_dir)
             + EPS_GUARD)
    l_sem = -np.sum(d * target_dir, axis=1) / denom
    l_prec = np.sum(d[:, ctx.bg] ** 2, axis=1)
    return l_sem + ctx.gamma * l_prec


def _loss_grad(d: np.ndarray, ctx: LambdaContext) -> np.ndarray:
    """dL/dd of one image change d (x_dim,).

    The cosine term's subgradient is zero where d = 0, where the cosine
    has no direction, so the gradient is never NaN.
    """
    g = (2.0 * ctx.gamma) * (d * ctx.bg)
    target_dir = ctx.b_t - ctx.b_s
    norm_d = np.sqrt(d @ d)
    if norm_d > 0.0:
        norm_t = np.sqrt(target_dir @ target_dir)
        denom = norm_d * norm_t + EPS_GUARD
        g += ((d @ target_dir) * norm_t / (norm_d * denom) * d
              - target_dir) / denom
    return g


def surrogate_loss(lam: np.ndarray, ctx: LambdaContext):
    """The loss of one lam (L,), from one taped chain, and its gradient.

    Returns (loss, grad): grad() is dL/dlam, by one reverse pass through
    that chain and soft_mix, e* = lam e_s + (1 - lam) e_t.
    """
    e_star = soft_mix(ctx.e_s, ctx.e_t, lam)
    i_star, vjp = ctx.bundle.generate_vjp(e_star, ctx.x_T)
    d = i_star - ctx.i_s

    def grad() -> np.ndarray:
        demb = vjp(_loss_grad(d, ctx))
        return np.sum(demb * (ctx.e_s - ctx.e_t), axis=1)
    return float(row_losses(d[None], ctx)[0]), grad


def init_theta(length: int, diff: set) -> np.ndarray:
    """Hard-replace pattern softened to {0.05, 0.95}."""
    theta = np.full(length, INIT_LOGIT)
    for i in diff:
        theta[i] = -INIT_LOGIT
    return theta


def optimize(ctx: LambdaContext, cfg: OptConfig):
    """Gradient descent with backtracking halving; loss never increases.

    Each evaluated candidate keeps its chain's tape, so the accepted one's
    gradient costs one reverse pass.
    """
    length = ctx.e_s.shape[0]
    theta = init_theta(length, ctx.diff)
    loss, grad = surrogate_loss(sigmoid(theta), ctx)
    if not np.isfinite(loss):
        raise FloatingPointError("optimize: non-finite loss at initialization")
    trajectory = [(0, loss, sigmoid(theta).copy())]
    for step in range(1, cfg.steps + 1):
        lam = sigmoid(theta)
        g = grad() * (lam * (1.0 - lam))
        lr = LR
        for _ in range(MAX_HALVINGS + 1):
            cand = theta - lr * g
            cand_loss, cand_grad = surrogate_loss(sigmoid(cand), ctx)
            if not np.isfinite(cand_loss):
                raise FloatingPointError(
                    f"optimize: non-finite loss at step {step}")
            if cand_loss <= loss:
                theta, loss, grad = cand, cand_loss, cand_grad
                break
            lr *= 0.5
        # if no halving helped, keep theta: trajectory stays non-increasing
        trajectory.append((step, loss, sigmoid(theta).copy()))
    return LambdaParams(theta=theta), trajectory
