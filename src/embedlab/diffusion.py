"""DDPM forward/reverse mathematics and deterministic DDIM sampling/inversion.

Conventions: steps are 1-based (t = 1..T) with arrays stored 0-based and
the boundary value alpha_bar_0 := 1, which makes the step-1 posterior
variance exactly zero. The last reverse step returns the posterior mean.
"""

from dataclasses import dataclass, field

import numpy as np

from .rng import Rng


@dataclass(frozen=True)
class Schedule:
    alphas: np.ndarray         # alpha_t, index t-1
    alpha_bars: np.ndarray     # running products
    posterior_var: np.ndarray  # beta-tilde_t
    # sqrt(alpha_bar_t) and sqrt(1 - alpha_bar_t), index t = 0..T
    sqrt_ab: np.ndarray = field(init=False, repr=False)
    sqrt_1mab: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = np.concatenate([[1.0], self.alpha_bars])
        object.__setattr__(self, "sqrt_ab", np.sqrt(ab))
        object.__setattr__(self, "sqrt_1mab", np.sqrt(1.0 - ab))

    @property
    def T(self) -> int:
        return self.alphas.shape[0]

    def alpha_bar(self, t: int) -> float:
        """alpha_bar_t with the alpha_bar_0 = 1 convention."""
        return 1.0 if t == 0 else float(self.alpha_bars[t - 1])


@dataclass(frozen=True)
class GaussianParams:
    mean: np.ndarray
    variance: float


def make_schedule(T: int, beta_start: float, beta_end: float,
                  allow_zero_beta: bool = False) -> Schedule:
    if T < 1:
        raise ValueError("T must be >= 1")
    lo = 0.0 if allow_zero_beta else np.nextafter(0.0, 1.0)
    if not (lo <= beta_start <= beta_end < 1.0):
        raise ValueError(f"bad beta range ({beta_start}, {beta_end})")
    betas = np.linspace(beta_start, beta_end, T)
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    prev = np.concatenate([[1.0], alpha_bars[:-1]])
    with np.errstate(invalid="ignore", divide="ignore"):
        post = np.where(
            alpha_bars < 1.0,
            (1.0 - prev) / (1.0 - alpha_bars) * (1.0 - alphas),
            0.0,
        )
    return Schedule(alphas=alphas, alpha_bars=alpha_bars, posterior_var=post)


def _check_t(sched: Schedule, t: int) -> None:
    if not 1 <= t <= sched.T:
        raise ValueError(f"step {t} outside 1..{sched.T}")


def forward_step(sched: Schedule, x_prev: np.ndarray, t: int, rng: Rng) -> np.ndarray:
    """One draw from q(x_t | x_{t-1})."""
    _check_t(sched, t)
    a = sched.alphas[t - 1]
    return np.sqrt(a) * x_prev + np.sqrt(1.0 - a) * rng.normal(x_prev.shape)


def marginal_params(sched: Schedule, x0: np.ndarray, t: int) -> GaussianParams:
    """Closed-form q(x_t | x_0)."""
    _check_t(sched, t)
    ab = sched.alpha_bar(t)
    return GaussianParams(mean=np.sqrt(ab) * np.asarray(x0), variance=1.0 - ab)


def posterior_params(sched: Schedule, x_t, x0, t: int) -> GaussianParams:
    """q(x_{t-1} | x_t, x_0)."""
    _check_t(sched, t)
    ab_t = sched.alpha_bar(t)
    ab_prev = sched.alpha_bar(t - 1)
    a_t = sched.alphas[t - 1]
    if ab_t >= 1.0:
        raise ZeroDivisionError("posterior undefined: alpha_bar_t == 1")
    c0 = np.sqrt(ab_prev) * (1.0 - a_t) / (1.0 - ab_t)
    ct = np.sqrt(a_t) * (1.0 - ab_prev) / (1.0 - ab_t)
    mean = c0 * np.asarray(x0) + ct * np.asarray(x_t)
    return GaussianParams(mean=mean, variance=float(sched.posterior_var[t - 1]))


def eps_to_x0(sched: Schedule, x_t, eps_hat, t: int,
              clip_x0: tuple | None = None, out=None,
              scratch=None) -> np.ndarray:
    """x0 estimate; clip_x0, when given, clamps it to that range.

    out, if given, receives the estimate and may be x_t itself; scratch,
    if given, is an array shaped like x_t to hold the scaled noise. Both
    are new arrays when None.
    """
    _check_t(sched, t)
    if sched.sqrt_ab[t] <= 0.0:
        raise ZeroDivisionError("alpha_bar_t == 0")
    x0 = np.subtract(x_t, np.multiply(sched.sqrt_1mab[t], eps_hat, out=scratch),
                     out=out)
    x0 /= sched.sqrt_ab[t]
    if clip_x0 is not None:
        # np.clip's values, without its wrapper's cost on a small batch
        np.maximum(x0, clip_x0[0], out=x0)
        np.minimum(x0, clip_x0[1], out=x0)
    return x0


def ddpm_reverse_step(sched: Schedule, x_t, eps_hat, t: int, rng,
                      clip_x0: tuple | None = None) -> np.ndarray:
    """Stochastic ancestral step; deterministic (mean) at t=1.

    rng is one Rng, or a list of one Rng per row of x_t.
    """
    x0_hat = eps_to_x0(sched, x_t, eps_hat, t, clip_x0)
    post = posterior_params(sched, x_t, x0_hat, t)
    if t == 1 or post.variance == 0.0:
        return post.mean
    if isinstance(rng, Rng):
        noise = rng.normal(post.mean.shape)
    else:
        noise = np.stack([r.normal(row.shape)
                          for r, row in zip(rng, post.mean, strict=True)])
    return post.mean + np.sqrt(post.variance) * noise


def ddim_step(sched: Schedule, x_t, eps_hat, t: int,
              clip_x0: tuple | None = None, out=None,
              scratch=None) -> np.ndarray:
    """Deterministic (eta=0) update x_t -> x_{t-1}; clip_x0, out and
    scratch as in eps_to_x0 (so out=x_t advances x_t in place)."""
    x = eps_to_x0(sched, x_t, eps_hat, t, clip_x0, out, scratch)
    x *= sched.sqrt_ab[t - 1]
    x += np.multiply(sched.sqrt_1mab[t - 1], eps_hat, out=scratch)
    return x


def ddim_invert_step(sched: Schedule, x_prev, eps_hat, t: int) -> np.ndarray:
    """Algebraic inverse of ddim_step for the same eps_hat."""
    _check_t(sched, t)
    eps_hat = np.asarray(eps_hat)
    x = np.asarray(x_prev) - sched.sqrt_1mab[t - 1] * eps_hat
    x /= sched.sqrt_ab[t - 1]
    x *= sched.sqrt_ab[t]
    x += sched.sqrt_1mab[t] * eps_hat
    return x


def l1_objective(eps_true, eps_pred) -> float:
    """Mean absolute error over every coordinate (batch-mean convention)."""
    a = np.asarray(eps_true)
    b = np.asarray(eps_pred)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def sample(sched: Schedule, predict_eps, x_T: np.ndarray,
           mode: str = "ddim", rng=None,
           clip_x0: tuple | None = None) -> np.ndarray:
    """Run the full reverse chain from x_T, all (B, x_dim) rows at once.

    predict_eps(x_t, t) supplies the conditional noise estimate; the
    conditioning embedding and attention mask are closed over by the caller.
    Its result is used before the next call, so it may reuse one array,
    and x_t is the chain's own array: predict_eps must not keep it.
    DDPM mode needs rng: one Rng per row, so a row draws what it would draw
    alone. clip_x0, when given, clamps the intermediate x0 estimate to that
    range at every step (the usual clip-denoised stabilization; without it
    an imperfect predictor's errors compound geometrically along the chain).
    """
    if mode not in ("ddim", "ddpm"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ddpm" and rng is None:
        raise ValueError("ddpm mode needs an rng")
    # a copy of x_T that DDIM advances in place; the caller owns the result
    x = np.array(x_T, dtype=np.float64)
    scratch = np.empty_like(x)
    for t in range(sched.T, 0, -1):
        eps_hat = predict_eps(x, t)
        if mode == "ddim":
            ddim_step(sched, x, eps_hat, t, clip_x0, x, scratch)
        else:
            x = ddpm_reverse_step(sched, x, eps_hat, t, rng, clip_x0)
    return x


def ddim_invert(sched: Schedule, predict_eps, x0: np.ndarray,
                fp_iters: int = 8, fp_tol: float = 1e-12) -> np.ndarray:
    """Deterministic inversion x_0 -> x_T.

    The sampling step maps x_t -> x_{t-1} using eps(x_t, t), so its inverse
    is implicit in x_t. Each step solves that implicit equation by
    fixed-point iteration: start from the first-order guess that re-predicts
    the noise at the coarser state x_{t-1}, then repeatedly re-predict at
    the current candidate x_t and recompute the algebraic inverse until the
    candidate stabilizes (or fp_iters is exhausted). At the fixed point the
    sampling step applied to x_t reproduces x_{t-1} exactly, so errors do
    not accumulate along the chain the way they do under the plain
    first-order rule.
    """
    x = np.asarray(x0, dtype=np.float64)
    for t in range(1, sched.T + 1):
        eps_hat = predict_eps(x, t)
        cand = ddim_invert_step(sched, x, eps_hat, t)
        for _ in range(fp_iters):
            eps_hat = predict_eps(cand, t)
            nxt = ddim_invert_step(sched, x, eps_hat, t)
            done = np.max(np.abs(nxt - cand)) < fp_tol
            cand = nxt
            if done:
                break
        x = cand
    return x
