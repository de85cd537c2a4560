"""DDPM marginals, posteriors and reverse steps; DDIM sampling and inversion.

Conventions: steps are 1-based (t = 1..T) with arrays stored 0-based and
the boundary value alpha_bar_0 := 1, which makes the step-1 posterior
variance exactly zero. The last reverse step returns the posterior mean.
"""

from dataclasses import dataclass, field

import numpy as np

from .rng import Rng

# ddim_invert's Picard sweeps (see there): the stop, the cap on sweeps per
# step beyond the first, and the most steps one sweep solves together
FP_ITERS = 8
FP_TOL = 1e-12
WINDOW = 20
# the most steps a schedule may have, 100 times the default T = 100. T comes
# from a flag or a checkpoint, and schedules, chains and training all hold
# tables of length T, so an unbounded T could ask for any amount of memory
MAX_T = 10_000


@dataclass(frozen=True)
class Schedule:
    alphas: np.ndarray         # alpha_t, index t-1
    alpha_bars: np.ndarray     # running products
    posterior_var: np.ndarray  # beta-tilde_t
    spec: tuple | None = None  # make_schedule's (T, beta_start, beta_end)
    # sqrt(alpha_bar_t), sqrt(1 - alpha_bar_t) and their ratio
    # sqrt(1 - alpha_bar_t) / sqrt(alpha_bar_t), index t = 0..T
    sqrt_ab: np.ndarray = field(init=False, repr=False)
    sqrt_1mab: np.ndarray = field(init=False, repr=False)
    noise_ratio: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = np.concatenate([[1.0], self.alpha_bars])
        object.__setattr__(self, "sqrt_ab", np.sqrt(ab))
        object.__setattr__(self, "sqrt_1mab", np.sqrt(1.0 - ab))
        object.__setattr__(self, "noise_ratio", self.sqrt_1mab / self.sqrt_ab)

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


def make_schedule(T: int, beta_start: float, beta_end: float) -> Schedule:
    """Linear betas over 1 <= T <= MAX_T whole steps;
    0 < beta_start <= beta_end < 1."""
    if not (T >= 1 and float(T).is_integer()):
        raise ValueError(f"T must be a positive integer, got {T}")
    if T > MAX_T:
        raise ValueError(f"T must be at most {MAX_T}, got {T}")
    T = int(T)
    if not (0.0 < beta_start <= beta_end < 1.0):
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
    return Schedule(alphas=alphas, alpha_bars=alpha_bars, posterior_var=post,
                    spec=(T, beta_start, beta_end))


def _check_t(sched: Schedule, t: int) -> None:
    if not 1 <= t <= sched.T:
        raise ValueError(f"step {t} outside 1..{sched.T}")


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
              scratch=None, keep=None) -> np.ndarray:
    """Deterministic (eta=0) update x_t -> x_{t-1}; clip_x0, out and
    scratch as in eps_to_x0 (so out=x_t advances x_t in place).

    keep, a bool array shaped like x_t for a clamped step, receives where
    the clamped x0 lies strictly inside clip_x0: the clamp's derivative
    as ddim_step_vjp reads it (an entry on a bound counts as clamped).
    """
    x = eps_to_x0(sched, x_t, eps_hat, t, clip_x0, out, scratch)
    if keep is not None:
        np.greater(x, clip_x0[0], out=keep)
        keep &= x < clip_x0[1]
    x *= sched.sqrt_ab[t - 1]
    x += np.multiply(sched.sqrt_1mab[t - 1], eps_hat, out=scratch)
    return x


def ddim_step_vjp(sched: Schedule, g, t: int, keep=None) -> tuple:
    """Adjoint of ddim_step: (dL/dx_t, dL/deps_hat) from g = dL/dx_{t-1}.

    x_{t-1} = sqrt(ab_{t-1}) clamp(x0) + sqrt(1 - ab_{t-1}) eps_hat with
    x0 = (x_t - sqrt(1 - ab_t) eps_hat) / sqrt(ab_t), so the clamp enters
    as its indicator mask keep (ddim_step's); None for an unclamped step.
    """
    _check_t(sched, t)
    gx = g * (sched.sqrt_ab[t - 1] / sched.sqrt_ab[t])
    if keep is not None:
        gx *= keep
    geps = sched.sqrt_1mab[t - 1] * g
    geps -= sched.sqrt_1mab[t] * gx
    return gx, geps


def ddim_invert_steps(sched: Schedule, x_lo, eps_hat, lo: int) -> np.ndarray:
    """The inverse of ddim_step for given noise estimates, composed over steps
    lo + 1, ..., lo + n in closed form.

    x_lo (..., x_dim) is the state at step lo and eps_hat (..., n, x_dim)
    each step's noise estimate in step order; returns x_{lo+1}, ..., x_{lo+n}
    as (..., n, x_dim). In y = x / sqrt(ab) one step is
    y_t = y_{t-1} + (r_t - r_{t-1}) eps_t with r_t = sqrt(1 - ab_t) / sqrt(ab_t),
    so the composition is one cumulative sum (r is sched.noise_ratio).
    """
    n = np.shape(eps_hat)[-2]
    _check_t(sched, lo + 1)
    _check_t(sched, lo + n)
    r = sched.noise_ratio
    y = (r[lo + 1:lo + n + 1] - r[lo:lo + n])[:, None] * eps_hat
    y[..., 0, :] += np.asarray(x_lo) / sched.sqrt_ab[lo]
    np.cumsum(y, axis=-2, out=y)
    y *= sched.sqrt_ab[lo + 1:lo + n + 1, None]
    return y


def l1_objective(eps_true, eps_pred) -> float:
    """Mean absolute error over every coordinate (batch-mean convention)."""
    a = np.asarray(eps_true)
    b = np.asarray(eps_pred)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def sample(sched: Schedule, predict_eps, x_T: np.ndarray,
           mode: str = "ddim", rng=None,
           clip_x0: tuple | None = None, keep=None) -> np.ndarray:
    """Run the full reverse chain from x_T, all (B, x_dim) rows at once.

    predict_eps(x_t, t) supplies the conditional noise estimate; the
    conditioning embedding and attention mask are closed over by the caller.
    Its result is used before the next call, so it may reuse one array,
    and x_t is the chain's own array: predict_eps must not keep it.
    DDPM mode needs rng: one Rng per row, so a row draws what it would draw
    alone. clip_x0, when given, clamps the intermediate x0 estimate to that
    range at every step (the usual clip-denoised stabilization; without it
    an imperfect predictor's errors compound geometrically along the chain).
    keep, a bool array (T, *x_T.shape) for clamped DDIM only, receives at
    row T - t step t's clamp mask (see ddim_step), for ddim_step_vjp.
    """
    if mode not in ("ddim", "ddpm"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ddpm" and rng is None:
        raise ValueError("ddpm mode needs an rng")
    if keep is not None and (mode != "ddim" or clip_x0 is None):
        raise ValueError("clamp masks are recorded by clamped DDIM only")
    # a copy of x_T that DDIM advances in place; the caller owns the result
    x = np.array(x_T, dtype=np.float64)
    scratch = np.empty_like(x)
    for t in range(sched.T, 0, -1):
        eps_hat = predict_eps(x, t)
        if mode == "ddim":
            ddim_step(sched, x, eps_hat, t, clip_x0, x, scratch,
                      None if keep is None else keep[sched.T - t])
        else:
            x = ddpm_reverse_step(sched, x, eps_hat, t, rng, clip_x0)
    return x


def ddim_invert(sched: Schedule, predict_eps, x0: np.ndarray) -> np.ndarray:
    """Deterministic inversion of one image x0 (x_dim,) or of B (B, x_dim).

    Returns the trajectory x_0, ..., x_T: (T + 1, x_dim) for one image and
    (B, T + 1, x_dim) for B.

    The sampling step maps x_t -> x_{t-1} using eps(x_t, t), so its inverse
    is implicit in x_t: x_t is the state whose ddim_step with eps(x_t, t)
    gives x_{t-1}.
    Picard sweeps over time solve these equations a window of up to WINDOW
    unsolved steps lo + 1..hi at a time. Each sweep predicts the noise at
    every window step's current x_t in one predict_eps call, then recomputes
    the window's states from the solved x_lo (ddim_invert_steps). The
    leading steps that moved by less than FP_TOL in every image are solved
    and the window slides past them; the step at the window's head is
    accepted as it stands after FP_ITERS + 1 sweeps. A step entering the
    window starts from the state before it, so its first sweep predicts the
    noise at the coarser state x_{t-1}. At the fixed point the sampling step
    applied to x_t reproduces x_{t-1} exactly, so errors do not accumulate
    along the chain the way they do under the plain first-order rule.

    predict_eps(x, t) receives a window's rows image-major (each image's
    steps contiguous, in step order) and t, an int array of each row's
    step; its result is used before the next call.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    T, x_dim = sched.T, x0.shape[-1]
    traj = np.empty((x0.size // x_dim, T + 1, x_dim))
    traj[:, 0] = x0.reshape(-1, x_dim)
    sweeps = np.zeros(T + 1, dtype=np.int64)
    lo = hi = 0
    while lo < T:
        top = min(lo + WINDOW, T)
        traj[:, hi + 1:top + 1] = traj[:, hi, None]
        hi = top
        win = traj[:, lo + 1:hi + 1]
        steps = np.arange(lo + 1, hi + 1)
        eps = predict_eps(win.reshape(-1, x_dim), np.tile(steps, len(traj)))
        new = ddim_invert_steps(sched, traj[:, lo], eps.reshape(win.shape), lo)
        done = np.abs(new - win).max(axis=(0, 2)) < FP_TOL
        win[...] = new
        sweeps[lo + 1:hi + 1] += 1
        done[0] |= sweeps[lo + 1] > FP_ITERS
        lo = hi if done.all() else lo + int(np.argmin(done))
    return traj if x0.ndim > 1 else traj[0]
