"""Noise schedules and their tables; DDPM and DDIM sampling; DDIM inversion.

Conventions: steps are 1-based (t = 1..T) with arrays stored 0-based and
the boundary value alpha_bar_0 := 1, which makes the step-1 posterior
variance exactly zero. The last reverse step returns the posterior mean.
"""

from dataclasses import dataclass, field

import numpy as np

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
    spec: tuple                # make_schedule's (T, beta_start, beta_end)
    # sqrt(alpha_bar_t), sqrt(1 - alpha_bar_t) and their ratio
    # sqrt(1 - alpha_bar_t) / sqrt(alpha_bar_t), index t = 0..T
    sqrt_ab: np.ndarray = field(init=False, repr=False)
    sqrt_1mab: np.ndarray = field(init=False, repr=False)
    noise_ratio: np.ndarray = field(init=False, repr=False)
    # the posterior q(x_{t-1} | x_t, x_0) = N(post_x0 x_0 + post_xt x_t,
    # post_sd^2), index t-1 (Ho et al., arXiv 2006.11239, eqs. 6-7);
    # post_sd[0] = 0
    post_x0: np.ndarray = field(init=False, repr=False)
    post_xt: np.ndarray = field(init=False, repr=False)
    post_sd: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = np.concatenate([[1.0], self.alpha_bars])
        sqrt_ab = np.sqrt(ab)
        object.__setattr__(self, "sqrt_ab", sqrt_ab)
        object.__setattr__(self, "sqrt_1mab", np.sqrt(1.0 - ab))
        object.__setattr__(self, "noise_ratio", self.sqrt_1mab / sqrt_ab)
        a, ab_prev, one_m_ab = self.alphas, ab[:-1], 1.0 - ab[1:]
        # nan where alpha_bar_t rounds to 1: the posterior is undefined
        # there, and only DDPM reads these tables. The order of operations
        # fixes the DDPM output bits
        with np.errstate(invalid="ignore", divide="ignore"):
            object.__setattr__(self, "post_x0",
                               sqrt_ab[:-1] * (1.0 - a) / one_m_ab)
            object.__setattr__(self, "post_xt",
                               np.sqrt(a) * (1.0 - ab_prev) / one_m_ab)
            object.__setattr__(self, "post_sd", np.sqrt(
                (1.0 - ab_prev) / one_m_ab * (1.0 - a)))

    @property
    def T(self) -> int:
        return self.alphas.shape[0]


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
    alphas = 1.0 - np.linspace(beta_start, beta_end, T)
    return Schedule(alphas=alphas, alpha_bars=np.cumprod(alphas),
                    spec=(T, beta_start, beta_end))


def _check_t(sched: Schedule, t: int) -> None:
    if not 1 <= t <= sched.T:
        raise ValueError(f"step {t} outside 1..{sched.T}")


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
    """Stochastic ancestral step; deterministic (the posterior mean) at t=1.

    rng draws each row's noise: an Rng with one key per row of x_t (one key
    for a single row (x_dim,)).
    """
    x0_hat = eps_to_x0(sched, x_t, eps_hat, t, clip_x0)
    mean = sched.post_x0[t - 1] * x0_hat + sched.post_xt[t - 1] * x_t
    if t == 1:
        return mean
    return mean + sched.post_sd[t - 1] * rng.normal(mean.shape[-1])


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
    DDPM mode needs rng, an Rng with one key per row of x_T (Rng(seeds) for
    B rows, one key for a single row (x_dim,)), so a row draws what its
    seed draws alone. clip_x0, when given, clamps the intermediate x0
    estimate to that range at every step (the usual clip-denoised
    stabilization; without it an imperfect predictor's errors compound
    geometrically along the chain).
    keep, a bool array (T, *x_T.shape) for clamped DDIM only, receives at
    row T - t step t's clamp mask (see ddim_step), for ddim_step_vjp.
    """
    if mode not in ("ddim", "ddpm"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ddpm" and (rng is None or rng.shape != np.shape(x_T)[:-1]):
        raise ValueError("ddpm mode needs an rng with one key per row of x_T")
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
