"""Self-contained oracle and invariant suites for the `verify` command.

Every check re-derives its expected value through an independent route
(closed forms, naive re-implementations, Monte-Carlo estimates) and
compares against the library code. All randomness is seeded, so two runs
produce identical results byte for byte. Checks that need a trained model
are out of scope here; they live in the acceptance test suite.

The reference implementations that only checks and tests call live here
too, beside the checks that use them: PCA, alpha_bar_t, the single DDIM
inversion step, a one-step noise prediction and finite-difference lambda
gradients. No command runs them, so the library modules hold only what
commands run.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from . import denoiser as dn
from . import diffusion as df
from . import edit_ops as eo
from . import linalg as la
from . import semantics as sm
from . import text_encoder as te
from . import toyworld as tw
from .optimizer import (LambdaContext, OptConfig, make_context, row_losses,
                        sigmoid, surrogate_loss)
from .pipeline import ModelBundle
from .rng import Rng


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail


def _result(name, passed, detail):
    return CheckResult(name, bool(passed), detail)


# --------------------------------------------------------------- linalg

def _char_poly_3x3_roots(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 via its characteristic cubic."""
    tr = g[0, 0] + g[1, 1] + g[2, 2]
    minors = (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1]
              + g[0, 0] * g[2, 2] - g[0, 2] * g[2, 0]
              + g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    det = (g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1])
           - g[0, 1] * (g[1, 0] * g[2, 2] - g[1, 2] * g[2, 0])
           + g[0, 2] * (g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0]))
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(np.real(roots))[::-1]


def check_svd_cubic_gram(rng: Rng) -> CheckResult:
    a = rng.normal((5, 3))
    f = la.svd(a)
    recon = float(np.linalg.norm(f.reconstruct() - a) / np.linalg.norm(a))
    eigs = _char_poly_3x3_roots(a.T @ a)
    err = float(np.max(np.abs(np.sort(f.sigma**2)[::-1] - eigs)
                       / np.maximum(eigs, 1e-30)))
    ok = recon < 1e-10 and err < 1e-8
    return _result("linalg.svd_cubic_gram_oracle", ok,
                   f"recon={recon:.3e} eig_rel_err={err:.3e}")


def check_svd_properties(rng: Rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        m = rng.randint(7) + 2
        n = rng.randint(7) + 2
        a = rng.normal((m, n))
        f = la.svd(a)
        worst = max(worst, float(np.max(np.abs(f.reconstruct() - a))))
        worst = max(worst, float(np.max(np.abs(f.u.T @ f.u - np.eye(m)))))
        worst = max(worst, float(np.max(np.abs(f.vt @ f.vt.T - np.eye(n)))))
        if np.any(np.diff(f.sigma) > 1e-12):
            return _result("linalg.svd_properties", False, "sigma not descending")
    return _result("linalg.svd_properties", worst < 1e-8, f"max_err={worst:.3e}")


def check_gram_power_iteration(rng: Rng) -> CheckResult:
    a = rng.normal((6, 4))
    g = a.T @ a
    v = np.ones(4) / 2.0
    lam = 0.0
    for _ in range(3000):
        w = g @ v
        lam = float(np.sqrt(w @ w))
        v = w / lam
    # the top eigenpair of a^T a is sigma_0^2 and, up to sign, the first
    # right singular vector
    f = la.svd(a)
    err = abs(f.sigma[0] ** 2 - lam) / lam
    vec_err = float(min(np.linalg.norm(f.vt[0] - v),
                        np.linalg.norm(f.vt[0] + v)))
    return _result("linalg.gram_power_iteration", err < 1e-9 and vec_err < 1e-6,
                   f"rel_err={err:.3e} vec_err={vec_err:.3e}")


@dataclass(frozen=True)
class PcaResult:
    components: np.ndarray  # principal directions as columns
    variances: np.ndarray   # descending; all ~0 flags a degenerate input


def pca(a, centered: bool) -> PcaResult:
    """PCA via SVD. Uncentered mode works on a directly (Gram-matrix view)."""
    a = la.as_matrix(a)
    if centered:
        if a.shape[0] < 2:
            raise ValueError("centered PCA needs at least 2 rows")
        x = a - a.mean(axis=0, keepdims=True)
        denom = a.shape[0] - 1
    else:
        x = a
        denom = 1
    f = la.svd(x)
    n = a.shape[1]
    variances = np.zeros(n)
    variances[: f.sigma.shape[0]] = f.sigma**2 / denom
    return PcaResult(components=f.vt.T.copy(), variances=variances)


def check_pca_covariance(rng: Rng) -> CheckResult:
    a = rng.normal((8, 3))
    res = pca(a, centered=True)
    x = a - a.mean(axis=0)
    cov = x.T @ x / (a.shape[0] - 1)
    # eigendecompose the explicitly formed covariance, not through la.svd
    eigvals, eigvecs = np.linalg.eigh(cov)   # ascending
    err_v = float(np.max(np.abs(res.variances[:3] - eigvals[::-1])))
    err_c = 0.0
    for j in range(3):
        c = res.components[:, j]
        r = eigvecs[:, 2 - j]
        err_c = max(err_c, float(min(np.max(np.abs(c - r)),
                                     np.max(np.abs(c + r)))))
    ok = err_v < 1e-8 and err_c < 1e-8
    return _result("linalg.pca_covariance_oracle", ok,
                   f"var_err={err_v:.3e} comp_err={err_c:.3e}")


# ------------------------------------------------------------- toyworld

def check_world_correlations(rng: Rng) -> CheckResult:
    world = tw.default_world()
    pats = [p.ravel() for _, p in world.classes]
    worst = 0.0
    for i in range(len(pats)):
        for j in range(i + 1, len(pats)):
            corr = abs(pats[i] @ pats[j]) / (np.linalg.norm(pats[i])
                                             * np.linalg.norm(pats[j]))
            worst = max(worst, float(corr))
    return _result("toyworld.pattern_correlations", worst < 0.5,
                   f"max_corr={worst:.3f}")


def check_world_render_mean(rng: Rng) -> CheckResult:
    world = tw.default_world()
    n = 10_000
    acc = np.zeros(tw.IMAGE_DIM)
    for _ in range(n):
        acc += tw.render(world, 0, 0.7, rng).x0
    mean = acc / n
    expect = 0.7 * world.pattern(0).ravel()
    bound = 3.0 * world.noise_sigma / np.sqrt(n)
    err = float(np.max(np.abs(mean - expect)))
    return _result("toyworld.render_mean_mc", err < bound,
                   f"max_dev={err:.5f} bound={bound:.5f}")


def check_world_classify_mc(rng: Rng) -> CheckResult:
    world = tw.default_world()
    hits = sum(
        tw.oracle_classify(world, tw.render(world, 1, 0.7, rng).x0)[0] == 1
        for _ in range(1000))
    return _result("toyworld.classify_mc", hits >= 999, f"hits={hits}/1000")


def check_world_style_mc(rng: Rng) -> CheckResult:
    world = tw.default_world()
    n = 10_000
    est = np.mean([tw.oracle_style(world, tw.render(world, 0, 0.7, rng).x0, 0)
                   for _ in range(n)])
    err = abs(float(est) - 0.7)
    return _result("toyworld.style_estimator_mc", err < 0.01, f"err={err:.5f}")


# ------------------------------------------------------------ diffusion

def alpha_bar(sched: df.Schedule, t: int) -> float:
    """alpha_bar_t with the alpha_bar_0 = 1 convention."""
    return 1.0 if t == 0 else float(sched.alpha_bars[t - 1])


def check_schedule_product(rng: Rng) -> CheckResult:
    sched = df.make_schedule(100, 1e-4, 0.02)
    prod = 1.0
    betas = np.linspace(1e-4, 0.02, 100)
    for b in betas:
        prod *= 1.0 - b
    err = abs(alpha_bar(sched, 100) - prod)
    ok = (err < 1e-12 and alpha_bar(sched, 0) == 1.0
          and sched.post_sd[0] == 0.0)
    return _result("diffusion.schedule_product_oracle", ok, f"err={err:.3e}")


def check_chain_composition_mc(rng: Rng) -> CheckResult:
    """Forward noising composed step by step against the marginal tables
    that training reads: q(x_t | x_0) has mean sqrt_ab[t] x_0 and variance
    sqrt_1mab[t]^2."""
    sched = df.make_schedule(100, 1e-3, 0.2)
    n = 20_000
    x0 = 0.8
    details = []
    ok = True
    for t_target in (1, 50, 100):
        x = np.full(n, x0)
        for t in range(1, t_target + 1):
            a = sched.alphas[t - 1]
            x = np.sqrt(a) * x + np.sqrt(1.0 - a) * rng.normal(n)
        mean = sched.sqrt_ab[t_target] * x0
        var = sched.sqrt_1mab[t_target] ** 2
        se_mean = np.sqrt(var / n)
        mean_dev = abs(float(x.mean()) - mean)
        # variance of the sample variance for a Gaussian: 2 sigma^4 / (n-1)
        se_var = np.sqrt(2.0 * var**2 / (n - 1))
        var_dev = abs(float(x.var()) - var)
        ok = ok and mean_dev < 3.0 * se_mean and var_dev < 3.0 * se_var
        details.append(f"t={t_target}:dm={mean_dev:.4f},dv={var_dev:.4f}")
    return _result("diffusion.chain_composition_mc", ok, " ".join(details))


def check_posterior_bayes(rng: Rng) -> CheckResult:
    """The schedule's posterior tables against the Bayes product of the
    forward step and the marginal, at a fixed scalar case and 100 random
    steps."""
    def table_err(sched, t, x_t, x0, mean_o, var_o):
        mean = sched.post_x0[t - 1] * x0 + sched.post_xt[t - 1] * x_t
        return max(abs(mean - mean_o), abs(sched.post_sd[t - 1] ** 2 - var_o))

    # fixed scalar case first: alphas 0.95 and 0.9, alpha_bars 0.95 and 0.855
    sched2 = df.make_schedule(2, 0.05, 0.1)
    # Bayes product of N(x2; sqrt(a2) x1, 1-a2) and N(x1; sqrt(ab1) x0, 1-ab1)
    prec = 0.9 / (1 - 0.9) + 1.0 / (1 - 0.95)
    var_o = 1.0 / prec
    mean_o = var_o * (np.sqrt(0.9) * 0.5 / (1 - 0.9)
                      + np.sqrt(0.95) * 1.0 / (1 - 0.95))
    worst = table_err(sched2, 2, 0.5, 1.0, mean_o, var_o)
    sched = df.make_schedule(100, 1e-3, 0.2)
    for _ in range(100):
        t = rng.randint(99) + 2
        x0 = rng.normal()
        x_t = rng.normal()
        a_t = sched.alphas[t - 1]
        ab_prev = alpha_bar(sched, t - 1)
        prec = a_t / (1.0 - a_t) + 1.0 / (1.0 - ab_prev)
        var_o = 1.0 / prec
        mean_o = var_o * (np.sqrt(a_t) * x_t / (1.0 - a_t)
                          + np.sqrt(ab_prev) * x0 / (1.0 - ab_prev))
        worst = max(worst, table_err(sched, t, x_t, x0, mean_o, var_o))
    return _result("diffusion.posterior_bayes_oracle", worst < 1e-12,
                   f"max_err={worst:.3e}")


def check_eps_x0_roundtrip(rng: Rng) -> CheckResult:
    sched = df.make_schedule(100, 1e-3, 0.2)
    worst = 0.0
    for _ in range(1000):
        t = rng.randint(100) + 1
        x0 = rng.normal(4)
        eps = rng.normal(4)
        ab = alpha_bar(sched, t)
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        back = df.eps_to_x0(sched, x_t, eps, t)
        worst = max(worst, float(np.max(np.abs(back - x0))))
    return _result("diffusion.eps_x0_roundtrip", worst < 1e-12,
                   f"max_err={worst:.3e}")


def check_reverse_step_stats(rng: Rng) -> CheckResult:
    sched = df.make_schedule(100, 1e-3, 0.2)
    t = 60
    x0 = rng.normal(4)
    eps = rng.normal(4)
    ab = alpha_bar(sched, t)
    x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    mean = sched.post_x0[t - 1] * x0 + sched.post_xt[t - 1] * x_t
    var = sched.post_sd[t - 1] ** 2
    n = 10_000
    draws = np.stack([df.ddpm_reverse_step(sched, x_t, eps, t, rng)
                      for _ in range(n)])
    mean_dev = float(np.max(np.abs(draws.mean(axis=0) - mean)))
    mean_bound = 3.0 * np.sqrt(var / n)
    var_rel = abs(float(np.mean(draws.var(axis=0))) - var) / var
    ok = mean_dev < mean_bound and var_rel < 0.05
    return _result("diffusion.reverse_step_stats", ok,
                   f"mean_dev={mean_dev:.5f} var_rel_err={var_rel:.4f}")


def check_l1_sum_oracle(rng: Rng) -> CheckResult:
    a = rng.normal((7, 5))
    b = rng.normal((7, 5))
    direct = sum(abs(a[i, j] - b[i, j]) for i in range(7) for j in range(5)) / 35
    err = abs(df.l1_objective(a, b) - direct)
    return _result("diffusion.l1_sum_oracle", err < 1e-15, f"err={err:.3e}")


def check_zero_denoiser_trajectory(rng: Rng) -> CheckResult:
    sched = df.make_schedule(20, 1e-3, 0.2)
    x_T = rng.normal((3, 6))

    def predict(x, t):
        return np.zeros_like(x)

    got = df.sample(sched, predict, x_T, mode="ddim")
    # step-by-step oracle: with eps_hat = 0, x_{t-1} = sqrt(ab_{t-1}/ab_t) x_t
    x = x_T.copy()
    for t in range(sched.T, 0, -1):
        x = np.sqrt(alpha_bar(sched, t - 1) / alpha_bar(sched, t)) * x
    err = float(np.max(np.abs(got - x)))
    return _result("diffusion.zero_predictor_trajectory", err < 1e-10,
                   f"max_err={err:.3e}")


def ddim_invert_step(sched: df.Schedule, x_prev, eps_hat,
                     t: int) -> np.ndarray:
    """Algebraic inverse of ddim_step for the same eps_hat."""
    eps_hat = np.asarray(eps_hat)
    x = np.asarray(x_prev) - sched.sqrt_1mab[t - 1] * eps_hat
    x /= sched.sqrt_ab[t - 1]
    x *= sched.sqrt_ab[t]
    x += sched.sqrt_1mab[t] * eps_hat
    return x


def check_picard_inversion(rng: Rng) -> CheckResult:
    """ddim_invert's windowed Picard sweeps against two oracles.

    With a predictor that depends only on t the trajectory is
    ddim_invert_step composed step by step. On the Rng(99) untrained model
    every step t of the returned trajectory satisfies its own equation
    x_t = ddim_invert_step(x_{t-1}, eps(x_t, t), t).
    """
    sched = df.make_schedule(100, 1e-3, 0.2)
    table = rng.normal((sched.T + 1, 8))
    x0 = rng.normal((2, 8))
    traj = df.ddim_invert(sched, lambda x, t: table[t], x0)
    x, err = x0, 0.0
    for t in range(1, sched.T + 1):
        x = ddim_invert_step(sched, x, table[t], t)
        err = max(err, float(np.max(np.abs(traj[:, t] - x))))
    bundle = ModelBundle.untrained(Rng(99))
    predict = bundle.predictor(bundle.embed("a photo of cross dim"))
    traj = df.ddim_invert(sched, predict, np.clip(0.3 * rng.normal((2, 64)),
                                                  tw.CLAMP_LO, tw.CLAMP_HI))
    residual = max(float(np.max(np.abs(
        ddim_invert_step(sched, traj[:, t - 1], predict(traj[:, t], t), t)
        - traj[:, t]))) for t in range(1, sched.T + 1))
    ok = err < 1e-12 and residual < 4 * df.FP_TOL
    return _result("diffusion.picard_inversion", ok,
                   f"vs_steps={err:.3e} fixed_point_residual={residual:.3e}")


# --------------------------------------------------------- text encoder

def check_encoder_causal_prefix(rng: Rng) -> CheckResult:
    vocab = te.default_vocabulary()
    cfg = te.EncoderConfig()
    for trial in range(10):
        params = te.init_encoder_params(cfg, vocab.size, rng.split(trial))
        t1 = te.tokenize(vocab, "a photo of hbar dim", cfg.max_len)
        t2 = te.tokenize(vocab, "a photo of vbar dim", cfg.max_len)
        e1 = te.encode_batch(params, cfg, [t1.ids])[0]
        e2 = te.encode_batch(params, cfg, [t2.ids])[0]
        # first differing token is position 4; prefix rows must match exactly
        if not np.array_equal(e1[:4], e2[:4]):
            return _result("encoder.causal_prefix", False,
                           f"prefix rows differ at trial {trial}")
        if np.array_equal(e1[4:], e2[4:]):
            return _result("encoder.causal_prefix", False,
                           f"suffix rows identical at trial {trial}")
    return _result("encoder.causal_prefix", True, "10 random draws exact")


def check_encoder_pad_witness(rng: Rng) -> CheckResult:
    vocab = te.default_vocabulary()
    cfg = te.EncoderConfig()
    params = te.init_encoder_params(cfg, vocab.size, rng)
    t1 = te.tokenize(vocab, "a photo of hbar dim", cfg.max_len)
    t2 = te.tokenize(vocab, "a photo of vbar dim", cfg.max_len)
    e1 = te.encode_batch(params, cfg, [t1.ids])[0]
    e2 = te.encode_batch(params, cfg, [t2.ids])[0]
    sem = t1.semantic_len
    dist = np.linalg.norm(e1[sem:] - e2[sem:], axis=1)
    return _result("encoder.pad_information_witness", float(dist.max()) > 1e-6,
                   f"max_pad_row_l2={float(dist.max()):.3e}")


def check_encoder_bos_constancy(rng: Rng) -> CheckResult:
    vocab = te.default_vocabulary()
    cfg = te.EncoderConfig()
    params = te.init_encoder_params(cfg, vocab.size, rng)
    prompts = ["a photo of hbar dim", "a photo of cross bright", "diag dim"]
    rows = [te.encode_batch(params, cfg,
                            [te.tokenize(vocab, p, cfg.max_len).ids])[0, 0]
            for p in prompts]
    ok = all(np.array_equal(rows[0], r) for r in rows[1:])
    return _result("encoder.bos_row_constancy", ok,
                   "BOS row bitwise-identical across prompts" if ok
                   else "BOS row varies")


# ------------------------------------------------------------- denoiser

def predict_eps(params, cfg: dn.DenoiserConfig, x_t, t: int,
                emb, mask: dn.AttnMask | None = None) -> np.ndarray:
    """Noise prediction as the sampler makes it; emb as for condition()."""
    return dn.attend(params, cfg, np.asarray(x_t, dtype=np.float64),
                     dn.time_features(t, cfg.t_feat) @ params["w_t"],
                     dn.condition(params, cfg, emb),
                     None if mask is None else ~mask.allowed)


def check_denoiser_forward_oracle(rng: Rng) -> CheckResult:
    """One row against a straight-line scalar re-implementation, then a
    grouped chain step: two embeddings conditioning two rows each."""
    cfg = dn.DenoiserConfig(x_dim=6, d_h=5, d_a=4, t_feat=4, emb_dim=3, max_len=4)
    params = dn.init_denoiser_params(cfg, rng)
    t = 7
    tf = np.zeros(4)
    for i in range(2):
        f = 10000.0 ** (-i / 2)
        tf[i] = np.sin(t * f)
        tf[i + 2] = np.cos(t * f)

    def ref(x, emb, allowed):
        h = np.maximum(x @ params["w_in"] + tf @ params["w_t"], 0.0)
        q = h @ params["wq"]
        scores = []
        for j in range(4):
            kj = (emb[j] / (np.sqrt(emb[j] @ emb[j]) + 1e-12)) @ params["wk"]
            scores.append((q @ kj) / np.sqrt(cfg.d_a) if allowed[j] else -np.inf)
        scores = np.asarray(scores)
        w = np.exp(scores - scores[np.isfinite(scores)].max())
        w[~allowed] = 0.0
        w /= w.sum()
        ctx = sum(w[j] * (emb[j] @ params["wv"]) for j in range(4))
        h2 = h + ctx @ params["wo"]
        return np.maximum(h2 @ params["w1"], 0.0) @ params["w2"]

    x = rng.normal(6)
    emb = rng.normal((4, 3))
    allowed = np.array([True, True, False, True])
    got = predict_eps(params, cfg, x, t, emb, dn.AttnMask(allowed))
    err = float(np.max(np.abs(got - ref(x, emb, allowed))))
    xs = rng.normal((4, 6))
    embs = rng.normal((2, 4, 3))
    rows = np.array([[True, True, False, True], [True, True, True, True],
                     [False, True, True, False], [True, False, True, True]])
    got = predict_eps(params, cfg, xs, t, embs, dn.AttnMask(rows))
    for i in range(4):
        err = max(err, float(np.max(np.abs(got[i] - ref(xs[i], embs[i // 2],
                                                          rows[i])))))
    return _result("denoiser.forward_oracle", err < 1e-12, f"max_err={err:.3e}")


def check_denoiser_gradients(rng: Rng) -> CheckResult:
    """loss_and_grads against central differences of its loss (h = 1e-5)
    along two unit directions of each of the 32 tensors of a two-block
    encoder and the denoiser: the gradient's own and a random one. The
    batch is the first of training's own form with every key-mask kind and
    a swapped row, so a gradient sent to the wrong prompt shows."""
    name = "denoiser.gradient_fd_every_tensor"
    vocab = te.default_vocabulary()
    enc_cfg = te.EncoderConfig(max_len=8, dim=8, n_blocks=2, n_heads=2)
    cfg = dn.DenoiserConfig(x_dim=tw.IMAGE_DIM, d_h=8, d_a=4, t_feat=4,
                            emb_dim=8, max_len=8)
    batches = dn.training_batches(tw.default_world(), vocab,
                                  df.make_schedule(100, 1e-3, 0.2), enc_cfg,
                                  cfg, 16, rng.split(1))
    batch = next((b for _, b in zip(range(10), batches)
                  if len(set(b.allowed.sum(axis=1))) == 3
                  and (b.row_src != b.row_src[:, :1]).any()), None)
    if batch is None:
        return _result(name, False, "no batch of 10 qualifies")
    # weights large enough that the attention gradients clear the 5e-7 floor
    r = rng.split(2)
    enc_params = {k: 0.5 * r.normal(shape) for k, shape
                  in te.encoder_param_shapes(enc_cfg, vocab.size).items()}
    den_params = {k: 0.5 * r.normal(shape)
                  for k, shape in dn.denoiser_param_shapes(cfg).items()}
    model = (enc_params, den_params, enc_cfg, cfg)
    _, enc_g, den_g = dn.loss_and_grads(*model, batch)
    h = 1e-5
    worst = 0.0
    pick = rng.split(3)
    for params, grads in ((enc_params, enc_g), (den_params, den_g)):
        for key, arr in params.items():
            g, rand, orig = grads[key], pick.normal(arr.shape), arr.copy()
            for v in (g / (np.linalg.norm(g) or 1.0),
                      rand / np.linalg.norm(rand)):
                arr[...] = orig + h * v
                lp = dn.loss_and_grads(*model, batch)[0]
                arr[...] = orig - h * v
                lm = dn.loss_and_grads(*model, batch)[0]
                arr[...] = orig
                fd = (lp - lm) / (2 * h)
                an = float(np.sum(g * v))
                worst = max(worst, abs(an - fd) / (max(abs(an), abs(fd)) + 5e-7))
    return _result(name, worst < 1e-4, f"{len(enc_g) + len(den_g)} tensors "
                                       f"worst_rel_err={worst:.3e}")


# ------------------------------------------------------------- edit ops

def check_edit_identities(rng: Rng) -> CheckResult:
    e_s = rng.normal((6, 4))
    e_t = rng.normal((6, 4))
    checks = [
        np.array_equal(eo.mix_swap(e_s, e_t, ()), e_s),
        np.array_equal(eo.soft_swap(e_s, e_t, (2,), 1.0), e_s),
        np.array_equal(eo.mix_scale(e_s, 3, 1.0), e_s),
        np.array_equal(eo.soft_mix(e_s, e_t, np.ones(6)), e_s),
        np.array_equal(eo.soft_mix(e_s, e_t, np.zeros(6)), e_t),
    ]
    # lambda indicator equals hard swap
    lam = np.ones(6)
    lam[[1, 4]] = 0.0
    checks.append(np.array_equal(eo.soft_mix(e_s, e_t, lam),
                                 eo.mix_swap(e_s, e_t, (1, 4))))
    ok = all(checks)
    return _result("edit_ops.bitwise_identities", ok,
                   f"{sum(checks)}/{len(checks)} identities exact")


def check_background_block_norm(rng: Rng) -> CheckResult:
    world = tw.default_world()
    bg = tw.background_mask(world, 0, 1)
    d = rng.normal(64)
    full = float(np.sqrt(np.sum(d[bg] ** 2)))
    # split the background cells into two disjoint blocks and recompose
    idx = np.flatnonzero(bg)
    half = idx.shape[0] // 2
    a = float(np.sum(d[idx[:half]] ** 2))
    b = float(np.sum(d[idx[half:]] ** 2))
    err = abs(full - np.sqrt(a + b))
    return _result("edit_ops.background_block_norm", err < 1e-12,
                   f"err={err:.3e}")


# ------------------------------------------------------------ optimizer

def surrogate_losses(lams: np.ndarray,
                     ctx: LambdaContext) -> np.ndarray:
    """One loss per row of lams (N, L), from one chain of N images."""
    e_star = np.stack([eo.soft_mix(ctx.e_s, ctx.e_t, lam) for lam in lams])
    i_star = ctx.bundle.generate(e_star, np.tile(ctx.x_T, (len(lams), 1)))
    return row_losses(i_star - ctx.i_s, ctx)


def fd_gradient(theta: np.ndarray, ctx: LambdaContext, h: float,
                loss_fn=None) -> np.ndarray:
    """Central finite differences on theta, all 2L perturbations at once.

    loss_fn maps a stack of thetas (N, L) and ctx to their N losses; the
    default is the surrogate loss at sigmoid(theta), whose 2L perturbed
    images make one chain.
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    n = theta.shape[0]
    steps = h * np.eye(n)
    thetas = np.concatenate([theta + steps, theta - steps])
    losses = (surrogate_losses(sigmoid(thetas), ctx) if loss_fn is None
              else loss_fn(thetas, ctx))
    return (losses[:n] - losses[n:]) / (2.0 * h)


def check_fd_quadratic(rng: Rng) -> CheckResult:
    a = rng.normal((5, 5))
    q = a.T @ a + np.eye(5)
    c = rng.normal(5)

    def quad(thetas, ctx):
        return np.array([0.5 * t @ q @ t + c @ t for t in thetas])

    def quartic(thetas, ctx):
        return quad(thetas, ctx) + 0.1 * np.sum(thetas**4, axis=1)

    theta = rng.normal(5)
    g = fd_gradient(theta, None, 1e-5, loss_fn=quad)
    exact = q @ theta + c
    quad_err = float(np.max(np.abs(g - exact)))
    # Richardson: central-difference error is O(h^2), so halving h
    # shrinks the quartic term's error by ~4
    gq = fd_gradient(theta, None, 1e-2, loss_fn=quartic)
    gq2 = fd_gradient(theta, None, 5e-3, loss_fn=quartic)
    exact4 = exact + 0.4 * theta**3
    e1 = float(np.linalg.norm(gq - exact4))
    e2 = float(np.linalg.norm(gq2 - exact4))
    ratio = e1 / e2
    ok = quad_err < 1e-8 and 3.5 < ratio < 4.5
    return _result("optimizer.fd_quadratic_oracle", ok,
                   f"quad_err={quad_err:.3e} richardson_ratio={ratio:.2f}")


def check_lambda_reverse_mode(rng: Rng) -> CheckResult:
    """The exact lambda gradient (one reverse pass through the clamped DDIM
    chain) against central differences at h = 1e-5, on an untrained model."""
    bundle = ModelBundle.untrained(rng)
    ctx = make_context(bundle, "a photo of hbar bright",
                       "a photo of vbar bright", OptConfig())
    theta = rng.split(2).normal(bundle.enc_cfg.max_len)
    lam = sigmoid(theta)
    _, grad = surrogate_loss(lam, ctx)
    g = grad() * (lam * (1.0 - lam))
    g_fd = fd_gradient(theta, ctx, 1e-5)
    rel = float(np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd))
    return _result("optimizer.reverse_mode_vs_fd", rel < 1e-6,
                   f"rel_err={rel:.3e}")


# ------------------------------------------------------------ semantics

class RecordingBundle:
    """Stands in for a ModelBundle in direction_sweep: embeds every text as
    emb, records what each generate() call is given and returns zeros."""

    def __init__(self, emb: np.ndarray):
        self.world = tw.default_world()
        self.emb = emb
        self.generated = []

    def embed(self, text: str) -> np.ndarray:
        return self.emb

    def generate(self, emb, x_T: np.ndarray) -> np.ndarray:
        self.generated.append(emb)
        return np.zeros_like(x_T)


def check_sweep_shift_norm(rng: Rng) -> CheckResult:
    """direction_sweep's documented property: on the right side, raw
    strength s moves the embedding by exactly |s| sigma_k in Frobenius
    norm."""
    data = rng.normal((6, 5))
    sigma = la.svd(data).sigma
    strengths = (-2.0, 0.37, 1.0)
    worst = 0.0
    for k in range(3):
        bundle = RecordingBundle(data)
        sm.direction_sweep(bundle, "", "right", k, strengths)
        for s, shifted in zip(strengths, bundle.generated[1]):
            delta = float(np.linalg.norm(shifted - data))
            worst = max(worst, abs(delta - abs(s) * float(sigma[k])))
    return _result("semantics.shift_norm_identity", worst < 1e-8,
                   f"max_err={worst:.3e}")


ALL_CHECKS = (
    check_svd_cubic_gram,
    check_svd_properties,
    check_gram_power_iteration,
    check_pca_covariance,
    check_world_correlations,
    check_world_render_mean,
    check_world_classify_mc,
    check_world_style_mc,
    check_schedule_product,
    check_chain_composition_mc,
    check_posterior_bayes,
    check_eps_x0_roundtrip,
    check_reverse_step_stats,
    check_l1_sum_oracle,
    check_zero_denoiser_trajectory,
    check_picard_inversion,
    check_encoder_causal_prefix,
    check_encoder_pad_witness,
    check_encoder_bos_constancy,
    check_denoiser_forward_oracle,
    check_denoiser_gradients,
    check_edit_identities,
    check_background_block_norm,
    check_fd_quadratic,
    check_sweep_shift_norm,
    check_lambda_reverse_mode,
)


def run_check(fn, seed: int = 0) -> CheckResult:
    """Run one check on its own RNG stream.

    A check's stream is keyed by the CRC-32 of its function's name, so
    adding, removing or reordering checks leaves every other check's draws
    as they were.
    """
    return fn(Rng(seed).split(zlib.crc32(fn.__name__.encode())))


def run_all(seed: int = 0):
    """Run every check, each on the stream `run_check` gives it."""
    return [run_check(fn, seed) for fn in ALL_CHECKS]


def format_report(results) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.name:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
