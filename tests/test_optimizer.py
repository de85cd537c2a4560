import numpy as np
import pytest

from embedlab import cli
from embedlab import optimizer as op
from embedlab.rng import Rng


def test_sigmoid_and_init_theta():
    theta = op.init_theta(6, {1, 4})
    lam = op.sigmoid(theta)
    assert np.allclose(lam[[1, 4]], 0.05)
    assert np.allclose(lam[[0, 2, 3, 5]], 0.95)


def test_fd_gradient_rejects_bad_h():
    with pytest.raises(ValueError):
        op.fd_gradient(np.zeros(3), None, 0.0)


def test_opt_config_validation():
    with pytest.raises(ValueError):
        op.OptConfig(gamma=-0.5)


class _LinearBundle:
    """Stand-in bundle: the 'image' is a fixed linear map of the embedding.

    Like ModelBundle.generate, it takes one embedding or a stack of them;
    each image of a stack is the one its embedding gives alone. Its
    generate_vjp is exact, and counts the reverse passes it makes.
    """

    def __init__(self, rng, l=6, d=4, out=16):
        self.m = rng.normal((l * d, out))
        self.reverse_passes = 0

    def generate(self, e, x_T, mask=None):
        if e.ndim == 2:
            return e.ravel() @ self.m
        return np.stack([row.ravel() @ self.m for row in e])

    def generate_vjp(self, e, x_T):
        def vjp(g):
            self.reverse_passes += 1
            return (self.m @ g).reshape(e.shape)
        return self.generate(e, x_T), vjp


def _make_ctx(gamma=0.1, same=False):
    rng = Rng(72)
    bundle = _LinearBundle(rng)
    e_s = rng.normal((6, 4))
    e_t = rng.normal((6, 4))
    if same:
        e_t = e_s
    x_T = rng.normal(16)
    i_s = bundle.generate(e_s, x_T)
    i_t = bundle.generate(e_t, x_T)
    bg = np.zeros(16, dtype=bool)
    bg[10:] = True
    return op.LambdaContext(bundle=bundle, e_s=e_s, e_t=e_t, diff={2},
                            x_T=x_T, i_s=i_s, b_s=i_s, b_t=i_t, bg=bg,
                            gamma=gamma)


def test_optimize_trajectory_non_increasing():
    ctx = _make_ctx()
    cfg = op.OptConfig(steps=25, gamma=0.1)
    params, traj = op.optimize(ctx, cfg)
    losses = [l for _, l, _ in traj]
    assert len(traj) == 26
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
    lam = params.lam()
    assert np.all(lam > 0.0) and np.all(lam < 1.0)
    # one reverse pass per step, and none after the last
    assert ctx.bundle.reverse_passes == 25


def test_reverse_gradient_matches_finite_differences():
    ctx = _make_ctx(gamma=0.7)
    for theta in (op.init_theta(6, ctx.diff), Rng(75).normal(6)):
        lam = op.sigmoid(theta)
        loss, grad = op.surrogate_loss(lam, ctx)
        g = grad() * lam * (1.0 - lam)
        g_fd = op.fd_gradient(theta, ctx, 1e-5)
        assert np.linalg.norm(g - g_fd) < 1e-7 * np.linalg.norm(g_fd)
        assert loss == op.surrogate_losses(lam[None], ctx)[0]


def test_gradient_is_zero_where_the_image_does_not_change():
    """Where i* = i_s the cosine has no direction: its subgradient is zero,
    and so is the preservation term's gradient; never NaN."""
    ctx = _make_ctx(gamma=0.7)
    loss, grad = op.surrogate_loss(np.ones(6), ctx)  # e* = e_s exactly
    assert loss == 0.0
    assert np.array_equal(grad(), np.zeros(6))
    # identical source and target: lambda moves nothing
    same = _make_ctx(gamma=0.7, same=True)
    for lam in (np.ones(6), op.sigmoid(Rng(76).normal(6))):
        loss, grad = op.surrogate_loss(lam, same)
        assert abs(loss) < 1e-12
        assert np.array_equal(grad(), np.zeros(6))


def test_optimize_raises_on_nonfinite():
    ctx = _make_ctx()
    ctx.i_s = np.full(16, np.nan)
    with pytest.raises(FloatingPointError, match="optimize"):
        op.optimize(ctx, op.OptConfig(steps=2))


def test_surrogate_loss_recomputation_oracle():
    """Loss matches an independent recomputation from the dumped image."""
    ctx = _make_ctx(gamma=0.7)
    lam = Rng(73).uniform(6)
    loss, _ = op.surrogate_loss(lam, ctx)
    from embedlab.edit_ops import soft_mix
    i_star = ctx.bundle.generate(soft_mix(ctx.e_s, ctx.e_t, lam), ctx.x_T)
    d = i_star - ctx.i_s
    tdir = ctx.b_t - ctx.b_s
    l_sem = -float(d @ tdir) / (np.linalg.norm(d) * np.linalg.norm(tdir) + 1e-8)
    ref = l_sem + 0.7 * float(np.sum(d[ctx.bg] ** 2))
    assert abs(loss - ref) < 1e-12
    # the batched gradient equals per-coordinate central differences
    theta = Rng(74).normal(6)
    h = 1e-3
    per_coord = np.zeros(6)
    for i in range(6):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        per_coord[i] = (op.surrogate_loss(op.sigmoid(tp), ctx)[0]
                        - op.surrogate_loss(op.sigmoid(tm), ctx)[0]) / (2.0 * h)
    assert np.max(np.abs(op.fd_gradient(theta, ctx, h) - per_coord)) < 1e-12


def test_trajectory_csv_roundtrip(tmp_path, ckpt, untrained_bundle):
    """opt-lambda's trajectory.csv holds every step of the run, exactly."""
    assert cli.main(["opt-lambda", "--ckpt", ckpt, "--out", str(tmp_path),
                     "--steps", "3"]) == 0
    ocfg = op.OptConfig(steps=3, seed=0, gamma=1.0)
    ctx = op.make_context(untrained_bundle, "a photo of hbar bright",
                          "a photo of vbar bright", ocfg)
    _, traj = op.optimize(ctx, ocfg)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    n = traj[0][2].size
    assert lines[0] == "step,loss," + ",".join(f"lambda_{i}" for i in range(n))
    assert len(lines) == 5
    for line, (step, loss, lam) in zip(lines[1:], traj):
        f = line.split(",")
        assert int(f[0]) == step
        assert float(f[1]) == loss
        assert np.array_equal([float(v) for v in f[2:]], lam)
