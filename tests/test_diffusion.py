import numpy as np
import pytest

from embedlab import diffusion as df
from embedlab import verify as vf
from embedlab.rng import Rng


@pytest.fixture(scope="module")
def sched():
    return df.make_schedule(100, 1e-3, 0.2)


def test_schedule_rejects_bad_params():
    with pytest.raises(ValueError):
        df.make_schedule(0, 1e-4, 0.02)
    with pytest.raises(ValueError):
        df.make_schedule(10, 0.02, 1e-4)
    with pytest.raises(ValueError):
        df.make_schedule(10, 1e-4, 1.0)
    with pytest.raises(ValueError):
        df.make_schedule(10, 0.0, 0.02)
    with pytest.raises(ValueError, match=f"at most {df.MAX_T}"):
        df.make_schedule(df.MAX_T + 1, 1e-4, 0.02)
    assert df.make_schedule(df.MAX_T, 1e-4, 0.02).T == df.MAX_T


def test_posterior_step_one_is_deterministic(sched):
    """At t=1 the posterior variance is zero and its mean collapses onto
    x0, so the step returns the x0 estimate without drawing."""
    x_t, eps = np.array([0.3, -0.2]), np.array([0.1, 0.4])
    assert sched.post_sd[0] == 0.0
    got = df.ddpm_reverse_step(sched, x_t, eps, 1, rng=None)
    assert np.max(np.abs(got - df.eps_to_x0(sched, x_t, eps, 1))) < 1e-12


def test_ddim_step_invert_roundtrip(sched):
    rng = Rng(24)
    for _ in range(200):
        t = rng.randint(100) + 1
        x_t = rng.normal(4)
        eps = rng.normal(4)
        x_prev = df.ddim_step(sched, x_t, eps, t)
        back = vf.ddim_invert_step(sched, x_prev, eps, t)
        assert np.max(np.abs(back - x_t)) < 1e-10


def test_table_steps_equal_closed_forms(sched):
    """The step functions read sqrt(alpha_bar) and the posterior from
    tables and work in place; they stay bitwise equal to the closed forms
    at every t."""
    rng = Rng(29)
    x_t = rng.normal((3, 4))
    eps = rng.normal((3, 4))
    clip = (-0.5, 0.5)
    for t in range(1, sched.T + 1):
        ab, ab_prev = vf.alpha_bar(sched, t), vf.alpha_bar(sched, t - 1)
        x0 = (x_t - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
        assert np.array_equal(df.eps_to_x0(sched, x_t, eps, t), x0)
        for c in (None, clip):
            x0_c = x0 if c is None else np.clip(x0, *c)
            want = np.sqrt(ab_prev) * x0_c + np.sqrt(1.0 - ab_prev) * eps
            assert np.array_equal(df.ddim_step(sched, x_t, eps, t, c), want)
        back = (x_t - np.sqrt(1.0 - ab_prev) * eps) / np.sqrt(ab_prev)
        want = np.sqrt(ab) * back + np.sqrt(1.0 - ab) * eps
        assert np.array_equal(vf.ddim_invert_step(sched, x_t, eps, t), want)
        a_t = sched.alphas[t - 1]
        mean = (np.sqrt(ab_prev) * (1.0 - a_t) / (1.0 - ab) * x0
                + np.sqrt(a_t) * (1.0 - ab_prev) / (1.0 - ab) * x_t)
        var = (1.0 - ab_prev) / (1.0 - ab) * (1.0 - a_t)
        if t > 1:
            mean = mean + np.sqrt(var) * Rng([t, -t, 7]).normal(4)
        got = df.ddpm_reverse_step(sched, x_t, eps, t, Rng([t, -t, 7]))
        assert np.array_equal(got, mean)


def test_l1_objective_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        df.l1_objective(np.ones(3), np.ones(4))


def test_sample_mode_validation(sched):
    with pytest.raises(ValueError):
        df.sample(sched, lambda x, t: x, np.ones(4), mode="euler")
    with pytest.raises(ValueError):
        df.sample(sched, lambda x, t: x, np.ones(4), mode="ddpm", rng=None)
    # a generator needs one key per row: one key would give every row the
    # same noise
    for rng in (Rng(3), Rng([3, 4, 5])):
        with pytest.raises(ValueError, match="one key per row"):
            df.sample(sched, lambda x, t: x, np.ones((2, 4)), mode="ddpm",
                      rng=rng)


def test_step_index_validation(sched):
    for t in (0, 101):
        with pytest.raises(ValueError, match=f"step {t} outside 1..100"):
            df.ddpm_reverse_step(sched, np.ones(2), np.ones(2), t, None)
        with pytest.raises(ValueError, match=f"step {t} outside 1..100"):
            df.eps_to_x0(sched, np.ones(2), np.ones(2), t)


def test_invert_is_inverse_for_consistent_predictor():
    """For a predictor that only depends on t, inversion is near-exact."""
    sched = df.make_schedule(30, 1e-3, 0.1)
    rng = Rng(28)
    fixed = rng.normal((31, 5))

    def predict(x, t):
        return 0.1 * fixed[t]

    x0 = rng.normal(5)
    traj = df.ddim_invert(sched, predict, x0)
    assert traj.shape == (31, 5) and np.array_equal(traj[0], x0)
    back = df.sample(sched, predict, traj[-1], mode="ddim")
    assert np.max(np.abs(back - x0)) < 1e-10


def test_window_composition_matches_single_steps(sched):
    """ddim_invert_steps over windows that start at step 1, end at step T
    or sit inside the chain, on one and on three images, equals
    ddim_invert_step applied step by step."""
    rng = Rng(29)
    for lo, n in ((0, 1), (0, 20), (37, 20), (80, 20), (99, 1), (0, 100)):
        x_lo = rng.normal((3, 6))
        eps = rng.normal((3, n, 6))
        got = df.ddim_invert_steps(sched, x_lo, eps, lo)
        assert got.shape == (3, n, 6)
        x = x_lo
        for j in range(n):
            x = vf.ddim_invert_step(sched, x, eps[:, j], lo + 1 + j)
            assert np.max(np.abs(got[:, j] - x)) < 1e-12, (lo, j)
        one = df.ddim_invert_steps(sched, x_lo[1], eps[1], lo)
        assert np.max(np.abs(one - got[1])) < 1e-15
    with pytest.raises(ValueError):
        df.ddim_invert_steps(sched, x_lo, rng.normal((3, 2, 6)), 99)


def test_ddim_step_vjp_matches_finite_differences(sched):
    """The adjoint of a clamped and an unclamped DDIM step, against central
    differences in every coordinate of x_t and eps_hat, at points whose x0
    estimate is at least 1e-3 from the clamp bounds."""
    rng = Rng(30)
    clip = (-0.5, 0.5)
    h = 1e-6
    for t in (1, 2, 37, 100):
        x_t = rng.normal(8)
        eps = rng.normal(8)
        x0 = df.eps_to_x0(sched, x_t, eps, t)
        off = np.minimum(np.abs(x0 - clip[0]), np.abs(x0 - clip[1])) > 1e-3
        x_t, eps = x_t[off], eps[off]
        g = rng.normal(x_t.shape)
        for c in (None, clip):
            keep = None
            if c is not None:
                keep = np.empty(x_t.shape, dtype=bool)
                df.ddim_step(sched, x_t, eps, t, c, keep=keep)
                assert np.array_equal(keep, (x0[off] > c[0]) & (x0[off] < c[1]))
            gx, geps = df.ddim_step_vjp(sched, g, t, keep)
            for grad, moved in ((gx, 0), (geps, 1)):
                fd = np.empty_like(grad)
                for i in range(grad.size):
                    args = [x_t.copy(), eps.copy()]
                    args[moved][i] += h
                    up = g @ df.ddim_step(sched, *args, t, c)
                    args[moved][i] -= 2 * h
                    down = g @ df.ddim_step(sched, *args, t, c)
                    fd[i] = (up - down) / (2 * h)
                assert np.max(np.abs(grad - fd)) < 1e-8, (t, c, moved)


def test_sample_records_clamp_masks():
    sched = df.make_schedule(5, 1e-3, 0.2)
    x_T = Rng(31).normal(6)
    keep = np.empty((5, 6), dtype=bool)
    seen = []

    def predict(x, t):
        x0 = df.eps_to_x0(sched, x, 0.3 * x, t)
        seen.append((x0 > -0.5) & (x0 < 0.5))
        return 0.3 * x

    got = df.sample(sched, predict, x_T, clip_x0=(-0.5, 0.5), keep=keep)
    assert np.array_equal(keep, np.stack(seen))
    assert np.array_equal(got, df.sample(sched, lambda x, t: 0.3 * x, x_T,
                                         clip_x0=(-0.5, 0.5)))
    with pytest.raises(ValueError):
        df.sample(sched, predict, x_T, keep=keep)
