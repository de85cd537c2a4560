import numpy as np
import pytest

from embedlab import diffusion as df
from embedlab.rng import Rng


@pytest.fixture(scope="module")
def sched():
    return df.make_schedule(100, 1e-3, 0.2)


def test_schedule_product_oracle():
    s = df.make_schedule(100, 1e-4, 0.02)
    prod = 1.0
    for b in np.linspace(1e-4, 0.02, 100):
        prod *= 1.0 - b
    assert abs(s.alpha_bar(100) - prod) < 1e-12
    assert s.alpha_bar(0) == 1.0
    assert s.posterior_var[0] == 0.0


def test_schedule_rejects_bad_params():
    with pytest.raises(ValueError):
        df.make_schedule(0, 1e-4, 0.02)
    with pytest.raises(ValueError):
        df.make_schedule(10, 0.02, 1e-4)
    with pytest.raises(ValueError):
        df.make_schedule(10, 1e-4, 1.0)
    with pytest.raises(ValueError):
        df.make_schedule(10, 0.0, 0.02)


def test_chain_composition_matches_marginal(sched):
    """Iterating the forward kernel reproduces the closed-form marginal."""
    rng = Rng(21)
    n = 20_000
    x0 = 0.8
    for t_target in (1, 50, 100):
        x = np.full(n, x0)
        for t in range(1, t_target + 1):
            a = sched.alphas[t - 1]
            x = np.sqrt(a) * x + np.sqrt(1.0 - a) * rng.normal(n)
        m = df.marginal_params(sched, np.array([x0]), t_target)
        assert abs(x.mean() - m.mean[0]) < 3.0 * np.sqrt(m.variance / n)
        assert abs(x.var() - m.variance) < 3.0 * np.sqrt(2.0 * m.variance**2 / (n - 1))


def test_posterior_fixed_scalar_case():
    """alpha_2=0.9, abar_1=0.95, x0=1, x2=0.5 (Bayes product by hand)."""
    s = df.Schedule(alphas=np.array([0.95, 0.9]),
                    alpha_bars=np.array([0.95, 0.855]),
                    posterior_var=np.array([0.0, (1 - 0.95) / (1 - 0.855) * 0.1]))
    p = df.posterior_params(s, np.array([0.5]), np.array([1.0]), 2)
    assert abs(p.mean[0] - 0.83576) < 1e-4
    assert abs(p.variance - 0.034483) < 1e-5


def test_posterior_bayes_product_oracle(sched):
    rng = Rng(22)
    for _ in range(100):
        t = rng.randint(99) + 2
        x0 = rng.normal()
        x_t = rng.normal()
        p = df.posterior_params(sched, np.array([x_t]), np.array([x0]), t)
        a_t = sched.alphas[t - 1]
        ab_prev = sched.alpha_bar(t - 1)
        prec = a_t / (1.0 - a_t) + 1.0 / (1.0 - ab_prev)
        var_o = 1.0 / prec
        mean_o = var_o * (np.sqrt(a_t) * x_t / (1.0 - a_t)
                          + np.sqrt(ab_prev) * x0 / (1.0 - ab_prev))
        assert abs(p.mean[0] - mean_o) < 1e-12
        assert abs(p.variance - var_o) < 1e-12


def test_posterior_step_one_is_deterministic(sched):
    p = df.posterior_params(sched, np.array([0.3]), np.array([0.5]), 1)
    assert p.variance == 0.0
    assert abs(p.mean[0] - 0.5) < 1e-12  # mean collapses onto x0


def test_eps_x0_roundtrip_fuzz(sched):
    rng = Rng(23)
    for _ in range(1000):
        t = rng.randint(100) + 1
        x0 = rng.normal(4)
        eps = rng.normal(4)
        ab = sched.alpha_bar(t)
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        assert np.max(np.abs(df.eps_to_x0(sched, x_t, eps, t) - x0)) < 1e-12


def test_ddim_step_invert_roundtrip(sched):
    rng = Rng(24)
    for _ in range(200):
        t = rng.randint(100) + 1
        x_t = rng.normal(4)
        eps = rng.normal(4)
        x_prev = df.ddim_step(sched, x_t, eps, t)
        back = df.ddim_invert_step(sched, x_prev, eps, t)
        assert np.max(np.abs(back - x_t)) < 1e-10


def test_table_steps_equal_closed_forms(sched):
    """The step functions read sqrt(alpha_bar) from tables and work in
    place; they stay bitwise equal to the closed forms at every t."""
    rng = Rng(29)
    x_t = rng.normal((3, 4))
    eps = rng.normal((3, 4))
    clip = (-0.5, 0.5)
    for t in range(1, sched.T + 1):
        ab, ab_prev = sched.alpha_bar(t), sched.alpha_bar(t - 1)
        x0 = (x_t - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
        assert np.array_equal(df.eps_to_x0(sched, x_t, eps, t), x0)
        for c in (None, clip):
            x0_c = x0 if c is None else np.clip(x0, *c)
            want = np.sqrt(ab_prev) * x0_c + np.sqrt(1.0 - ab_prev) * eps
            assert np.array_equal(df.ddim_step(sched, x_t, eps, t, c), want)
        back = (x_t - np.sqrt(1.0 - ab_prev) * eps) / np.sqrt(ab_prev)
        want = np.sqrt(ab) * back + np.sqrt(1.0 - ab) * eps
        assert np.array_equal(df.ddim_invert_step(sched, x_t, eps, t), want)


def test_ddpm_reverse_step_stats(sched):
    rng = Rng(25)
    t = 60
    x0 = rng.normal(4)
    eps = rng.normal(4)
    ab = sched.alpha_bar(t)
    x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    post = df.posterior_params(sched, x_t, x0, t)
    draws = np.stack([df.ddpm_reverse_step(sched, x_t, eps, t, rng)
                      for _ in range(10_000)])
    # with the true eps the step mean equals the Bayes posterior mean
    assert np.max(np.abs(draws.mean(axis=0) - post.mean)) \
        < 3.0 * np.sqrt(post.variance / 10_000)
    assert abs(np.mean(draws.var(axis=0)) - post.variance) / post.variance < 0.05


def test_l1_objective_sum_oracle():
    rng = Rng(26)
    a = rng.normal((7, 5))
    b = rng.normal((7, 5))
    direct = sum(abs(a[i, j] - b[i, j])
                 for i in range(7) for j in range(5)) / 35.0
    assert abs(df.l1_objective(a, b) - direct) < 1e-15
    with pytest.raises(ValueError):
        df.l1_objective(np.ones(3), np.ones(4))


def test_sample_zero_predictor_trajectory_oracle():
    sched = df.make_schedule(20, 1e-3, 0.2)
    x_T = Rng(27).normal(6)
    got = df.sample(sched, lambda x, t: np.zeros_like(x), x_T, mode="ddim")
    x = x_T.copy()
    for t in range(sched.T, 0, -1):
        x = np.sqrt(sched.alpha_bar(t - 1) / sched.alpha_bar(t)) * x
    assert np.max(np.abs(got - x)) < 1e-10


def test_sample_mode_validation(sched):
    with pytest.raises(ValueError):
        df.sample(sched, lambda x, t: x, np.ones(4), mode="euler")
    with pytest.raises(ValueError):
        df.sample(sched, lambda x, t: x, np.ones(4), mode="ddpm", rng=None)


def test_step_index_validation(sched):
    with pytest.raises(ValueError):
        df.marginal_params(sched, np.ones(2), 0)
    with pytest.raises(ValueError):
        df.marginal_params(sched, np.ones(2), 101)


def test_invert_is_inverse_for_consistent_predictor():
    """For a predictor that only depends on t, inversion is near-exact."""
    sched = df.make_schedule(30, 1e-3, 0.1)
    rng = Rng(28)
    fixed = rng.normal((31, 5))

    def predict(x, t):
        return 0.1 * fixed[t]

    x0 = rng.normal(5)
    x_T = df.ddim_invert(sched, predict, x0)
    back = df.sample(sched, predict, x_T, mode="ddim")
    assert np.max(np.abs(back - x0)) < 1e-10


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
