import hashlib

import numpy as np

from embedlab.rng import Rng


def test_same_seed_same_sequence():
    a = Rng(123).uniform(100)
    b = Rng(123).uniform(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniform(100), Rng(2).uniform(100))


def test_split_does_not_advance_parent():
    parent = Rng(5)
    before = Rng(5).uniform(10)
    parent.split(0)
    parent.split(7)
    assert np.array_equal(parent.uniform(10), before)


def test_split_streams_independent():
    parent = Rng(5)
    s0 = parent.split(0).uniform(50)
    s1 = parent.split(1).uniform(50)
    assert not np.array_equal(s0, s1)
    # re-splitting reproduces the same stream
    assert np.array_equal(parent.split(0).uniform(50), s0)


def test_uniform_open_interval_and_moments():
    u = Rng(42).uniform(200_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_uniform_chunking_matches_one_shot():
    r1 = Rng(9)
    r2 = Rng(9)
    chunked = np.concatenate([r1.uniform(3), r1.uniform(5)])
    assert np.array_equal(chunked, r2.uniform(8))


def test_normal_moments():
    z = Rng(7).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normal_shape_and_scalar():
    assert Rng(1).normal((3, 4)).shape == (3, 4)
    assert isinstance(Rng(1).normal(), float)
    assert isinstance(Rng(1).uniform(), float)


def test_randint_bounds_and_coverage():
    v = Rng(3).randint(7, 10_000)
    assert v.min() == 0 and v.max() == 6
    assert set(np.unique(v)) == set(range(7))
    assert isinstance(Rng(3).randint(7), int)


def _battery_digest(rng_class) -> str:
    """sha256 over a fixed battery of draws: every kind of draw, odd sizes,
    split streams, and seeds that Rng masks to 64 bits."""
    h = hashlib.sha256()
    for seed in (0, -1, 2**63 + 5):
        r = rng_class(seed)
        for size in (None, 1, 3, 7, 64, 257, (3, 5)):
            h.update(np.float64(r.uniform(size)).tobytes())
            h.update(np.float64(r.normal(size)).tobytes())
            h.update(np.int64(r.randint(13, size)).tobytes())
        for stream in (0, 1, 2, 99):
            child = r.split(stream)
            h.update(child.normal(33).tobytes())
            h.update(child.uniform(5).tobytes())
            h.update(child.split(3).normal(4).tobytes())
        h.update(rng_class(seed, 5).normal(9).tobytes())
    return h.hexdigest()


def test_draws_match_golden_digest():
    """The battery's bits, as the generator drew them before its kernels
    were batched: a changed bit anywhere changes the digest."""
    assert _battery_digest(Rng) == ("3dc096b508112ace710ab1cf466a88a0"
                                    "ed4678efd5b973724b39b0f3a71386bd")


def test_many_seed_rng_matches_one_rng_per_seed():
    """Rng(seeds) draws, row by row, bitwise what Rng(seed) draws alone:
    every kind of draw, in sequence, and after a split; seeds are masked to
    64 bits."""
    seeds = [0, 1, 5, 1999, -1, -7, 2**63, 2**63 + 5, 2**64 - 1, 2**64 + 3]
    many = Rng(seeds)
    ones = [Rng(seed) for seed in seeds]
    assert many.shape == (len(seeds),)
    draws = [lambda r: r.raw(5), lambda r: r.uniform(), lambda r: r.uniform(7),
             lambda r: r.normal((2, 3)), lambda r: r.normal(),
             lambda r: r.randint(13, 4), lambda r: r.randint(5)]
    for draw in draws:
        rows = draw(many)
        assert rows.shape[0] == len(seeds)
        for row, one in zip(rows, ones):
            assert np.array_equal(row, draw(one))
    for stream, n in ((0, 64), (2, 7), (1, 1)):
        rows = many.split(stream).normal(n)
        assert rows.shape == (len(seeds), n)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, Rng(seed).split(stream).normal(n))
    assert np.array_equal(Rng([-1]).normal(4), Rng([2**64 - 1]).normal(4))
