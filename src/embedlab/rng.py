"""Counter-based deterministic pseudorandom numbers.

Every value is a pure function of (key, stream, counter), so independent
streams can be split off for parallel work without sharing state, and a
fixed seed reproduces the exact same byte sequence on every run.
The mixing function is SplitMix64; Gaussians come from Box-Muller.

The draws are batch-native: the kernels below work on uint64 arrays of
keys, so the generators of many seeds draw in one pass (split_normals)
with the same bits as one Rng per seed. They work on any array of words
too, so the words of several calls can come from one raw() pass and be
converted together (uniforms, randints, box_muller) with the same bits
as the calls.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53 = float(1 << 53)


def _mix(x):
    """SplitMix64 finalizer: in place on a uint64 array, which wraps
    silently, or on a uint64 scalar, which wraps under errstate only."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _keys(seeds, stream: int):
    """The key of Rng(seed, stream) for each uint64 seed (array or scalar)."""
    return _mix(seeds * _GOLDEN + _mix(np.uint64(int(stream) & _MASK)))


def _child_seeds(keys, stream: int):
    """The seed that split(stream) gives each key's generator."""
    return _mix(keys + np.uint64((int(stream) + 1) & _MASK))


def _words(keys, counter: int, n: int) -> np.ndarray:
    """Raw words counter..counter + n - 1 of each key: (n,) for one key,
    (len(keys), n) for an array of keys."""
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    idx *= _GOLDEN
    return _mix(np.add.outer(keys, idx))


def uniforms(words: np.ndarray) -> np.ndarray:
    """Words to floats in (0, 1), one per word (words are overwritten)."""
    words >>= np.uint64(11)
    # below 2**53 after the shift, so the int64 view converts exactly
    u = words.view(np.int64).astype(np.float64)
    u += 0.5
    u /= _TWO53
    return u


def randints(words: np.ndarray, n) -> np.ndarray:
    """Words to integers uniform on [0, n), one per word; n may be an
    array of bounds that broadcasts against words. Modulo bias is
    negligible for n << 2^64."""
    return (words % np.asarray(n, dtype=np.uint64)).astype(np.int64)


def box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """n deviates per row from rows of 2m uniforms, m = (n + 1) // 2: the
    first m give the radii, the next m the angles."""
    m = (n + 1) // 2
    r = np.sqrt(-2.0 * np.log(u[..., :m]))
    a = 2.0 * np.pi * u[..., m:2 * m]
    return np.concatenate([r * np.cos(a), r * np.sin(a)], axis=-1)[..., :n]


def split_normals(seeds, stream: int, n: int) -> np.ndarray:
    """Rng(seed).split(stream).normal(n) for every seed, bitwise, as one
    (len(seeds), n) array: one SplitMix64 pass over every row's words and
    one Box-Muller pass."""
    # masked to 64 bits, as Rng masks a seed
    keys = np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)
    with np.errstate(over="ignore"):   # the stream's scalar key terms
        keys = _keys(_child_seeds(_keys(keys, 0), stream), stream)
    return box_muller(uniforms(_words(keys, 0, 2 * ((n + 1) // 2))), n)


class Rng:
    """Deterministic counter-based generator with stream splitting."""

    def __init__(self, seed: int, stream: int = 0):
        with np.errstate(over="ignore"):   # uint64 scalars warn as they wrap
            self._key = _keys(np.uint64(int(seed) & _MASK), stream)
        self._counter = 0

    def split(self, stream: int) -> "Rng":
        """Derive an independent child stream; does not advance this one."""
        with np.errstate(over="ignore"):
            return Rng(int(_child_seeds(self._key, stream)), stream)

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words."""
        words = _words(self._key, self._counter, n)
        self._counter += n
        return words

    def uniform(self, size=None):
        """Uniform floats in (0, 1)."""
        n = 1 if size is None else int(np.prod(size))
        u = uniforms(self.raw(n))
        if size is None:
            return float(u[0])
        return u.reshape(size)

    def normal(self, size=None):
        """Standard normal deviates via Box-Muller."""
        n = 1 if size is None else int(np.prod(size))
        z = box_muller(uniforms(self.raw(2 * ((n + 1) // 2))), n)
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def randint(self, n: int, size=None):
        """Integers uniform on [0, n)."""
        k = 1 if size is None else int(np.prod(size))
        v = randints(self.raw(k), n)
        if size is None:
            return int(v[0])
        return v.reshape(size)
