"""Counter-based deterministic pseudorandom numbers.

Every value is a pure function of (key, stream, counter), so independent
streams can be split off for parallel work without sharing state, and a
fixed seed reproduces the exact same byte sequence on every run.
The mixing function is SplitMix64; Gaussians come from Box-Muller.

The draws are batch-native: the kernels below work on uint64 arrays of
keys, so Rng(seeds) draws for many seeds in one pass with the same bits
as one Rng per seed. They work on any array of words too, so the words
of several calls can come from one raw() pass and be converted together
(uniforms, randints, box_muller) with the same bits as the calls.
"""

import math

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


def _dims(size) -> tuple:
    """A draw's size as a shape: () for None, (size,) for an int."""
    if size is None:
        return ()
    return (size,) if np.isscalar(size) else tuple(size)


def _count(size) -> int:
    return math.prod(_dims(size))


class Rng:
    """Deterministic counter-based generator with stream splitting.

    Rng(seed) has one key. Rng(seeds), for a sequence of seeds, has one key
    per seed: each draw then has a leading axis of len(seeds) (the shape
    attribute), and row i is bitwise the draw of Rng(seeds[i]). Seeds are
    masked to 64 bits.
    """

    def __init__(self, seed, stream: int = 0):
        if np.ndim(seed) == 0:
            seed = np.uint64(int(seed) & _MASK)
        else:
            # one seed at a time: an array made from Python ints of 2**63
            # and up goes through float64
            seed = np.array([int(s) & _MASK for s in seed], dtype=np.uint64)
        with np.errstate(over="ignore"):   # uint64 scalars warn as they wrap
            self._key = _keys(seed, stream)
        self.shape = np.shape(self._key)
        self._counter = 0

    def split(self, stream: int) -> "Rng":
        """Derive an independent child stream; does not advance this one."""
        with np.errstate(over="ignore"):
            return Rng(_child_seeds(self._key, stream), stream)

    def raw(self, n: int) -> np.ndarray:
        """Next n raw uint64 words per key."""
        words = _words(self._key, self._counter, n)
        self._counter += n
        return words

    def _shaped(self, v: np.ndarray, size, scalar):
        """A draw's values (*shape, n) as (*shape, *size); for size None and
        one key, a Python scalar."""
        v = v.reshape(self.shape + _dims(size))
        return scalar(v) if size is None and not self.shape else v

    def uniform(self, size=None):
        """Uniform floats in (0, 1)."""
        return self._shaped(uniforms(self.raw(_count(size))), size, float)

    def normal(self, size=None):
        """Standard normal deviates via Box-Muller."""
        n = _count(size)
        z = box_muller(uniforms(self.raw(2 * ((n + 1) // 2))), n)
        return self._shaped(z, size, float)

    def randint(self, n: int, size=None):
        """Integers uniform on [0, n)."""
        return self._shaped(randints(self.raw(_count(size)), n), size, int)
