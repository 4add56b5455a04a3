"""Deterministic, splittable random streams.

All randomness in the library flows through :func:`stream`.  A stream is
identified by a root seed plus an integer path (purpose tag, chunk index,
...), hashed through ``numpy.random.SeedSequence`` into a Philox counter-based
generator.  Streams with different paths are statistically independent, and
the mapping is pure: the same ``(seed, path)`` always yields the same draws,
no matter how many workers consume streams concurrently.  A worker that
draws only part of a stream reads its part in place through :class:`Piece`.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["stream", "check_seed", "DEFAULT_SEED", "Piece"]

#: root seed of every command and check that is not given one
DEFAULT_SEED = 20260811


def check_seed(seed) -> int:
    """``seed`` as a root seed; floats (which alias their truncation), bools and negatives fail."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
    return int(seed)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator identified by ``seed`` and an integer path."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


class Piece:
    """A part of one stream ``rng``: the i-th ``random(n, out=)`` returns its values
    ``[i * stride + offset, i * stride + offset + n)``, the bits a full read would give there.

    Each value is one 64-bit Philox output, made four at a time: a jump skips whole
    blocks by ``advance`` and draws the remainder (below four) to discard it.
    """

    def __init__(self, rng: np.random.Generator, offset: int, stride: int):
        self._rng, self._offset, self._stride = rng, offset, stride
        self._calls = self._at = 0  # reads made, values consumed

    def random(self, n: int, out=None) -> np.ndarray:
        target = self._calls * self._stride + self._offset
        if target != self._at:
            bits = self._rng.bit_generator
            made = -(-self._at // 4)  # blocks made so far; advance drops the rest of the last
            if target // 4 >= made:
                bits.advance(target // 4 - made)
                self._at = target - target % 4
            bits.random_raw(target - self._at)
        self._calls, self._at = self._calls + 1, target + n
        return self._rng.random(n, out=out)
