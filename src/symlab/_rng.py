"""Deterministic, splittable random streams.

All randomness in the library flows through :func:`stream`.  A stream is
identified by a root seed plus an integer path (purpose tag, chunk index,
...), hashed through ``numpy.random.SeedSequence`` into a Philox counter-based
generator.  Streams with different paths are statistically independent, and
the mapping is pure: the same ``(seed, path)`` always yields the same draws,
no matter how many workers consume streams concurrently.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["stream", "check_seed", "DEFAULT_SEED"]

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
