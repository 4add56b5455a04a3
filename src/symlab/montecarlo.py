"""Seeded Monte Carlo harness: null distributions, p-values, size and power.

Replications are organized in fixed-size chunks; each chunk owns a private
counter-derived random stream (see :mod:`symlab._rng`).  A simulation of
several chunks splits its replications into ``min(usable CPUs, chunks)``
equal contiguous ranges (:func:`symlab._threads.split`): the calling thread
takes the last, and range ``k - 1`` always runs on the k-th persistent worker
thread.  Each thread evaluates its range in ``ceil(rows / 512)`` equal blocks,
one call each, on rows it allocates; a block may span a chunk boundary, and each
chunk's piece is drawn into its slice of the rows, read from the chunk's stream
in place (:class:`symlab._rng.Piece`).  No draws are joined, and outputs are
byte-identical however many threads run.  A block has at least 256 rows, never
a lone row kept as a sample, so such a run leaves every thread's kept entry (see
:mod:`symlab.stats`) as it found it.  One chunk (``reps <= 512``) is drawn into one
array that the calling thread evaluates and keeps, keyed by (model, theta, seed,
purpose, reps, n): consecutive simulations of one model draw it once across
statistics, and members at one ``(alpha, t)`` count once.  Its draw still splits
by rows over the usable CPUs from ``2**16`` values up: on a 2-core x86-64 VM the
7 members of the default battery on 100 x 2000 draws take about 3.3 ms for the
first (4.3 ms with the draw on one thread) and 0.04 ms for each next (0.8 ms
when each counted alone).  A thread running a range of a split never splits
again, and :func:`power`'s tie-breaking uniforms, too few to be worth a thread,
are drawn inline into one array.
Calibration and evaluation always consume disjoint stream families so
critical values are never reused on the data that produced them.  All
calibrations go through a cache of the last sorted null (reps float64 values,
read-only) keyed by (statistic, null, n, reps, seed), not by the level or the
worker count, so consecutive calls on one key simulate it once (``symlab
test`` runs :func:`p_value`, then :func:`critical_value`); results are
byte-identical with or without it.  ``power`` for ``NA_K_4`` at n = 100 with
10^4 replications took 69-71 ms inline and 41-53 ms on two threads, cold;
with 600 it took 5.4-5.8 ms and 4.7-7.7 ms (six fresh interpreters each).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _threads
from ._rng import Piece, check_seed, stream
from .distributions import AlternativeFamily, SymmetricNull
from .stats import SUPREMUM, StatisticSpec, _check_threshold, _drawn, evaluate, evaluate_many

__all__ = [
    "McConfig",
    "null_distribution",
    "critical_value",
    "p_value",
    "power",
]

_CHUNK = 512

# stream purpose tags: calibration draws, evaluation draws, tie-break uniforms
_CAL, _EVAL, _TIE = 0, 1, 2


@dataclass(frozen=True)
class McConfig:
    """Simulation configuration; ``level`` is the nominal size of critical values and power."""

    n: int
    reps: int
    seed: int
    level: float = 0.05

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.n, self.reps)):
            raise ValueError("sample size and replications must be integers")
        check_seed(self.seed)  # refused here already, not first inside a worker
        if self.n < 1:
            raise ValueError("sample size must be positive")
        if self.reps < 100:
            raise ValueError("need at least 100 replications")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")


def _simulate(
    spec: StatisticSpec,
    model,
    theta: float | None,
    cfg: McConfig,
    purpose: int,
    t: float | None = None,
) -> np.ndarray:
    _check_threshold(spec, t, scalar=True)  # before any draw, so a refused call leaves the kept entry as it was
    params = () if theta is None else (theta,)  # a null model takes no theta

    def fill(rows: np.ndarray, lo: int) -> np.ndarray:  # replications [lo, lo + len(rows)), chunk by chunk
        for c in range(lo // _CHUNK, (lo + len(rows) - 1) // _CHUNK + 1):
            first, last = max(lo, c * _CHUNK), min(lo + len(rows), (c + 1) * _CHUNK)  # chunk c's replications
            rng = Piece(stream(cfg.seed, purpose, c), (first - c * _CHUNK) * cfg.n,
                        min(_CHUNK, cfg.reps - c * _CHUNK) * cfg.n)
            model.sample(*params, (last - first) * cfg.n, 0, rng=rng, out=rows[first - lo:last - lo].reshape(-1))
        return rows

    if cfg.reps <= _CHUNK:  # one chunk: one array the calling thread keeps, its rows split over the usable CPUs
        def whole() -> np.ndarray:
            draws = np.empty((cfg.reps, cfg.n))
            _threads.split(cfg.reps, _threads.ways(cfg.reps * cfg.n), lambda lo, hi: fill(draws[lo:hi], lo))
            return draws

        return evaluate_many(spec, _drawn((model, params, cfg.seed, purpose, cfg.reps, cfg.n), whole), t=t)

    def share(begin: int, end: int) -> list:  # a thread's range, one call per equal block of at most _CHUNK rows
        blocks = -(-(end - begin) // _CHUNK)
        cuts = [begin + (end - begin) * k // blocks for k in range(blocks + 1)]
        return [evaluate_many(spec, fill(np.empty((hi - lo, cfg.n)), lo), t=t) for lo, hi in zip(cuts, cuts[1:])]

    shares = _threads.split(cfg.reps, min(_threads._usable_cpus(), -(-cfg.reps // _CHUNK)), share)
    return np.concatenate([values for blocks in shares for values in blocks])


def null_distribution(
    spec: StatisticSpec, null: SymmetricNull, cfg: McConfig, t: float | None = None
) -> np.ndarray:
    """Statistic values over ``cfg.reps`` fresh null samples of size ``cfg.n``.

    With ``t`` given (one float, :func:`symlab.stats._check_threshold`, before any draw), the
    fixed-threshold family member is simulated instead of the supremum.  Deterministic given ``cfg.seed``.
    """
    return _simulate(spec, null, None, cfg, _CAL, t=t)


def _rejection_scale(spec: StatisticSpec, values):
    """``values`` on the rejection scale: ``T`` for supremum kinds, else ``|T|``."""
    return values if spec.family == SUPREMUM else np.abs(values)


# one entry: the reuse is consecutive (p_value then critical_value, a power curve over theta)
@functools.lru_cache(maxsize=1)
def _sorted_null(spec: StatisticSpec, null: SymmetricNull, n: int, reps: int, seed: int):
    """Sorted read-only null values on the rejection scale."""
    cfg = McConfig(n=n, reps=reps, seed=seed)
    values = _rejection_scale(spec, null_distribution(spec, null, cfg))
    values.sort()
    values.flags.writeable = False
    return values


def critical_value(spec: StatisticSpec, null: SymmetricNull, cfg: McConfig) -> float:
    """Monte Carlo critical value at ``cfg.level`` (upper order statistic)."""
    rank = min(cfg.reps, math.ceil((1.0 - cfg.level) * (cfg.reps + 1)))
    return float(_sorted_null(spec, null, cfg.n, cfg.reps, cfg.seed)[rank - 1])


def p_value(spec: StatisticSpec, null: SymmetricNull, sample, cfg: McConfig) -> float:
    """Monte Carlo p-value of ``sample`` with the +1/(reps+1) correction.

    One-sided for supremum-type statistics, two-sided by absolute value
    otherwise; ties with the observed value count as at least as extreme.
    The sample is evaluated first, so an unusable one, or one whose size is
    not ``cfg.n``, is refused before any simulation.
    """
    observed = _rejection_scale(spec, evaluate(spec, sample).value)
    if np.size(sample) != cfg.n:
        raise ValueError(f"sample has {np.size(sample)} values, but the null is simulated at n = {cfg.n}")
    values = _sorted_null(spec, null, cfg.n, cfg.reps, cfg.seed)
    exceed = cfg.reps - int(np.searchsorted(values, observed, side="left"))
    return (1.0 + exceed) / (cfg.reps + 1.0)


def power(
    spec: StatisticSpec,
    alt: AlternativeFamily,
    theta: float,
    cfg: McConfig,
) -> float:
    """Rejection frequency against Monte Carlo critical values.

    Calibration draws, evaluation draws and tie-breaking uniforms come from
    three disjoint stream families of ``cfg.seed``.  Rejection uses the
    randomized-tie Monte Carlo test: with ``R`` calibration values ``C`` and
    an observed ``T``, reject when ``(#{C > T} + U (1 + #{C = T}))/(R+1)``
    is at most ``cfg.level``.  The randomization matters for the coarsely
    discrete statistics (the sign and KS counts move in steps of ``1/n``),
    whose achievable deterministic sizes can sit far from the nominal level;
    with it the empirical size matches the level for every statistic.
    """
    values = _rejection_scale(spec, _simulate(spec, alt, float(theta), cfg, _EVAL))
    calib = _sorted_null(spec, alt.base, cfg.n, cfg.reps, cfg.seed)
    at_most = np.searchsorted(calib, values, side="right")
    ties = at_most - np.searchsorted(calib, values, side="left")
    u = np.empty(cfg.reps)  # too few to split
    for i, start in enumerate(range(0, cfg.reps, _CHUNK)):
        stream(cfg.seed, _TIE, i).random(out=u[start:start + _CHUNK])
    p_rand = (cfg.reps - at_most + u * (1.0 + ties)) / (cfg.reps + 1.0)
    return float(np.mean(p_rand <= cfg.level))
