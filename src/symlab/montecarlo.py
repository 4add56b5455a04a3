"""Seeded Monte Carlo harness: null distributions, p-values, size and power.

Replications are organized in fixed-size chunks; each chunk owns a private
counter-derived random stream (see :mod:`symlab._rng`), and chunk results are
concatenated in chunk order.  Outputs are therefore byte-identical for a given
configuration however many worker threads execute the chunks.  The worker
count is ``min(usable CPUs, reps // 512)``: a thread pays off only once every
worker has a full chunk, so fewer than two full chunks (or one usable CPU) run
inline.  Calibration and evaluation always consume disjoint stream families
so critical values are never reused on the data that produced them.  All
calibrations go through a cache of the last sorted null (reps float64 values,
read-only) keyed by (statistic, null, n, reps, seed), not by the level or the
worker count, so consecutive calls on one key simulate it once (``symlab
test`` runs :func:`p_value`, then :func:`critical_value`); results are
byte-identical with or without it.  Each thread evaluates its chunks in its
reused arrays and keeps a chunk's fresh draws as its one kept entry (see
:mod:`symlab.stats`), so consecutive one-chunk inline simulations (``reps <=
512``) of one model draw once across statistics, and fixed-threshold members at
one ``(alpha, t)`` count once: on a 2-core x86-64 VM the 7 of the default battery
on 100 x 2000 draws take about 10 ms for the first and 0.04 ms for each next
(0.8 ms when each counted alone).  ``power`` for ``NA_K_4`` at n = 100 took
0.14-0.17 s inline and 0.10-0.13 s on two workers with 10^4 replications, cold;
with 600 it took 10-16 ms cold and 6-8 ms after another call on the same key.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import check_seed, stream
from .distributions import AlternativeFamily, SymmetricNull
from .stats import SUPREMUM, StatisticSpec, _drawn, evaluate, evaluate_many

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
        if not all(isinstance(v, numbers.Integral) for v in (self.n, self.reps)):
            raise ValueError("sample size and replications must be integers")
        check_seed(self.seed)  # refused here already, not first inside a worker
        if self.n < 1:
            raise ValueError("sample size must be positive")
        if self.reps < 100:
            raise ValueError("need at least 100 replications")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_chunked(reps: int, job) -> np.ndarray:
    """Run ``job(chunk_index, rows) -> values`` over all chunks, in chunk order."""
    rows = [min(_CHUNK, reps - start) for start in range(0, reps, _CHUNK)]
    workers = min(_usable_cpus(), reps // _CHUNK)
    if workers < 2:
        return np.concatenate(list(map(job, range(len(rows)), rows)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(job, range(len(rows)), rows)))


def _simulate(
    spec: StatisticSpec,
    model,
    theta: float | None,
    cfg: McConfig,
    purpose: int,
    t: float | None = None,
) -> np.ndarray:
    params = () if theta is None else (theta,)  # a null model takes no theta

    def job(chunk_index: int, rows: int) -> np.ndarray:
        key = model, params, cfg.seed, purpose, chunk_index, rows, cfg.n
        return evaluate_many(spec, _drawn(key, lambda: model.sample(
            *params, rows * cfg.n, 0, rng=stream(cfg.seed, purpose, chunk_index)).reshape(rows, cfg.n)), t=t)

    return _run_chunked(cfg.reps, job)


def null_distribution(
    spec: StatisticSpec, null: SymmetricNull, cfg: McConfig, t: float | None = None
) -> np.ndarray:
    """Statistic values over ``cfg.reps`` fresh null samples of size ``cfg.n``.

    With ``t`` given (supremum kinds), the fixed-threshold family member is
    simulated instead of the supremum.  Deterministic given ``cfg.seed``.
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
    The sample is evaluated first, so an unusable one is refused before any
    simulation.
    """
    observed = _rejection_scale(spec, evaluate(spec, sample).value)
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
    u = _run_chunked(cfg.reps, lambda i, rows: stream(cfg.seed, _TIE, i).random(rows))
    p_rand = (cfg.reps - at_most + u * (1.0 + ties)) / (cfg.reps + 1.0)
    return float(np.mean(p_rand <= cfg.level))
