"""Exact finite-sample evaluation of the symmetry test statistics.

Every public entry point — :func:`evaluate`, :func:`evaluate_family_member`,
:func:`evaluate_many` and the moment branch of :func:`brute_force` — runs the
same private row path on a ``(rows, n)`` matrix (one row for a single
sample), so one sample gives the same bits whichever entry point sees it.
That path has one centering and one moment block:

* counting statistics (S, W, KS, BH/NA/MO) sort each row and subtract its
  trimmed mean ``(xs * trim_weights(n, alpha)).sum(axis=1)``, the same sum
  :func:`symlab.location.trimmed_mean` takes.  The row-batched counting
  kernel :func:`_count_rows` then takes the matrix of sorted, centered rows.
  All characterization statistics reduce to counts of subsets whose
  relevant order statistic has absolute value below a threshold:
  closed-form products of binomial coefficients of ``#{y <= -t}``,
  ``#{-t < y < t}`` and ``#{y >= t}``.  The kernel finds these counts for
  every threshold of every row, gathers the coefficients from one binomial
  table as 2-D arrays and reduces each row to an integer numerator (the
  integral sum, the supremum with its maximizing threshold, or a family
  member at fixed ``t``): ``O(n log n)`` per row after sorting.  Counts are
  int64, exact while ``2 n C(n, p) < 2**63`` and wrapping modulo ``2**64``
  beyond.
* the moment statistics (CM, GAMMA, MGG, SQRT_B1) ignore the trimming
  coefficient and center each unsorted row by its mean and median in one
  block of axis-wise reductions; they need ``n >= 2`` and refuse a zero
  variance or (MGG) a zero mean absolute deviation.

The independent reference is :func:`brute_force`, a literal enumeration of
every subset and outer index, exactly as the statistics are defined.  It is
guarded to ``n <= 14`` and is the oracle the kernel must match bit for bit.

Indicator comparisons are strict everywhere; ties with the centered value
count as "not satisfied".  Under a continuous model ties occur with
probability zero, but integer-valued data will hit them, so kernel and
oracle apply the identical rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DegenerateSampleError, InsufficientSampleError
from .location import check_sample, trim_weights, trimmed_mean

__all__ = [
    "StatisticSpec",
    "StatisticValue",
    "parse_statistic",
    "evaluate",
    "evaluate_many",
    "evaluate_family_member",
    "brute_force",
    "counting_tables",
    "STATISTIC_NAMES",
    "INTEGRAL",
    "SUPREMUM",
    "MOMENT",
]

INTEGRAL = "integral"
SUPREMUM = "supremum"
MOMENT = "moment"

# kind -> (family, needs_k)
_KIND_TABLE = {
    "S": (INTEGRAL, False),
    "W": (INTEGRAL, False),
    "KS": (SUPREMUM, False),
    "BH_I": (INTEGRAL, False),
    "BH_K": (SUPREMUM, False),
    "NA_I": (INTEGRAL, True),
    "NA_K": (SUPREMUM, True),
    "MO_I": (INTEGRAL, True),
    "MO_K": (SUPREMUM, True),
    "CM": (MOMENT, False),
    "GAMMA": (MOMENT, False),
    "MGG": (MOMENT, False),
    "SQRT_B1": (MOMENT, False),
}

STATISTIC_NAMES = tuple(_KIND_TABLE)


@dataclass(frozen=True)
class StatisticSpec:
    """Descriptor of one test statistic.

    Parameters
    ----------
    kind:
        One of ``S, W, KS, BH_I, BH_K, NA_I, NA_K, MO_I, MO_K, CM, GAMMA,
        MGG, SQRT_B1``.
    k:
        Subsample order parameter for the NA (``k >= 2``) and MO (``k >= 1``)
        families; must be None otherwise.
    alpha:
        Trimming coefficient of the centering estimator; ignored by the
        moment-based kinds, which use their own centering.
    """

    kind: str
    k: int | None = None
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_TABLE:
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        _, needs_k = _KIND_TABLE[self.kind]
        if needs_k:
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.kind} requires a positive order parameter k")
            if self.kind.startswith("NA") and self.k < 2:
                raise ValueError("NA statistics require k >= 2")
        elif self.k is not None:
            raise ValueError(f"{self.kind} does not take an order parameter")
        if not 0.0 <= self.alpha <= 0.5:
            raise ValueError("trimming coefficient must lie in [0, 1/2]")

    @property
    def family(self) -> str:
        return _KIND_TABLE[self.kind][0]

    @property
    def subset_size(self) -> int:
        """Size of the inner subsample (characterization statistics only)."""
        if self.kind.startswith("BH"):
            return 2
        if self.kind.startswith("NA"):
            return self.k
        if self.kind.startswith("MO"):
            return 2 * self.k
        raise ValueError(f"{self.kind} is not a characterization statistic")

    @property
    def order_pair(self) -> tuple[int, int]:
        """(low, high) order-statistic ranks compared inside the subsample."""
        if self.kind.startswith("BH"):
            return (1, 2)
        if self.kind.startswith("NA"):
            return (1, self.k)
        if self.kind.startswith("MO"):
            return (self.k, self.k + 1)
        raise ValueError(f"{self.kind} is not a characterization statistic")

    @property
    def kernel_order(self) -> int:
        """Order of the underlying (family of) U-statistic kernels."""
        if self.kind in ("S", "KS"):
            return 1
        if self.kind == "W":
            return 2
        if self.kind in ("CM", "GAMMA", "MGG", "SQRT_B1"):
            return 1
        p = self.subset_size
        return p + 1 if self.kind.endswith("_I") else p

    @property
    def label(self) -> str:
        return self.kind if self.k is None else f"{self.kind}_{self.k}"

    def __str__(self) -> str:
        return self.label


def parse_statistic(name: str, alpha: float = 0.0) -> StatisticSpec:
    """Parse a statistic id such as ``"W"``, ``"NA_I_4"`` or ``"MO_K_2"``."""
    token = name.strip().upper().replace("(", "_").rstrip(")")
    if token in _KIND_TABLE:
        return StatisticSpec(token, alpha=alpha)
    parts = token.rsplit("_", 1)
    if len(parts) == 2 and parts[0] in _KIND_TABLE and parts[1].isdigit():
        return StatisticSpec(parts[0], k=int(parts[1]), alpha=alpha)
    raise ValueError(f"cannot parse statistic name {name!r}")


@dataclass(frozen=True)
class StatisticValue:
    """A computed statistic value, with the maximizing threshold if any."""

    value: float
    sup_argument: float | None = None


# ---------------------------------------------------------------------------
# counting kernel
# ---------------------------------------------------------------------------


def _comb_table(n: int, p: int) -> np.ndarray:
    """Exact table ``T[j, i] = C(j, i)`` for ``j <= n``, ``i <= p`` (int64).

    Column ``i`` is the running sum of column ``i - 1`` (the hockey-stick
    identity ``C(j, i) = sum_{m < j} C(m, i - 1)``), one ``cumsum`` per
    column.  int64 sums wrap modulo ``2**64``, so every entry equals Pascal's
    rule carried out in int64.
    """
    cols = np.zeros((p + 1, n + 1), dtype=np.int64)
    cols[0] = 1
    for i in range(1, p + 1):
        np.cumsum(cols[i - 1, :-1], out=cols[i, 1:])
    return cols.T


def counting_tables(centered_sorted, t: float) -> tuple[int, int]:
    """Counts ``a = #{x <= -t}`` and ``b = #{x < t}`` on a sorted vector.

    These two numbers determine every subset count the characterization
    statistics need at threshold ``t``.
    """
    y = np.asarray(centered_sorted, dtype=float)
    a = int(np.searchsorted(y, -t, side="right"))
    b = int(np.searchsorted(y, t, side="left"))
    return a, b


def _search(ys: np.ndarray, queries: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted`` of ``queries[i]`` in the sorted row ``ys[i]``, for every row.

    The one step taken row by row, as numpy has no batched binary search: a
    stable argsort of each row with its queries took 1.6x (512 x 100) to 4x
    (100 x 2000) as long as this loop on a 2-core x86-64 VM.
    """
    out = np.empty(queries.shape, dtype=np.int64)
    for y, q, o in zip(ys, queries, out):
        o[:] = np.searchsorted(y, q, side=side)
    return out


def _order_stat_counts(table: np.ndarray, n: int, p: int, r: int, a, b) -> np.ndarray:
    """Number of ``p``-subsets whose ``r``-th order statistic ``W`` has ``|W| < t``.

    ``a = #{y <= -t}`` and ``b = #{y < t}`` are arrays with one entry per
    row and threshold.  The condition ``-t < W < t`` is equivalent to
    ``#{subset elements < t} >= r`` and ``#{subset elements <= -t} <= r - 1``,
    so the count is a sum of products of binomial coefficients over the
    composition of the subset across the three groups.
    """
    n_mid = b - a
    n_right = n - b
    total = np.zeros(a.shape, dtype=np.int64)
    for left in range(0, min(r - 1, p) + 1):
        c_left = table[a, left]
        for mid in range(max(0, r - left), p - left + 1):
            total += c_left * table[n_mid, mid] * table[n_right, p - left - mid]
    return total


def _char_numerators(spec: StatisticSpec, ys: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Doubled integer numerators ``N_low(t) - N_high(t)``, one per row and threshold.

    Doubling keeps the BH statistics' half-weighted kernel integral; the
    caller divides by :func:`_char_denominator`.  The count step functions
    are left-continuous, so evaluating at every jump threshold covers all
    attained values.
    """
    n = ys.shape[1]
    p = spec.subset_size
    r_low, r_high = spec.order_pair
    table = _comb_table(n, p)
    a = _search(ys, -t, "right")
    b = _search(ys, t, "left")
    num = _order_stat_counts(table, n, p, r_low, a, b) - _order_stat_counts(
        table, n, p, r_high, a, b
    )
    num = np.where(t > 0.0, num, 0)
    # the half-weighted BH kernel is (N_1 + N_2)/2 - N_2 = (N_1 - N_2)/2
    return num if spec.kind.startswith("BH") else 2 * num


def _char_denominator(spec: StatisticSpec, n: int) -> float:
    # doubled throughout so BH's half-weights stay integral
    return 2.0 * math.comb(n, spec.subset_size)


def _ks_numerators(ys: np.ndarray, s: np.ndarray):
    """``n (F_n(s) + F_n(-s) - 1)`` at, just below and just above each threshold ``s``."""
    n = ys.shape[1]
    up_at = _search(ys, s, "right")
    down_at = _search(ys, -s, "right")
    left = _search(ys, s, "left") + down_at - n
    right = up_at + _search(ys, -s, "left") - n
    return up_at + down_at - n, left, right


def _sup(numerators, thresholds: np.ndarray):
    """Per-row largest ``|numerator|`` and the threshold attaining it.

    Ties go to the earliest array of ``numerators``, then to the smallest
    threshold; thresholds set to ``inf`` are never chosen, and a row with no
    eligible threshold gets 0.
    """
    mags = [np.abs(num) for num in numerators]
    best = np.max([mag.max(axis=1) for mag in mags], axis=0)
    arg = np.zeros(best.shape)
    for mag in reversed(mags):
        tied = np.where(mag == best[:, None], thresholds, np.inf).min(axis=1)
        arg = np.where(tied < np.inf, tied, arg)
    return best, arg


def _count_rows(spec: StatisticSpec, ys: np.ndarray, t: float | None = None):
    """Values of a counting statistic on every row of ``ys`` at once.

    ``ys`` is a ``(rows, n)`` matrix of sorted, centered samples.  Every
    count is an int64 array over all rows and thresholds, and each value is
    one division of its integer numerator: the integral sum, the supremum
    or, with ``t`` given (supremum kinds), the family member at ``t``.
    Returns ``(values, sup_arguments)``; the arguments are the maximizing
    thresholds of a supremum and None otherwise.
    """
    rows, n = ys.shape
    if spec.kind == "S":
        return np.sum(ys > 0.0, axis=1) / n - 0.5, None
    if spec.kind == "W":
        # ordered pairs with y_i + y_j > 0, less the diagonal, halved
        above = n - _search(ys, -ys, "right")
        pairs = (above.sum(axis=1) - np.sum(ys > 0.0, axis=1)) // 2
        return pairs / math.comb(n, 2) - 0.5, None
    if t is not None:
        if spec.family != SUPREMUM:
            raise ValueError("fixed thresholds apply to supremum-type statistics only")
        member = np.full((rows, 1), float(t))
        if spec.kind == "KS":
            return _ks_numerators(ys, member)[0][:, 0] / n, None
        return _char_numerators(spec, ys, member)[:, 0] / _char_denominator(spec, n), None
    mags = np.abs(ys)
    if spec.kind == "KS":
        s = np.concatenate([np.zeros((rows, 1)), mags], axis=1)
        best, arg = _sup(_ks_numerators(ys, s), s)
        return best / n, arg
    nums = _char_numerators(spec, ys, mags)
    if spec.family == SUPREMUM:
        # beyond the largest jump every count difference is zero
        best, arg = _sup((nums,), np.where(mags > 0.0, mags, np.inf))
        return best / _char_denominator(spec, n), arg
    return nums.sum(axis=1) / (n * _char_denominator(spec, n)), None


def _check_rows(spec: StatisticSpec, samples: np.ndarray) -> None:
    """The size and magnitude rules for a finite ``(rows, n)`` sample matrix.

    Centering at most doubles a magnitude; the moment statistics then sum
    ``n`` squares (SQRT_B1 cubes).  Below the limit nothing overflows in any
    summation order, so a sample and all its permutations are refused alike.
    """
    n = samples.shape[1]
    power, terms = 1, 1
    if spec.family == MOMENT:
        if n < 2:
            raise InsufficientSampleError("moment-based statistics need n >= 2")
        power, terms = (3 if spec.kind == "SQRT_B1" else 2), n
    elif n < spec.kernel_order:
        raise InsufficientSampleError(
            f"{spec.label} needs at least {spec.kernel_order} observations"
        )
    limit = (np.finfo(float).max / (2.0 * terms)) ** (1.0 / power) / 2.0
    if max(samples.max(), -samples.min()) > limit:
        raise ValueError(
            f"{spec.label} overflows float64 on values beyond {limit:.3g} in magnitude"
        )


def _evaluate_rows(spec: StatisticSpec, samples: np.ndarray, t: float | None = None):
    """Values of ``spec`` on every row of a finite ``(rows, n)`` sample matrix.

    The one evaluation path behind every public entry point.  Counting
    statistics sort each row, center it by its trimmed mean
    ``(xs * trim_weights(n, alpha)).sum(axis=1)`` (a row-wise sum, so one row
    alone and the same row inside any chunk get the same bits) and run
    :func:`_count_rows`.  Moment statistics center with the row mean and
    median instead.  Returns ``(values, sup_arguments)`` as
    :func:`_count_rows` does.
    """
    n = samples.shape[1]
    _check_rows(spec, samples)
    if spec.family != MOMENT:
        xs = np.sort(samples, axis=1)
        mu = (xs * trim_weights(n, spec.alpha)).sum(axis=1)
        return _count_rows(spec, xs - mu[:, None], t)
    xbar = samples.mean(axis=1)
    med = np.median(samples, axis=1)
    centered = samples - xbar[:, None]
    var = np.mean(centered**2, axis=1)
    if np.any(var <= 0.0):
        raise DegenerateSampleError("sample variance is zero")
    s = np.sqrt(var)
    if spec.kind == "CM":
        return (xbar - med) / s, None
    if spec.kind == "GAMMA":
        return 2.0 * (xbar - med), None
    if spec.kind == "MGG":
        j = math.sqrt(math.pi / 2.0) * np.mean(np.abs(samples - med[:, None]), axis=1)
        if np.any(j <= 0.0):
            raise DegenerateSampleError("mean absolute deviation is zero")
        return (xbar - med) / j, None
    return np.mean(centered**3, axis=1) / s**3, None


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------


def evaluate(spec: StatisticSpec, sample) -> StatisticValue:
    """Evaluate one statistic on a data vector (the row path on one row)."""
    values, args = _evaluate_rows(spec, check_sample(sample)[None, :])
    return StatisticValue(float(values[0]), None if args is None else float(args[0]))


def evaluate_family_member(spec: StatisticSpec, sample, t: float) -> float:
    """Value of a supremum-family member at fixed threshold ``t`` (signed).

    For KS this is ``F_n(t + center) + F_n(center - t) - 1``; for the
    characterization families it is the subset-count difference at ``t``.
    Used to validate the member-level limiting variances by simulation.
    """
    if spec.family != SUPREMUM:
        raise ValueError("family members exist only for supremum-type statistics")
    return float(_evaluate_rows(spec, check_sample(sample)[None, :], t)[0][0])


def evaluate_many(spec: StatisticSpec, samples: np.ndarray, t: float | None = None) -> np.ndarray:
    """Row-wise evaluation on a 2-D array of samples.

    With ``t`` given (supremum kinds only) the fixed-threshold family member
    is evaluated instead of the supremum.  Equals :func:`evaluate` /
    :func:`evaluate_family_member` row for row, bit for bit.
    """
    return _evaluate_rows(spec, check_sample(samples, ndim=2), t)[0]


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

_BRUTE_LIMIT = 14


def _segment_candidates(values: np.ndarray) -> np.ndarray:
    """Thresholds covering every constant segment of the count step functions."""
    vals = np.unique(values[values > 0.0])
    if vals.size == 0:
        return np.asarray([1.0])
    mids = (vals[1:] + vals[:-1]) / 2.0
    return np.concatenate([vals, mids, [vals[-1] + 1.0]])


def brute_force(spec: StatisticSpec, sample) -> StatisticValue:
    """Literal subset enumeration of a statistic (oracle path, ``n <= 14``)."""
    x = check_sample(sample)
    n = x.size
    if n > _BRUTE_LIMIT:
        raise ValueError(f"brute-force evaluation refuses n > {_BRUTE_LIMIT}")
    if spec.family == MOMENT:
        return StatisticValue(float(_evaluate_rows(spec, x[None, :])[0][0]))
    _check_rows(spec, x[None, :])

    mu = trimmed_mean(x, spec.alpha)
    y = x - mu

    if spec.kind == "S":
        count = sum(1 for yi in y if yi > 0.0)
        return StatisticValue(count / n - 0.5)

    if spec.kind == "W":
        count = sum(1 for i in range(n) for j in range(i + 1, n) if y[i] + y[j] > 0.0)
        return StatisticValue(count / math.comb(n, 2) - 0.5)

    if spec.kind == "KS":
        # F_n(center + t) + F_n(center - t) - 1 mixes right- and left-continuous
        # steps, so each open segment between jumps needs a point inside it;
        # exact rational midpoints exist even between neighbouring doubles
        ys = [float(v) for v in y]
        jumps = [Fraction(0)] + sorted({Fraction(abs(v)) for v in ys if v != 0.0})
        mids = [(lo + hi) / 2 for lo, hi in zip(jumps, jumps[1:])]
        best_num, best_t = -1, 0.0
        for t in jumps + mids + [jumps[-1] + 1]:
            g = sum(1 for v in ys if v <= t) + sum(1 for v in ys if v <= -t) - n
            if abs(g) > best_num:
                best_num, best_t = abs(g), float(t)
        return StatisticValue(best_num / n, best_t)

    p = spec.subset_size
    r_low, r_high = spec.order_pair
    idx = np.asarray(list(combinations(range(n), p)))
    sub_sorted = np.sort(y[idx], axis=1)
    half_form = spec.kind.startswith("BH")
    if half_form:
        first = np.abs(y[idx[:, 0]])
        second = np.abs(y[idx[:, 1]])
        top = np.abs(sub_sorted[:, 1])
    else:
        lows = np.abs(sub_sorted[:, r_low - 1])
        highs = np.abs(sub_sorted[:, r_high - 1])

    def doubled_num(t: float) -> int:
        # kernel sum at threshold t, doubled so the BH half-weights stay integral
        if half_form:
            return (
                int(np.sum(first < t)) + int(np.sum(second < t)) - 2 * int(np.sum(top < t))
            )
        return 2 * (int(np.sum(lows < t)) - int(np.sum(highs < t)))

    if spec.family == INTEGRAL:
        total = sum(doubled_num(abs(y[j])) for j in range(n))
        return StatisticValue(total / (2.0 * n * math.comb(n, p)))

    jump_values = (
        np.concatenate([first, second, top]) if half_form else np.concatenate([lows, highs])
    )
    best_num, best_t = 0, 0.0
    for t in _segment_candidates(jump_values):
        num = doubled_num(float(t))
        if abs(num) > abs(best_num):
            best_num, best_t = num, float(t)
    return StatisticValue(abs(best_num) / (2.0 * math.comb(n, p)), best_t)
