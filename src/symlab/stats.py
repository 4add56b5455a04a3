"""Exact finite-sample evaluation of the symmetry test statistics.

Every public entry point — :func:`evaluate`, :func:`evaluate_many` (which
also reads a supremum family's member at a fixed threshold ``t``) and the
moment branch of :func:`brute_force` — runs the same private row path on a
``(rows, n)`` matrix (one row for a single sample), so one sample gives the
same bits whichever entry point sees it.
That path has one centering and one moment block:

* counting statistics (S, W, KS, BH/NA/MO) sort each row and subtract its
  trimmed mean ``(xs * trim_weights(n, alpha)).sum(axis=1)``, the same sum
  :func:`symlab.location.trimmed_mean` takes.  The counting kernel
  :func:`_count_rows` then sorts the keys ``(|y| bits << 1) | (y < 0)``
  once for the whole chunk (by magnitude, ``y >= 0`` first among equal
  ones) and reads every count at each threshold ``z = |y|`` off that order
  with flat accumulations, with no loop over rows.  A characterization
  statistic counts ``D[#{y < z}] - D[#{y <= -z}]`` subsets for one band
  table ``D`` (:func:`_band_counts`), KS its one-sided limits, W sorted
  positions.  Each row reduces to an integer numerator (the integral sum,
  the supremum with its maximizing threshold, or a family member at fixed
  ``t``), exact for every ``n`` and ``k``: int64 where it fits, Python ints
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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DegenerateSampleError, InsufficientSampleError
from .location import _check_alpha, check_sample, trim_weights, trimmed_mean

__all__ = [
    "StatisticSpec",
    "StatisticValue",
    "parse_statistic",
    "evaluate",
    "evaluate_many",
    "brute_force",
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
            lo = 2 if self.kind.startswith("NA") else 1
            if not isinstance(self.k, numbers.Integral) or isinstance(self.k, bool) or self.k < lo:
                raise ValueError(f"{self.kind} requires an integer order parameter k >= {lo}")
        elif self.k is not None:
            raise ValueError(f"{self.kind} does not take an order parameter")
        _check_alpha(self.alpha)

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


def _band_counts(n: int, p: int, r_low: int, r_high: int) -> np.ndarray:
    """``D[m] = sum_{r_low <= j < r_high} C(m, j) C(n - m, p - j)`` for ``m = 0..n``.

    The ``p``-subsets whose ``r``-th order statistic lies in ``(-t, t)`` are
    those with at least ``r`` elements below ``t`` less those with at least
    ``r`` at or below ``-t``, so with ``a = #{y <= -t}`` and ``b = #{y < t}``
    the count at rank ``r_low`` less that at ``r_high`` is ``D[b] - D[a]``.
    Column ``i`` of ``C(m, i)`` is the running sum of column ``i - 1``.
    Entries of ``D`` are at most ``C(n, p)``: int64 while ``2 C(n, p) <
    2**63``, so doubled numerators fit, and Python ints beyond.  An int64
    binomial past ``2**63`` only multiplies zeros: two nonzero factors
    multiply to a term of ``C(n, p)``.
    """
    dtype = np.int64 if 2 * math.comb(n, p) < 2**63 else object
    cols = np.zeros((p + 1, n + 1), dtype=dtype)
    cols[0] = 1
    for i in range(1, p + 1):
        np.cumsum(cols[i - 1, :-1], out=cols[i, 1:])
    return sum(cols[j] * cols[p - j, ::-1] for j in range(r_low, r_high))


def _magnitude_keys(ys: np.ndarray) -> np.ndarray:
    """Each row's keys ``(|y| bits << 1) | (y < 0)``, sorted; ``y >= 0`` first among equal ``|y|``."""
    keys = np.abs(ys).view(np.uint64)  # a non-negative float64's bits are a monotone integer
    keys <<= 1
    keys |= ys < 0.0
    keys.sort(axis=1)
    return keys


def _magnitude_counts(ys: np.ndarray):
    """Each row's magnitudes ``z`` ascending, with ``a = #{y <= -z}`` and ``c = #{y >= z}``.

    Both counts start at the first key of ``z``'s run of equal magnitudes,
    found by one flat ``maximum.accumulate`` over the chunk; ``a`` counts the
    sign bits from there to the row's end, read off one flat ``cumsum``.  At
    ``z = 0`` they are ``#{y < 0}`` and ``#{y >= 0}``.
    """
    rows, n = ys.shape
    keys = _magnitude_keys(ys).ravel()
    start = np.arange(keys.size)
    new = np.empty(keys.size, dtype=bool)
    np.greater(keys[1:] ^ keys[:-1], 1, out=new[1:])
    new[::n] = True
    start *= new
    np.maximum.accumulate(start, out=start)
    neg = np.zeros(keys.size + 1, dtype=np.int64)  # sign bits before each flat position
    np.cumsum((keys & 1).view(np.int64), out=neg[1:])
    a = neg[start].reshape(rows, n)
    np.subtract(neg[n::n, None], a, out=a)
    c = start.reshape(rows, n)
    np.subtract(np.arange(n, keys.size + 1, n)[:, None], c, out=c)
    c -= a
    keys >>= 1
    return keys.view(float).reshape(rows, n), a, c


def _sup(mag: np.ndarray, z: np.ndarray, zero=None):
    """Per-row largest ``mag`` and the smallest threshold of ``z`` (ascending) attaining it.

    ``zero`` holds the numerators at threshold 0, which precedes every other.
    """
    r = np.arange(len(z))
    i = mag.argmax(axis=1)  # the first largest entry
    best, arg = mag[r, i], z[r, i]
    if zero is None:
        return best, arg
    zero = np.abs(zero)
    return np.maximum(best, zero), np.where(zero >= best, 0.0, arg)


def _char_divisor(spec: StatisticSpec, n: int) -> float:
    """``2 C(n, p)``, times ``n`` for the integral kinds, in float64; ``inf`` past its range."""
    count = math.comb(n, spec.subset_size)
    twice = 2.0 * count if count < 2**1023 else math.inf  # doubled: BH half-weights stay integral
    return n * twice if spec.family == INTEGRAL else twice


def _char_values(spec: StatisticSpec, n: int, num: np.ndarray) -> np.ndarray:
    """``num`` over :func:`_char_divisor` in float64, for int64 and Python-int numerators alike."""
    return np.asarray(num / _char_divisor(spec, n), dtype=float)


def _count_rows(spec: StatisticSpec, ys: np.ndarray, t: float | None = None):
    """Values of a counting statistic on every row of ``ys`` at once.

    ``ys`` is a ``(rows, n)`` matrix of sorted, centered samples.  Every
    count is an integer array over all rows and thresholds (Python ints
    where int64 would not hold them), and each value is one division of its
    integer numerator: the integral sum, the supremum or, with ``t`` given
    (supremum kinds), the family member at ``t``.
    Returns ``(values, sup_arguments)``; the arguments are the maximizing
    thresholds of a supremum and None otherwise.
    """
    n = ys.shape[1]
    if spec.kind == "S":
        return np.sum(ys > 0.0, axis=1) / n - 0.5, None
    if spec.kind == "W":
        # a pair sums above 0 exactly when its later key is positive, so each
        # positive key adds its position in the row
        keys = _magnitude_keys(ys)
        pairs = ((keys & 1 == 0) & (keys > 0)) @ np.arange(n)
        return pairs / math.comb(n, 2) - 0.5, None
    if spec.kind == "KS" and t is not None:  # n (F_n(t) + F_n(-t) - 1)
        counts = np.count_nonzero(ys <= t, axis=1) + np.count_nonzero(ys <= -t, axis=1)
        return (counts - n) / n, None
    if spec.kind == "KS":
        # n (F_n(s) + F_n(-s) - 1) is a - c just below s = z > 0 and a - c' at
        # s, where c' = #{y > z} is the next key's c at the last key of each
        # run of equal z; the value just above s is the one just below the
        # next threshold, or 0 past the largest
        z, a, c = _magnitude_counts(ys)
        keep = (np.diff(z, axis=1, append=np.inf) > 0.0) & (z > 0.0)
        zeros = np.count_nonzero(z == 0.0, axis=1)
        side0 = 2 * a[:, 0] + zeros - n  # beside t = 0; at t = 0 the zeros count twice
        b_left, g_left = _sup(np.abs(a - c) * keep, z, side0)
        c[:, :-1] = c[:, 1:]  # #{y > z} at the last key of each run
        c[:, -1] = 0
        b_at, g_at = _sup(np.abs(a - c) * keep, z, side0 + zeros)
        return np.maximum(b_at, b_left) / n, np.where(b_at >= b_left, g_at, g_left)
    band = _band_counts(n, spec.subset_size, *spec.order_pair)
    if t is not None:  # a = #{y <= -t}, b = #{y < t}
        a, b = np.count_nonzero(ys <= -t, axis=1), np.count_nonzero(ys < t, axis=1)
        num = (band[b] - band[a]) * (t > 0.0)
    else:  # b = n - c: a and b are equal at z = 0
        z, a, c = _magnitude_counts(ys)
        num = band[np.subtract(n, c, out=c)]
        num -= band[a]
    # the half-weighted BH kernel is (N_1 + N_2)/2 - N_2 = (N_1 - N_2)/2
    if not spec.kind.startswith("BH"):
        num *= 2
    if t is not None:
        return _char_values(spec, n, num), None
    if spec.family == SUPREMUM:  # threshold 0 is no jump: its entries drop to -1
        best, arg = _sup(np.abs(num) - (z == 0.0), z)
        return _char_values(spec, n, np.maximum(best, 0)), arg
    if num.dtype == object:
        total = num.sum(axis=1)
    else:  # an int64 row sum can wrap: sum the high and low 32-bit halves apart
        high, low = (num >> 32).sum(axis=1), (num & 0xFFFFFFFF).sum(axis=1)
        total = high.astype(object) * 2**32 + low
    return _char_values(spec, n, total), None


def _check_rows(spec: StatisticSpec, samples: np.ndarray) -> None:
    """The size and magnitude rules for a finite ``(rows, n)`` sample matrix.

    Centering at most doubles a magnitude; the moment statistics then sum
    ``n`` squares (SQRT_B1 cubes).  Below the limit nothing overflows in any
    summation order, so a sample and all its permutations are refused alike.
    The characterization statistics divide by twice the subset count (and
    ``n``, integral kinds) in float64, which must not overflow either.
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
    elif spec.kind not in ("S", "W", "KS") and math.isinf(_char_divisor(spec, n)):
        raise ValueError(f"{spec.label} counts more subsets of {n} than float64 can hold")
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
    if t is not None and spec.family != SUPREMUM:
        raise ValueError("fixed thresholds apply to supremum-type statistics only")
    if t is not None and math.isnan(t := float(t)):
        raise ValueError("threshold t must not be NaN")
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


def evaluate_many(spec: StatisticSpec, samples: np.ndarray, t: float | None = None) -> np.ndarray:
    """Row-wise evaluation on a 2-D array of samples.

    With ``t`` given (supremum kinds only) the signed family member at the
    fixed threshold is evaluated instead of the supremum: for KS
    ``F_n(t + center) + F_n(center - t) - 1``, for the characterization
    families the subset-count difference at ``t``; one sample ``x`` is the
    row ``x[None, :]``.  Equals :func:`evaluate` row for row, bit for bit.
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
