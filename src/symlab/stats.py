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
  :func:`_magnitude_counts` then sorts the keys ``(|y| bits << 1) | (y < 0)``
  once for the whole chunk (by magnitude, ``y >= 0`` first among equal
  ones) and reads every count at each threshold ``z = |y|`` off that order
  with flat accumulations, with no loop over rows.  Every counting
  statistic reads these counts, on a chunk as on one row: S the negative
  values and the zeros, W the positive values at each magnitude, paired with
  the smaller magnitudes and one another, KS its one-sided limits, and a
  characterization statistic ``D[#{y < z}] - D[#{y <= -z}]`` subsets for one
  band table ``D`` (:func:`_band_counts`).  Each row reduces to an integer
  numerator (the integral sum, the supremum with its maximizing threshold, or
  a family member at fixed ``t``), exact for every ``n`` and ``k``: int64
  while ``2 n C(n, p) < 2**63`` for an integral sum (``n <= 10,206`` at
  ``p = 4``) and ``2 C(n, p) < 2**63`` for a table entry, Python ints beyond.
* the moment statistics (CM, GAMMA, MGG, SQRT_B1) ignore the trimming
  coefficient and center each row by its mean and median (the middle of a
  sorted copy) in one block of axis-wise reductions; they need ``n >= 2``
  and share one degeneracy rule: a row of equal values (read exactly off the
  sorted copy) or a zero variance is refused, and SQRT_B1 also refuses a
  variance whose 3/2 power is below the smallest normal float.
  SQRT_B1 cubes the centered block by ``np.power`` in place, split by
  elements over the usable CPUs from ``2**16`` values up
  (:func:`symlab._threads.split`; numpy's cube of a range is that range of
  the whole cube, bit for bit): 2.7 ms against 4.7 ms at n = 10^5 on a
  2-core x86-64 VM.  The split goes when the planned re-record of recorded
  bits replaces the cube with two multiplications.

A chunk of several rows runs in arrays the thread running it reuses from call
to call (:func:`_scratch`): one set per row length ``n``, each array grown to the
largest chunk seen at that ``n``, dropped at the next ``n``.  A single row gets
fresh memory, and no returned array is a view of the set.  Each thread keeps one
read-only entry for the last sample, in arrays of its own (:func:`_entry`): a
single row, named by its bits (-0.0 is not 0.0), or the array a one-chunk Monte Carlo
run drew into, named by its draw key (:func:`_drawn`).  Its parts: the peak magnitude of
its bits once they pass the finite check; a row's counts ``(z, a, b)`` S, W, KS
and BH/NA/MO read at one ``alpha`` and its moments, 32 bytes a value; the per-row
``#{y < t}``, ``#{y <= t}`` and ``#{y <= -t}`` every member at ``(alpha, t)``
reads.  Another sample (a single row too, as ``p_value``'s; a chunk of rows neither
reads nor drops it) drops the entry, another tag the part (:func:`_kept`), so a
battery checks and sorts its sample once, and members on kept draws center and
count them once (any other statistic centers them anew).  Band tables and trimming
weights outlive the entry: the process keeps one read-only copy per ``(n, p, r)``
or ``(n, alpha)``, within 8 MiB (:func:`_stored`).

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
import threading
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import _threads
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

# a kind's family, least k (None: takes none), ranks (p, r) of k (StatisticSpec) and BH's half weight
_Kind = namedtuple("_Kind", "family least_k ranks half", defaults=(None, None, False))
_KIND_TABLE = {
    "S": _Kind(INTEGRAL),
    "W": _Kind(INTEGRAL),
    "KS": _Kind(SUPREMUM),
    "BH_I": _Kind(INTEGRAL, None, lambda k: (2, 1), True),
    "BH_K": _Kind(SUPREMUM, None, lambda k: (2, 1), True),
    "NA_I": _Kind(INTEGRAL, 2, lambda k: (k, 1)),
    "NA_K": _Kind(SUPREMUM, 2, lambda k: (k, 1)),
    "MO_I": _Kind(INTEGRAL, 1, lambda k: (2 * k, k)),
    "MO_K": _Kind(SUPREMUM, 1, lambda k: (2 * k, k)),
    "CM": _Kind(MOMENT),
    "GAMMA": _Kind(MOMENT),
    "MGG": _Kind(MOMENT),
    "SQRT_B1": _Kind(MOMENT),
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
        families; must be None otherwise.  A characterization statistic is its
        ranks ``(p, r)`` (``_KIND_TABLE``): BH ``(2, 1)`` with weight 1/2, NA(k)
        ``(k, 1)`` and MO(k) ``(2k, k)``, which :attr:`subset_size`,
        :attr:`order_pair` and :attr:`kernel_order` read.
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
        if (lo := _KIND_TABLE[self.kind].least_k) is not None:
            if not isinstance(self.k, numbers.Integral) or isinstance(self.k, bool) or self.k < lo:
                raise ValueError(f"{self.kind} requires an integer order parameter k >= {lo}")
        elif self.k is not None:
            raise ValueError(f"{self.kind} does not take an order parameter")
        _check_alpha(self.alpha)

    @property
    def family(self) -> str:
        return _KIND_TABLE[self.kind].family

    def _ranks(self) -> tuple[int, int]:
        """``(p, r)`` of a characterization statistic (its :data:`_KIND_TABLE` row)."""
        if (ranks := _KIND_TABLE[self.kind].ranks) is None:
            raise ValueError(f"{self.kind} is not a characterization statistic")
        return ranks(self.k)

    @property
    def subset_size(self) -> int:
        """Size ``p`` of the inner subsample (characterization statistics only)."""
        return self._ranks()[0]

    @property
    def order_pair(self) -> tuple[int, int]:
        """(low, high) order-statistic ranks ``(r, p + 1 - r)`` compared inside the subsample."""
        p, r = self._ranks()
        return (r, p + 1 - r)

    @property
    def kernel_order(self) -> int:
        """Order of the underlying (family of) U-statistic kernels (``p``, plus 1 if integral-type)."""
        if _KIND_TABLE[self.kind].ranks is None:
            return 2 if self.kind == "W" else 1
        return self.subset_size + (self.family == INTEGRAL)

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


def _band_counts(n: int, p: int, r: int) -> np.ndarray:
    """``D[m] = sum_{r <= j <= p - r} C(m, j) C(n - m, p - j)`` for ``m = 0..n``, read-only.

    The ``p``-subsets whose ``r``-th order statistic lies in ``(-t, t)`` are
    those with at least ``r`` elements below ``t`` less those with at least
    ``r`` at or below ``-t``, so with ``a = #{y <= -t}`` and ``b = #{y < t}``
    the count at rank ``r`` less that at rank ``p + 1 - r`` is ``D[b] - D[a]``.
    ``w[i] = C(i, r - 1) C(n - 1 - i, p - r)`` subsets have their ``r``-th smallest rank at
    ``i`` and ``w[n - 1 - i]`` their ``(p + 1 - r)``-th, so ``D[m + 1] - D[m] = w[m] - w[n - 1 - m]``.
    ``w`` is formed where nonzero, ``i = r - 1 .. n - p + r - 1``, off running sums of ones.
    Every entry is at most ``C(n, p)``: int64 while ``2 C(n, p) < 2**63``, so doubled
    numerators fit, and Python ints beyond.  The table is made once the last column is
    freed, while ``w`` is held: made after ``w`` moved to a fresh block, it left long rows
    page-faulting in every call (glibc; about 2,300 minor faults a round of eval-long-rows).
    Kept by :func:`_stored`.
    """

    def build():
        dtype = np.int64 if 2 * math.comb(n, p) < 2**63 else object
        size = max(n - p + 1, 0)
        col = np.ones(size, dtype)
        for j in range(p - r):  # column j + 1 off column j; r - 1 < p - r
            if j == r - 1:
                w = col.copy()  # C(s + r - 1, r - 1)
            np.cumsum(col, out=col)
        np.multiply(w, col[::-1], out=w)  # times C(n - r - s, p - r): w[r - 1 + s] at s
        del col
        band = np.zeros(n + 1, dtype)
        band[r : r + size] = w
        band[p - r + 1 : p - r + 1 + size] -= w[::-1]
        return np.cumsum(band, out=band)

    return _stored((n, p, r), build)


def _weights(n: int, alpha: float) -> np.ndarray:
    """:func:`trim_weights`, read-only, kept by the process (:func:`_stored`) as ``(n, alpha)``."""
    return _stored((n, alpha), lambda: trim_weights(n, alpha))


def _stored(key: tuple, build) -> np.ndarray:
    """The process's read-only table ``key`` (all it depends on), made by ``build()`` on a miss.

    Past ``_BAND_BYTES`` (8 MiB, an object table's Python ints counted) the least recently used
    go, and a larger table is built per call: 8 MiB resident at worst, plus tables callers hold.
    """
    with _bands_lock:
        if key in _bands:
            _bands[key] = _bands.pop(key)  # now the most recently used
            return _bands[key][0]
    table = build()
    table.flags.writeable = False
    size = table.nbytes + (sum(v.__sizeof__() for v in table) if table.dtype == object else 0)
    with _bands_lock:
        if size <= _BAND_BYTES:
            _bands[key] = table, size
        while sum(kept for _, kept in _bands.values()) > _BAND_BYTES:
            del _bands[next(iter(_bands))]
    return table


_BAND_BYTES = 2**23  # budget of the tables every thread shares
_bands: dict = {}  # (n, p, r) or (n, alpha) -> (read-only table, bytes), least recently used first
_bands_lock = threading.Lock()
_pool = threading.local()  # each thread's working set (row length n, arrays) and kept entry


def _scratch(slot: int, rows: int, n: int, dtype=float, shape=None) -> np.ndarray:
    """Working array ``slot`` of a ``(rows, n)`` chunk, uninitialised, as ``shape`` (or ``(rows, n)``).

    No two live arrays share a slot: 0 holds the rows, then ``a``; 1 the trim products, then
    the keys and ``z``; 2 flags, then ``b``, then flags; 3 the sign counts, then with 4 what
    each counting statistic makes off ``(z, a, b)``, S and W too.  The set is the kernel's alone.
    """
    shape = (rows, n) if shape is None else shape
    if getattr(_pool, "n", None) != n:
        _pool.n, _pool.arrays = n, {}
    if rows == 1:
        return np.empty(shape, dtype)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    block = _pool.arrays.get(slot)
    if block is None or block.size < nbytes:
        block = _pool.arrays[slot] = np.empty(nbytes, np.uint8)
    return block[:nbytes].view(dtype).reshape(shape)


def _magnitude_counts(ys: np.ndarray):
    """Each row's magnitudes ``z`` ascending, with ``a = #{y <= -z}`` and ``b = #{y < z}``.

    The keys ``(|y| bits << 1) | (y < 0)`` sort by magnitude (a non-negative float64's bits are
    a monotone integer), ``y >= 0`` first among equal ones.  Both counts start at the first key
    of ``z``'s run of equal magnitudes: ``a`` counts the sign bits from there to the row's end,
    read off one flat ``cumsum``.  Each key starts its own run unless a row of the chunk repeats
    a magnitude; then one flat ``maximum.accumulate`` carries each run's first index and the
    counts are gathered there.  At ``z = 0`` both are ``#{y < 0}``.
    """
    rows, n = ys.shape
    # a single row's z, a and b are one fresh block, which :func:`_kept` keeps; a
    # freed block this large lifts glibc's trim threshold, so later tails reuse the heap
    block = np.empty((3, 1, n), np.uint64) if rows == 1 else [
        _scratch(slot, rows, n, np.uint64) for slot in (1, 0, 2)]
    keys = np.abs(ys, out=block[0].view(float)).view(np.uint64)
    keys <<= 1
    keys |= np.less(ys, 0.0, out=_scratch(2, rows, n, bool))
    keys.sort(axis=1)
    flat = keys.ravel()
    step = block[2]
    np.bitwise_xor(flat[1:], flat[:-1], out=step.ravel()[1:])
    step >>= 1  # nonzero where a new magnitude starts (column 0 is multiplied by 0)
    tied = not step[:, 1:].all()  # every row's flags, before any becomes an index
    if tied:  # carry each run's first index over its repeated magnitudes
        start = np.minimum(step, 1, out=step).view(np.int64)
        start *= np.arange(n)
        start += np.arange(0, keys.size, n)[:, None]
        np.maximum.accumulate(start.ravel(), out=start.ravel())
    neg = _scratch(3, rows, n, np.int64, (keys.size + 1,))  # sign bits before each key
    neg[0] = 0
    sign = np.bitwise_and(flat, 1, out=block[1].ravel())  # a chunk's ys is dead
    np.cumsum(sign.view(np.int64), out=neg[1:])
    a = block[1].view(np.int64)
    first = np.take(neg, start, mode="clip", out=a) if tied else neg[:-1].reshape(rows, n)
    np.subtract(neg[n::n, None], first, out=a)
    del neg, first  # a single row's own memory, freed before its positions: its peak stays
    b = np.subtract(start, np.arange(0, keys.size, n)[:, None], out=start) if tied else np.arange(n)
    b = np.add(b, a, out=block[2].view(np.int64))
    keys >>= 1
    return keys.view(float), a, b


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
    """Subset count differences ``num`` (int64 or Python ints), doubled, over :func:`_char_divisor`.

    The half-weighted BH kernel is ``(N_1 + N_2)/2 - N_2 = (N_1 - N_2)/2``: its ``num`` stays single.
    """
    return np.asarray((num if _KIND_TABLE[spec.kind].half else 2 * num) / _char_divisor(spec, n), dtype=float)


def _threshold_counts(ys: np.ndarray, t: float) -> tuple:
    """Per row of centered ``ys``: ``#{y < t}``, ``#{y <= t}``, ``#{y <= -t}``, all a member at ``t`` reads."""
    flags = _scratch(1, *ys.shape, bool)
    return tuple(compare(ys, v, out=flags).sum(axis=1)
                 for compare, v in ((np.less, t), (np.less_equal, t), (np.less_equal, -t)))


def _count_members(spec: StatisticSpec, n: int, t: float, below, at_most, at_most_neg):
    """A supremum family's member at ``t`` per row off :func:`_threshold_counts` (only read), and None."""
    if spec.kind == "KS":  # n (F_n(t) + F_n(-t) - 1)
        return (at_most + at_most_neg - n) / n, None
    band = _band_counts(n, spec.subset_size, spec.order_pair[0])  # a = #{y <= -t}, b = #{y < t}
    return _char_values(spec, n, (band[below] - band[at_most_neg]) * (t > 0.0)), None


def _count_magnitudes(spec: StatisticSpec, z: np.ndarray, a: np.ndarray, b: np.ndarray):
    """S, W, KS or BH/NA/MO per row off :func:`_magnitude_counts` (only read): values, sup arguments."""
    rows, n = z.shape
    if spec.kind == "S":  # #{y > 0} = n - #{y < 0} - #{y == 0}
        zeros = np.equal(z, 0.0, out=_scratch(3, rows, n, bool)).sum(axis=1)
        return (n - a[:, 0] - zeros) / n - 0.5, None
    if spec.kind == "W":  # a pair sums above 0 when its larger magnitude is positive: the
        # m = #{y = z > 0} positives (at the last key of z's run, else 0) pair with the b - a
        # smaller magnitudes and with one another, m (b - a) + m (m - 1) / 2 pairs
        m = _scratch(3, rows, n, np.int64)
        np.subtract(b.ravel()[1:], b.ravel()[:-1], out=m.ravel()[:-1])  # flat: row ends set apart
        np.subtract(n, b[:, -1], out=m[:, -1])
        m *= np.greater(z, 0.0, out=_scratch(4, rows, n, bool))
        pairs = np.subtract(b, a, out=_scratch(4, rows, n, np.int64))
        pairs *= 2
        pairs += m
        pairs -= 1
        pairs *= m
        return pairs.sum(axis=1) // 2 / math.comb(n, 2) - 0.5, None
    if spec.kind == "KS":
        # n (F_n(s) + F_n(-s) - 1) is a + b - n just below s = z > 0 and
        # a + b' - n at s, where b' = #{y <= z} is the next key's b at the
        # last key of each run of equal z; the value just above s is the one
        # just below the next threshold, or 0 past the largest
        keep, positive = _scratch(3, rows, n, bool, (2, rows, n))
        flat = z.ravel()  # flat operands: no buffered 2-D slices; row ends are set apart
        np.greater(flat[1:], flat[:-1], out=keep.ravel()[:-1])  # the last key of each run
        keep[:, -1] = True
        keep &= np.greater(z, 0.0, out=positive)
        zeros = n - positive.sum(axis=1)
        side0 = 2 * a[:, 0] + zeros - n  # beside t = 0; at t = 0 the zeros count twice
        gap = np.add(a, b, out=_scratch(4, rows, n, np.int64))
        gap -= n
        b_left, g_left = _sup(np.multiply(np.abs(gap, out=gap), keep, out=gap), z, side0)
        np.add(a.ravel()[:-1], b.ravel()[1:], out=gap.ravel()[:-1])
        gap -= n
        gap[:, -1] = a[:, -1]  # b' = n at a row's last key
        b_at, g_at = _sup(np.multiply(np.abs(gap, out=gap), keep, out=gap), z, side0 + zeros)
        return np.maximum(b_at, b_left) / n, np.where(b_at >= b_left, g_at, g_left)
    band = _band_counts(n, spec.subset_size, spec.order_pair[0])
    exact = band.dtype == np.int64  # else Python ints, gathered into fresh object arrays

    def gather(index, slot):  # indexing, unlike np.take, gathers at read-only a and b without a copy
        return band[index] if rows == 1 or not exact else np.take(
            band, index, mode="clip", out=_scratch(slot, rows, n, np.int64))

    def row_sums(num):  # exact: int64 while no sum, difference or double wraps, else Python ints off the
        wrapped = num.sum(axis=1)  # sums of the high 32-bit halves and of the low ones, the wrapped less the high
        if 2 * n * math.comb(n, spec.subset_size) < 2**63:
            return wrapped
        high = np.right_shift(num, 32, out=num).sum(axis=1)
        return high.astype(object) * 2**32 + (wrapped - (high << 32))

    if spec.family == INTEGRAL:  # the sums over b and over a apart: one gathered row at a time
        return _char_values(spec, n, row_sums(gather(b, 3)) - row_sums(gather(a, 3))), None
    num = gather(b, 3)
    num -= gather(a, 4)
    mag = np.abs(num, out=num)  # threshold 0 is no jump: its entries drop to -1
    mag -= np.equal(z, 0.0, out=_scratch(2, rows, n, bool))
    best, arg = _sup(mag, z)
    return _char_values(spec, n, np.maximum(best, 0)), arg


def _entry(key) -> dict:
    """The thread's kept entry if its sample is ``key`` (a row's bits or a draw key), else a new empty one."""
    entry = getattr(_pool, "entry", None) or {"key": None}
    if not (type(entry["key"]) is type(key) and (
            np.array_equal(entry["key"], key) if isinstance(key, np.ndarray) else entry["key"] == key)):
        entry = _pool.entry = {"key": None}  # the one rule that drops the entry
    return entry


def _drawn(key, draw) -> np.ndarray:
    """The kept draws of one-chunk Monte Carlo run ``key``: on a miss, the array ``draw()`` filled, read-only."""
    entry = _entry(key)
    if "draws" not in entry:  # a refused draw stores no key
        draws = draw()
        draws.flags.writeable = False
        entry.update(key=key, draws=draws)
    return entry["draws"]


def _kept(samples: np.ndarray, entry, part: str, tag, make, use):
    """``use(make())``, with ``make()`` kept read-only as ``entry``'s ``part`` at ``tag``: another tag
    drops the part before ``make``, and a new row's bits are copied after ``use``, off its peak."""
    if "key" not in entry or (len(samples) > 1 and part != "members"):  # a throwaway, or kept draws'
        return use(make())  # counts or moments, which are in the working set: keeps nothing
    if part in entry and entry[part][0] == tag:
        return use(entry[part][1])
    entry.pop(part, None)
    made = make()
    values = use(made)
    if entry["key"] is None:
        entry["key"] = np.frombuffer(samples.tobytes(), np.uint64)  # read-only
    entry[part] = tag, made
    for array in made:
        array.flags.writeable = False
    return values


def _centered_rows(samples: np.ndarray, alpha: float) -> np.ndarray:
    """Each row sorted and centered at its ``alpha``-trimmed mean, in working slot 0."""
    rows, n = samples.shape
    work = _scratch(0, rows, n)
    np.copyto(work, samples)
    work.sort(axis=1)
    mu = np.multiply(work, _weights(n, alpha), out=_scratch(1, rows, n)).sum(axis=1)
    return np.subtract(work, mu[:, None], out=work)


def _moments(samples: np.ndarray):
    """Each row's mean, median and mean squared deviation from the mean; refused if constant or zero."""
    rows, n = samples.shape
    work = _scratch(0, rows, n)
    np.copyto(work, samples)
    xbar = samples.mean(axis=1)
    work.sort(axis=1)  # np.median's mean of the middle, bar a zero's sign (TestMedianBySort)
    med = work[:, (n - 1) // 2 : n // 2 + 1].mean(axis=1)
    constant = work[:, 0] == work[:, -1]  # exact, where the mean of equal values may round off them
    centered = np.subtract(samples, xbar[:, None], out=_scratch(1, rows, n))
    var = np.mean(np.square(centered, out=work), axis=1)
    if np.any(constant | (var <= 0.0)):
        raise DegenerateSampleError("sample variance is zero")
    return xbar, med, var


def _moment_values(spec: StatisticSpec, samples: np.ndarray, moments) -> tuple:
    """CM, GAMMA, MGG or SQRT_B1 per row off :func:`_moments`, and None."""
    xbar, med, var = moments
    gap = (xbar - med) + 0.0  # a zero gap is +0.0, whichever sign the sort left the middle zero
    s = np.sqrt(var)
    if spec.kind == "CM":
        return gap / s, None
    if spec.kind == "GAMMA":
        return 2.0 * gap, None
    work = _scratch(1, *samples.shape)
    if spec.kind == "MGG":
        deviation = np.abs(np.subtract(samples, med[:, None], out=work), out=work)
        return gap / (math.sqrt(math.pi / 2.0) * np.mean(deviation, axis=1)), None
    scale = s**3
    if np.any(scale < np.finfo(float).tiny):  # subnormal or zero: the ratio would keep few bits or none
        raise DegenerateSampleError("sample variance underflows in SQRT_B1's cubed scale")
    cubes = np.subtract(samples, xbar[:, None], out=work).ravel()  # a view: work is contiguous
    _threads.split(cubes.size, _threads.ways(cubes.size),
                   lambda lo, hi: np.power(cubes[lo:hi], 3, out=cubes[lo:hi]))
    return np.mean(work, axis=1) / scale, None


def _check_rows(spec: StatisticSpec, samples: np.ndarray, peak: float | None = None) -> None:
    """The size and magnitude rules for a finite ``(rows, n)`` sample matrix of largest magnitude ``peak``.

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
    if (max(samples.max(), -samples.min()) if peak is None else peak) > limit:
        raise ValueError(
            f"{spec.label} overflows float64 on values beyond {limit:.3g} in magnitude"
        )


def _check_threshold(spec: StatisticSpec, t, scalar: bool = False):
    """The threshold rule of every reader of a supremum family's member: ``t >= 0``, ``inf`` included,
    ``-0.0`` read as 0.0; a float comes back a float, an array an array (refused if ``scalar``)."""
    if t is None:
        return None
    if spec.family != SUPREMUM:
        raise ValueError("fixed thresholds apply to supremum-type statistics only")
    if not ((t := np.asarray(t, dtype=float)) >= 0.0).all():
        raise ValueError("threshold t must not be NaN or negative")
    if scalar and t.ndim:
        raise ValueError("a sample's member takes one threshold t, not an array")
    return t + 0.0 if t.ndim else float(t) + 0.0


def _evaluate_rows(spec: StatisticSpec, samples: np.ndarray, t: float | None = None):
    """Values of ``spec`` on every row of a ``(rows, n)`` sample matrix, refused unless finite.

    The one evaluation path behind every public entry point.  Counting
    statistics sort each row, center it by its trimmed mean
    ``(xs * trim_weights(n, alpha)).sum(axis=1)`` (a row-wise sum, so one row
    alone and the same row inside any chunk get the same bits) and run :func:`_count_members`
    (at ``t``) or, for any number of rows, :func:`_count_magnitudes` off :func:`_magnitude_counts`.
    Moment statistics center with the row mean and median (:func:`_moments`) instead.
    Returns ``(values, sup_arguments)``, the arguments None but for a supremum.
    """
    entry = getattr(_pool, "entry", None) or {}  # the kept draws', a single row's (:func:`_entry`),
    if samples is not entry.get("draws"):  # or a throwaway for another chunk
        entry = _entry(samples.view(np.uint64)[0]) if len(samples) == 1 else {}
    if "peak" not in entry:  # the finite pass and the peak run once for the bits an entry keeps
        check_sample(samples, ndim=2)
        entry["peak"] = max(samples.max(), -samples.min())
    t = _check_threshold(spec, t, scalar=True)
    _check_rows(spec, samples, entry["peak"])
    if spec.family == MOMENT:
        return _kept(samples, entry, "moments", None, lambda: _moments(samples),
                     lambda moments: _moment_values(spec, samples, moments))
    if t is not None:
        return _kept(samples, entry, "members", (spec.alpha, t),
                     lambda: _threshold_counts(_centered_rows(samples, spec.alpha), t),
                     lambda counts: _count_members(spec, samples.shape[1], t, *counts))
    return _kept(samples, entry, "counts", spec.alpha,
                 lambda: _magnitude_counts(_centered_rows(samples, spec.alpha)),
                 lambda counts: _count_magnitudes(spec, *counts))


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------


def evaluate(spec: StatisticSpec, sample) -> StatisticValue:
    """Evaluate one statistic on a data vector (the row path on one row)."""
    values, args = _evaluate_rows(spec, check_sample(sample, finite=False)[None, :])
    return StatisticValue(float(values[0]), None if args is None else float(args[0]))


def evaluate_many(spec: StatisticSpec, samples: np.ndarray, t: float | None = None) -> np.ndarray:
    """Row-wise evaluation on a 2-D array of samples.

    With ``t`` given (one float, :func:`_check_threshold`) the signed family
    member at the fixed threshold is evaluated instead of the supremum: for KS
    ``F_n(t + center) + F_n(center - t) - 1``, for the characterization
    families the subset-count difference at ``t``; one sample ``x`` is the
    row ``x[None, :]``.  Equals :func:`evaluate` row for row, bit for bit.
    """
    return _evaluate_rows(spec, check_sample(samples, ndim=2, finite=False), t)[0]


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
