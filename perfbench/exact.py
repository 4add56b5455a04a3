"""Exact reference values of the counting statistics, in Python integers.

This module is the independent reference that the ``eval-long-rows`` gate
compares ``symlab.evaluate`` and the fixed-threshold member path against.
It shares no code with ``symlab``: the trimmed-mean center, the threshold
counts and the subset counts are all recomputed here, and the counts are
Python integers, so they cannot wrap around however large ``C(n, p)`` gets.

The subset counts use a different (but equivalent) formula from the one in
``symlab.stats``: the number of ``p``-subsets whose ``r``-th order statistic
lies in ``(-t, t)`` is

    #{r-th order stat < t} - #{r-th order stat <= -t}
  = sum_{j>=r} C(b, j) C(n-b, p-j) - sum_{j>=r} C(a, j) C(n-a, p-j)

with ``a = #{y <= -t}`` and ``b = #{y < t}``.  The final division is the one
the program performs, so a correct program matches these values bit for bit.

The program keeps its subset counts in int64, and at n = 10^5 the sum over
thresholds of an integral statistic passes ``2**63``.  That is a known
defect; :func:`int64_wrapped_value` gives the value such a kernel returns
(the exact numerator reduced to 64 bits), so the gate can tell that defect
apart from any other wrong value.

The moment-based statistics (CM, GAMMA, MGG, SQRT_B1) are floating-point
formulas with no integer core; :func:`moment_value` recomputes them with
``math.fsum`` and the gate compares them within :data:`MOMENT_RTOL`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache

#: relative tolerance for the floating-point moment statistics
MOMENT_RTOL = 1e-9

COUNTING_KINDS = ("S", "W", "KS", "BH_I", "BH_K", "NA_I", "NA_K", "MO_I", "MO_K")
MOMENT_KINDS = ("CM", "GAMMA", "MGG", "SQRT_B1")


def split_label(label: str) -> tuple[str, int | None]:
    """``"NA_I_4"`` -> ``("NA_I", 4)``; ``"KS"`` -> ``("KS", None)``."""
    head, _, tail = label.rpartition("_")
    if tail.isdigit() and head in COUNTING_KINDS:
        return head, int(tail)
    return label, None


def _subset_size(kind: str, k: int | None) -> int:
    if kind.startswith("BH"):
        return 2
    if kind.startswith("NA"):
        return k
    return 2 * k


def _order_pair(kind: str, k: int | None) -> tuple[int, int]:
    if kind.startswith("BH"):
        return 1, 2
    if kind.startswith("NA"):
        return 1, k
    return k, k + 1


def centered_sorted(sample, alpha: float) -> list[float]:
    """Sorted sample minus its trimmed mean, as a list of Python floats.

    The trimmed mean averages the order statistics whose slots
    ``((i-1)/n, i/n]`` overlap ``[alpha, 1-alpha]``, each weighted by the
    overlap.  The benchmark only uses ``alpha`` values and sizes for which
    the overlaps are whole slots, so this is a plain mean of the middle.
    """
    xs = sorted(float(v) for v in sample)
    n = len(xs)
    lo, hi = alpha * n, (1.0 - alpha) * n
    if lo != int(lo) or hi != int(hi):
        raise ValueError("exact reference needs alpha * n to be a whole number")
    middle = xs[int(lo) : int(hi)]
    mu = math.fsum(middle) / len(middle)
    return [v - mu for v in xs]


class _Binomials:
    """Rows ``C(m, j)`` for ``m = 0..n`` and ``j = 0..p`` as Python ints."""

    def __init__(self, n: int, p: int):
        self.rows = [[math.comb(m, j) for m in range(n + 1)] for j in range(p + 1)]

    def __call__(self, m: int, j: int) -> int:
        return self.rows[j][m]


@lru_cache(maxsize=4)
def _binomials(n: int, p: int) -> _Binomials:
    return _Binomials(n, p)


def _at_least(binom: _Binomials, n: int, p: int, r: int, c: int) -> int:
    """Number of ``p``-subsets with at least ``r`` of their elements among ``c``."""
    return sum(binom(c, j) * binom(n - c, p - j) for j in range(r, p + 1))


def _doubled_numerator(kind, k, binom, y, n, t) -> int:
    """Doubled kernel sum at threshold ``t``, as ``symlab`` defines it."""
    if t <= 0.0:
        return 0
    p = _subset_size(kind, k)
    a = bisect_right(y, -t)
    b = bisect_left(y, t)

    def inside(r):
        return _at_least(binom, n, p, r, b) - _at_least(binom, n, p, r, a)

    r_low, r_high = _order_pair(kind, k)
    num = inside(r_low) - inside(r_high)
    return num if kind.startswith("BH") else 2 * num


def counting_value(label: str, y: list[float]) -> float:
    """Exact value of a counting statistic on a centered, sorted sample."""
    kind, k = split_label(label)
    n = len(y)
    if kind == "S":
        return sum(1 for v in y if v > 0.0) / n - 0.5
    if kind == "W":
        # pairs i < j with y_i + y_j > 0, by a two-pointer sweep
        pairs, j = 0, n
        for i in range(n):
            while j > 0 and y[j - 1] + y[i] > 0.0:
                j -= 1
            above = n - max(j, i + 1)
            pairs += above
        return pairs / math.comb(n, 2) - 0.5
    if kind == "KS":
        best = 0
        for c in [0.0] + [abs(v) for v in y]:
            at = bisect_right(y, c) + bisect_right(y, -c) - n
            after = bisect_right(y, c) + bisect_left(y, -c) - n
            best = max(best, abs(at), abs(after))
        return best / n
    p = _subset_size(kind, k)
    binom = _binomials(n, p)
    denom = 2.0 * math.comb(n, p)
    if kind.endswith("_I"):
        return integral_numerator(label, y) / (n * denom)
    best = 0
    for t in {abs(v) for v in y}:
        best = max(best, abs(_doubled_numerator(kind, k, binom, y, n, t)))
    return best / denom


def integral_numerator(label: str, y: list[float]) -> int:
    """Doubled kernel sum of an integral statistic over every threshold ``|y_i|``."""
    kind, k = split_label(label)
    n = len(y)
    binom = _binomials(n, _subset_size(kind, k))
    return sum(_doubled_numerator(kind, k, binom, y, n, abs(v)) for v in y)


def to_int64(value: int) -> int:
    """``value`` reduced to a signed 64-bit integer (two's complement)."""
    return (value + 2**63) % 2**64 - 2**63


def int64_wrapped_value(label: str, y: list[float]) -> float | None:
    """Value of an integral statistic if its subset counts are kept in int64.

    Sums and products of int64 counts wrap modulo ``2**64``, so whatever the
    order of the arithmetic, an int64 kernel ends with the exact numerator
    reduced to 64 bits.  Returns that value divided as the program divides,
    or None when the numerator fits in 64 bits and nothing wraps.
    """
    kind, k = split_label(label)
    if kind not in COUNTING_KINDS or not kind.endswith("_I"):
        return None
    n = len(y)
    total = integral_numerator(label, y)
    if to_int64(total) == total:
        return None
    return to_int64(total) / (n * 2.0 * math.comb(n, _subset_size(kind, k)))


def member_value(label: str, y: list[float], t: float) -> float:
    """Exact signed value of a supremum-family member at threshold ``t``."""
    kind, k = split_label(label)
    n = len(y)
    t = abs(float(t))
    if kind == "KS":
        return (bisect_right(y, t) + bisect_right(y, -t) - n) / n
    p = _subset_size(kind, k)
    binom = _binomials(n, p)
    return _doubled_numerator(kind, k, binom, y, n, t) / (2.0 * math.comb(n, p))


def moment_value(label: str, sample) -> float:
    """Moment-based statistic recomputed with compensated sums."""
    x = [float(v) for v in sample]
    n = len(x)
    xbar = math.fsum(x) / n
    xs = sorted(x)
    med = xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    centered = [v - xbar for v in x]
    s = math.sqrt(math.fsum(c * c for c in centered) / n)
    if label == "CM":
        return (xbar - med) / s
    if label == "GAMMA":
        return 2.0 * (xbar - med)
    if label == "MGG":
        j = math.sqrt(math.pi / 2.0) * math.fsum(abs(v - med) for v in x) / n
        return (xbar - med) / j
    if label == "SQRT_B1":
        return (math.fsum(c**3 for c in centered) / n) / s**3
    raise ValueError(f"{label} is not a moment-based statistic")


def reference_value(label: str, sample, alpha: float) -> float:
    """Exact (counting) or compensated (moment) reference value of ``label``."""
    if split_label(label)[0] in MOMENT_KINDS:
        return moment_value(label, sample)
    return counting_value(label, centered_sorted(sample, alpha))


def agrees(label: str, got: float, want: float) -> bool:
    """Bit equality for counting statistics, :data:`MOMENT_RTOL` for moments."""
    if split_label(label)[0] in MOMENT_KINDS:
        return math.isclose(got, want, rel_tol=MOMENT_RTOL, abs_tol=1e-15)
    return got == want
