"""Oracles shared by the test modules.

The kernel-projection estimator here evaluates the symmetrized kernels by
literal order-statistic comparisons on simulated draws, so it is independent
of the closed-form profiles in ``symlab.asymptotics``, and :func:`closed_forms`
writes those profiles out by hand per family, apart from the library's one
polynomial in the ranks.  The exact counting
value recounts the characterization statistics in Python ints, with a
different subset-count formula from the one in ``symlab.stats``, and the
threshold counts are one binary search per row instead of the kernel's one
sort of sign-tagged magnitudes per chunk.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import math
import sys
import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

from symlab._quad import quad_split
from symlab.distributions import SymmetricNull
from symlab.efficiency import default_grid
from symlab.location import trimmed_mean
from symlab.stats import INTEGRAL, StatisticSpec, parse_statistic


#: the array fields of an ``IndexCurve`` besides its grid
CURVE_FIELDS = (
    "index", "degenerate", "not_applicable", "sigma2", "slope", "var_argmax", "slope_argmax",
    "quad_err", "sup_err",
)


def curve_digest(curves) -> str:
    """sha256 of the bytes of every :data:`CURVE_FIELDS` array of each curve, in order."""
    h = hashlib.sha256()
    for curve in curves:
        for field in CURVE_FIELDS:
            h.update(np.asarray(getattr(curve, field)).tobytes())
    return h.hexdigest()


@functools.cache
def golden_record():
    """``golden/record.py``, the golden digests' script, loaded as a module."""
    spec = importlib.util.spec_from_file_location("record", Path(__file__).with_name("golden") / "record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    return record


class Scaled(SymmetricNull):
    """The law of ``c X`` for ``X`` under ``null``: a null rescaled by ``c``, for the scale check.

    Every method is the base's with its argument divided by ``c`` and its
    value multiplied by the power of ``c`` the quantity carries, so for ``c``
    a power of 2 each is the base's bits rescaled exactly.  It has no
    ``base``: the library tells a null from an alternative by that name.
    """

    def __init__(self, null: SymmetricNull, c: float):
        self.null, self.c = null, c
        self.name = f"{null.name}*{c}"
        self._x_max = c * null._x_max
        self._moment_cut = c * null._moment_cut

    def __eq__(self, other) -> bool:
        return type(other) is Scaled and (self.null, self.c) == (other.null, other.c)

    def __hash__(self) -> int:
        return hash((Scaled, self.null, self.c))

    def density(self, x):
        return self.null.density(np.asarray(x, dtype=float) / self.c) / self.c

    def density_derivative(self, x):
        return self.null.density_derivative(np.asarray(x, dtype=float) / self.c) / (self.c * self.c)

    def _x_density(self, x):
        return self.null._x_density(np.asarray(x, dtype=float) / self.c)

    def _x_density_derivative(self, x):
        return self.null._x_density_derivative(np.asarray(x, dtype=float) / self.c) / self.c

    def cdf(self, x):
        return self.null.cdf(np.asarray(x, dtype=float) / self.c)

    def _quantile(self, u, out=None):
        value = self.null._quantile(u, out=out)
        return value * self.c if out is None else np.multiply(value, self.c, out=out)

    def has_moment(self, k: int) -> bool:
        return self.null.has_moment(k)

    def _even_moment(self, k: int) -> float:
        return self.c**k * self.null._even_moment(k)

    def _abs_mean(self) -> float:
        return self.c * self.null._abs_mean()

    def _first_moment_primitive(self, x):
        return self.c * self.null._first_moment_primitive(np.asarray(x, dtype=float) / self.c)

    def _far_moment(self, b):
        return self.c * self.c * self.null._far_moment(b / self.c)


def quadrature_influence_curve(null, alpha: float, x) -> np.ndarray:
    """The trimmed mean's influence curve at each ``x`` by its definition, for ``0 < alpha < 1/2``.

    ``(1-2a)^{-1} Integral_a^{1-a} (t - 1{x < Q(t)}) / f(Q(t)) dt`` by adaptive
    quadrature split at ``F(x)``, ``Q`` the null quantile; the trimming keeps
    ``t`` off the endpoint singularities.  It reads the null's quantile, cdf and
    density, not the clamp ``symlab.location.influence_curve`` gives.
    """
    def one(xi: float) -> float:
        u = float(null.cdf(xi))
        return (1.0 / (1.0 - 2.0 * alpha)) * quad_split(
            lambda t: (t - (u < t)) / null.density(null.quantile(t)), alpha, 1.0 - alpha, points=[u])

    return np.array([one(xi) for xi in np.atleast_1d(np.asarray(x, dtype=float))])


def _power(x, k: int):
    """``x**k`` (integer ``k >= 0``) by repeated multiplication, as ``symlab.asymptotics`` takes it."""
    return math.prod([x] * k, start=1.0)


def closed_forms(spec: StatisticSpec) -> tuple:
    """The reference ``(Omega, w, dw/dq)`` of a BH/NA/MO kind: each family's closed forms, written
    out by hand, independent of the ranks polynomial ``symlab.asymptotics`` derives them from.

    ``Omega(v)`` is ``Integral_{1/2}^v w``, the integral forms' profile, and ``w(q)`` the supremum
    members' weight.  They take floats, numpy arrays and mpmath numbers alike; in floats ``w`` and
    ``dw/dq`` multiply in the library's order, so a correct library gives their bits.  This
    ``Omega`` cancels at the median (relative error 1.0 for NA_I_2 at ``v - 1/2 = 1e-9``): read it
    in mpmath there.  BH's and NA_K_2's ``dw/dq`` are constants.
    """
    k = spec.k
    if spec.kind.startswith("NA"):
        return (lambda v: (v**k + (1.0 - v) ** k - 2.0 * 0.5**k) / k,
                lambda q: _power(q, k - 1) - _power(1.0 - q, k - 1),
                lambda q: (k - 1) * (_power(q, k - 2) + _power(1.0 - q, k - 2)))
    if spec.kind.startswith("MO"):
        c = math.comb(2 * k - 1, k)

        def rate(q):
            p, y = q * (1.0 - q), 2.0 * q - 1.0
            return c * (2.0 * _power(p, k - 1) - (k - 1) * _power(p, k - 2) * (y * y))

        return (lambda v: c * (0.25**k - (v * (1.0 - v)) ** k) / k,
                lambda q: c * _power(q * (1.0 - q), k - 1) * (2.0 * q - 1.0), rate)
    if spec.kind.startswith("BH"):
        return lambda v: 0.5 * ((v - 0.5) ** 2), lambda q: 0.5 * (2.0 * q - 1.0), lambda q: 1.0
    raise ValueError(f"{spec.kind} is no characterization statistic")


def mp_profile(spec: StatisticSpec):
    """The integral-type profile ``phi(u)`` of S, W or a BH/NA/MO kind in mpmath arithmetic:
    ``sign(u - 1/2)/2``, ``u - 1/2``, or ``2 p/(p+1) sign(u - 1/2) Omega(max(u, 1 - u))``."""
    if spec.kind == "S":
        return lambda u: mp.sign(u - mp.mpf(1) / 2) / 2
    if spec.kind == "W":
        return lambda u: u - mp.mpf(1) / 2
    omega, p = closed_forms(spec)[0], spec.subset_size
    return lambda u: 2 * mp.mpf(p) / (p + 1) * mp.sign(u - 0.5) * omega(max(u, 1 - u))


@functools.cache
def null_free_references(name: str) -> tuple:
    """``Integral_0^1 phi(u)^2 du`` of the integral kind ``name`` and its tail ``Integral_{1-a}^1
    phi(u) du`` on each interior level ``a`` of the default grid, as 50-digit mpmath numbers.

    They integrate :func:`mp_profile`, the hand-written forms, by mpmath's own quadrature, which
    is exact to its precision on these polynomials; none reads the library's rules or its
    ranks polynomial.
    """
    phi = mp_profile(parse_statistic(name))
    with mp.workdps(50):
        square = 2 * mp.quad(lambda u: phi(u) ** 2, [mp.mpf(1) / 2, 1], method="gauss-legendre")
        return square, [mp.quad(phi, [1 - mp.mpf(a), 1], method="gauss-legendre") for a in default_grid()[1:-1]]


def ulps(got, exact) -> float:
    """The distance of the float ``got`` from the mpmath number ``exact``, in ulps of ``exact``."""
    return float(abs(mp.mpf(float(got)) - exact)) / float(np.spacing(abs(float(exact))))


def exact_counting_value(spec: StatisticSpec, sample, t: float | None = None) -> float:
    """A BH/NA/MO statistic (or its member at ``t``) from Python-int subset counts.

    The sorted sample is centered by its trimmed mean.  At each threshold
    the ``p``-subsets whose ``r``-th order statistic lies in ``(-t, t)`` are
    counted by how many of their elements fall in each of the groups
    ``y <= -t``, ``-t < y < t`` and ``y >= t``: at most ``r - 1`` in the
    first and at least ``r`` in the first two.  The value divides as the
    program does, so it matches a correct kernel bit for bit.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    y = (np.sort(x) - trimmed_mean(x, spec.alpha)).tolist()
    p = spec.subset_size
    comb = math.comb

    def inside(r: int, left: int, mid: int, right: int) -> int:
        return sum(
            comb(left, i) * comb(mid, j) * comb(right, p - i - j)
            for i in range(min(r - 1, p) + 1)
            for j in range(max(0, r - i), p - i + 1)
        )

    def doubled(s: float) -> int:
        if s <= 0.0:
            return 0
        a, b = bisect_right(y, -s), bisect_left(y, s)
        r_low, r_high = spec.order_pair
        num = inside(r_low, a, b - a, n - b) - inside(r_high, a, b - a, n - b)
        return num if spec.kind.startswith("BH") else 2 * num

    denom = 2.0 * comb(n, p)
    if t is not None:
        return doubled(abs(t)) / denom
    if spec.family == INTEGRAL:
        return sum(doubled(abs(v)) for v in y) / (n * denom)
    return max(abs(doubled(abs(v))) for v in y) / denom


def sup_argument(spec: StatisticSpec, sample) -> float:
    """The maximizing threshold a supremum statistic reports, by its stated rule.

    The thresholds are 0 and the centered sample's ``|y|``, and ties go to
    the smallest.  A characterization statistic takes its positive
    thresholds alone (0 when there is none).  KS takes the thresholds where
    ``|n (F_n(t) + F_n(-t) - 1)|`` reaches its supremum first; failing
    those, the open segments between them, each read off an exact midpoint
    and reported by its upper end, or by 0 for the one starting at 0.
    """
    x = np.asarray(sample, dtype=float)
    y = (np.sort(x) - trimmed_mean(x, spec.alpha)).tolist()
    jumps = [0.0] + sorted({abs(v) for v in y if v != 0.0})
    if spec.kind != "KS":
        values = [abs(exact_counting_value(spec, x, s)) for s in jumps[1:]]
        return jumps[1 + values.index(max(values))] if values else 0.0

    def g(t) -> int:
        return abs(sum(v <= t for v in y) + sum(v <= -t for v in y) - len(y))

    at = [g(s) for s in jumps]
    between = [g((Fraction(lo) + Fraction(hi)) / 2) for lo, hi in zip(jumps, jumps[1:])]
    best = max(at + between)
    if best in at:
        return jumps[at.index(best)]
    k = between.index(best)
    return jumps[k + 1] if k else 0.0


def searchsorted_counts(ys: np.ndarray):
    """``(z, a, b)`` of ``stats._magnitude_counts`` by one ``np.searchsorted`` per sorted row.

    ``z`` is each row's ``|y|`` in ascending order, ``a = #{y <= -z}`` and
    ``b = #{y < z}``; at ``z = 0`` both of the kernel's counts are ``#{y < 0}``.
    """
    z = np.sort(np.abs(ys), axis=1)
    a = np.empty(ys.shape, dtype=np.int64)
    b = np.empty(ys.shape, dtype=np.int64)
    for y, row_z, row_a, row_b in zip(ys, z, a, b):
        row_a[:] = np.where(row_z > 0.0, y.searchsorted(-row_z, "right"), y.searchsorted(0.0))
        row_b[:] = y.searchsorted(row_z, "left")
    return z, a, b


def run_in_threads(target, count: int) -> list:
    """``[target(i) for i in range(count)]``, each call in its own thread under a 1 us switch interval.

    The threads start their calls together at a barrier and are joined within a minute each;
    an exception a call raised is raised here.
    """
    results, errors = [None] * count, []
    start = threading.Barrier(count, timeout=60)

    def run(i):
        try:
            start.wait()
            results[i] = target(i)
        except Exception as error:  # raised again in the calling thread
            errors.append(error)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


def mc_projection(
    spec: StatisticSpec,
    null,
    x_grid: np.ndarray,
    rng: np.random.Generator,
    n_draws: int = 1_000_000,
    t: float | None = None,
):
    """Monte Carlo estimate of ``E[kernel(x, X_2, ..., X_m)]`` with its SE.

    Returns ``(estimates, standard_errors)`` over ``x_grid``.  For
    supremum-type statistics the fixed-threshold member kernel is used.
    """
    x_grid = np.asarray(x_grid, dtype=float)

    if spec.kind == "W":
        draws = null.sample(n_draws, 0, rng=rng)
        vals = (x_grid[:, None] + draws[None, :] > 0.0).astype(float) - 0.5
        return vals.mean(axis=1), vals.std(axis=1) / np.sqrt(n_draws)

    p = spec.subset_size
    r_lo, r_hi = spec.order_pair
    half = spec.kind.startswith("BH")

    def kernel_terms(subset: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Kernel value per draw row; thresholds broadcast against rows."""
        s = np.sort(subset, axis=-1)
        lo = np.abs(s[..., r_lo - 1])
        hi = np.abs(s[..., r_hi - 1])
        if half:
            e1 = np.abs(subset[..., 0])
            e2 = np.abs(subset[..., 1])
            return (
                0.5 * (e1 < thresholds)
                + 0.5 * (e2 < thresholds)
                - (hi < thresholds).astype(float)
            )
        return (lo < thresholds).astype(float) - (hi < thresholds).astype(float)

    if t is not None:
        # supremum-family member: the kernel is symmetric in its p arguments
        draws = null.sample(n_draws * (p - 1), 0, rng=rng).reshape(n_draws, p - 1)
        est = np.empty(x_grid.size)
        se = np.empty(x_grid.size)
        for i, x in enumerate(x_grid):
            subset = np.column_stack([np.full(n_draws, x), draws])
            vals = kernel_terms(subset, np.asarray(t))
            est[i] = vals.mean()
            se[i] = vals.std() / np.sqrt(n_draws)
        return est, se

    # integral type: order p + 1, symmetrized over which argument is the
    # outer one; the p inner positions are exchangeable
    m = p + 1
    draws = null.sample(n_draws * p, 0, rng=rng).reshape(n_draws, p)
    inner_cols = draws[:, : p - 1]
    outer_col = draws[:, p - 1]
    est = np.empty(x_grid.size)
    se = np.empty(x_grid.size)
    for i, x in enumerate(x_grid):
        term_outer = kernel_terms(draws, np.abs(x))
        subset = np.column_stack([np.full(n_draws, x), inner_cols])
        term_inner = kernel_terms(subset, np.abs(outer_col))
        vals = (term_outer + p * term_inner) / m
        est[i] = vals.mean()
        se[i] = vals.std() / np.sqrt(n_draws)
    return est, se
