"""Limiting variances and local slopes of the centered test statistics.

For a statistic built on a (family of) U-statistic kernel(s) of order ``m``
with first projection ``phi``, centering by the trimmed mean adds two
correction terms to the usual ``m^2 Integral phi^2 f``:

``sigma^2 = m^2 [ Int phi^2 f
              + 2/(1-2a)^2 (Int phi f')^2 (Int_0^Q x^2 f + a Q^2)
              + 4/(1-2a)   (Int phi f')   (Int_0^Q phi x f + Q Int_Q^inf phi f) ]``

with ``Q`` the ``(1-a)`` null quantile, specializing at ``a = 0`` (mean) and
``a = 1/2`` (median) to the expressions with ``Int_0^inf x^2 f`` and
``1/(4 f(0)^2)`` respectively.  The slope of the limit in probability along a
local alternative with score ``h`` is
``m Integral phi(x) (h(x) + mu' f'(x)) dx``, where ``mu'`` is the estimand
derivative from :func:`symlab.location.trimmed_mean_derivative`; for
supremum-type statistics both the variance and the slope are functions of the
threshold ``t`` and the supremum over ``t`` is taken.

:func:`variance_curve` and :func:`slope_curve` are the only places a
variance or a slope is assembled, and the public readers of both: a value
at one level is index 0 of the curve on ``[a]``.  A curve computes a grid
of trimming levels ``a`` in one pass, each level from its own ``a`` alone,
so it gives the same bits on any grid.  For supremum-type statistics ``a``
enters only through ``Q``, ``min(a, 1-q)`` and ``mu'(a)``: a test's levels
are the rows of an ``(a, t)`` array.  A member is written once
(:func:`_members`), as ``m^p w(q)^p`` times a factor ``F`` that no test
changes: ``p = 2`` and :func:`_free_variance`'s ``B`` for a variance, ``p =
1`` and :func:`_free_slope`'s ``P`` for a slope, up to its sign.  Each search
of :func:`_sup_over_t` is ``(model, free, power, groups, kinks)``: it scans
``|w|^p |F|`` on a grid of ``t`` scaled by the 0.999 null quantile, ``F``
once for all tests, then takes safeguarded Newton steps on the closed-form
``t``-derivatives of :func:`_members`, one point per row and step, for the
rows of every test and curve it is given (:func:`_report_curves`); each
row's resolution is carried as ``sup_err``.
For integral-type ones ``Int_0^Q phi x f`` of every test is one sum over
the fixed panels of :func:`symlab._quad.graded` (:func:`_t3`), as are ``Int_0^Q
x^2 f`` of the trimmed-mean term (the null's partial second moment), ``mu'``
and, in ``t = 1 - u``, the two integrals no model changes (:func:`_null_free`):
``Int phi^2`` and the tail ``Int_Q^inf phi f = Int_{1-a}^1 phi(u) du`` up to the
level ``a`` itself.  A moment statistic's limits do not depend on ``a`` (:func:`_moment_limits`).

The whole-line integrals read the same panels on ``[0, 1]``, folded onto
``[0, inf)`` (:func:`symlab._quad.half_line`), and the curves carry the largest
error estimate behind each level, the tail's times ``Q``.  Each model method runs once
per point set.  Per process,
:func:`functools.cache` keeps what depends only on the model and the rule:
the model at the half-line nodes and on the scan grid (:func:`_scan`, where
an alternative shares its null's), the
alpha-free integrals ``Int phi f'``, ``Int_0^inf phi x f``
and ``Int phi h`` per ``(kind, k)`` statistic and model with their
estimates, and ``mu'`` on one level; models compare by value, so
every lookup of one model shares an entry.  What
depends on the grid (:func:`_levels`, the null on :func:`_t3`'s nodes, ``mu'``)
lives for one :func:`_curves` call, for all its tests, parts and steps.

Projections are analytic.  Every characterization statistic compares the
``r``-th and ``(p+1-r)``-th order statistics of a ``p``-subsample in absolute
value, and conditioning one coordinate at ``x`` leaves binomial survival
probabilities in ``u = F(x)``.  A supremum-family member factors as ``w(q) *
chi(u; q)`` with ``chi(u; q) = 1{u >= q} - 1{u < 1-q}`` and ``q = F(t)``, one
polynomial ``w(q) = c (q(1-q))^(r-1) (q^d - (1-q)^d)`` for every test of ranks
``(p, r)`` (:func:`_polynomial`), and the integral forms have the odd profile

    ``B(u) = 2 sign(u - 1/2) Omega(max(u, 1-u))``

with ``Omega`` the integral of ``w`` from 1/2, which does not cancel at the
median (:func:`_omega`).  The tests certify these and their exact coefficients
(:func:`_shape`) against Monte Carlo and the per-family forms written by hand.

:func:`_report_curves` is the single place the local index, slope squared
over variance, is assembled from the two curves, including its degenerate
points (S and KS at ``a = 1/2``); every index function of
:mod:`symlab.efficiency` reads its values from it through
:func:`symlab.efficiency.index_curves`.
:func:`applicability` is the single rule for which (test, null) pairs the
theory covers: moment-based tests need a finite second moment (SQRT_B1 a
sixth), and every other test needs mean centering (``a = 0``) to have a
finite second moment under the null.  Every variance, slope and index here
applies it, as does ``symlab test``.  Every one of them also applies
:func:`symlab.location.check_level` once to its trimming levels, which
refuses the positive levels so small that ``1 - a`` rounds to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from ._quad import graded, half_line
from .distributions import AlternativeFamily, SymmetricNull, _as_float
from .errors import NotApplicableError
from .location import _by_level, _derivative_curve, _trimmed, _uncentered, check_centering, check_level
from .stats import _KIND_TABLE, INTEGRAL, MOMENT, SUPREMUM, StatisticSpec

__all__ = [
    "Projection",
    "projection",
    "variance_curve",
    "slope_curve",
    "variance_function",
    "slope_function",
    "applicability",
    "IndexCurve",
]


@cache
def _mu_prime(alt: AlternativeFamily, alphas: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``mu'`` on each of the levels ``alphas`` and its quadrature error estimate."""
    curve = _derivative_curve(alt, alphas)
    for array in curve:
        array.flags.writeable = False  # every caller shares the cached arrays
    return curve


def _kernel(spec: StatisticSpec) -> StatisticSpec:
    """The alpha-free ``(kind, k)`` statistic that keys the cached integrals."""
    return StatisticSpec(spec.kind, spec.k)


# ---------------------------------------------------------------------------
# projection profiles
# ---------------------------------------------------------------------------


@cache
def _polynomial(kind: str, k: int | None) -> tuple:
    """``(r, d, c, below, terms)`` of a BH/NA/MO kind of ranks ``(p, r)``: its member weight ``w(q) = c
    (q(1-q))^(r-1) (q^d - (1-q)^d)``, ``d = p + 1 - 2r`` and ``c = C(p-1, r-1)`` halved for BH, is the
    sum of ``a y^j / below`` over its ``(j, a)`` terms, ``y = q - 1/2``, in integers (no ``Fraction``)."""
    _, _, ranks, halved = _KIND_TABLE[kind]
    p, r = ranks(k)
    d, c, terms = p + 1 - 2 * r, math.comb(p - 1, r - 1), {}
    for i in range(r):  # (1/4 - y^2)^(r-1) times (1/2 + y)^d - (1/2 - y)^d, over 2^(2r - 3 + d)
        for j in range(1, d + 1, 2):
            a = c * math.comb(r - 1, i) * (-1) ** i * math.comb(d, j) * 2 ** (2 * i + j)
            terms[2 * i + j] = terms.get(2 * i + j, 0) + a
    return r, d, c / (2 if halved else 1), 2 ** (2 * r - 3 + d + halved), tuple(sorted(terms.items()))


def _omega(spec: StatisticSpec):
    """``Omega(v) = Integral_{1/2}^v w(q) dq`` on ``[1/2, 1]``: ``z = (v - 1/2)^2`` times Horner's rule
    over positive exact coefficients, so no cancellation at the median; for ``r = 1`` (BH, NA) in ``z``
    (:func:`_polynomial`), else (``d = 1``, MO) ``c (1/4^r - P^r) / r`` in ``P = v (1 - v)``."""
    r, _, c, below, terms = _polynomial(spec.kind, spec.k)
    first, *rest = ([a / (below * (j + 1)) for j, a in reversed(terms)] if r == 1  # highest power first
                    else [c / (r * 4 ** (r - 1 - i)) for i in reversed(range(r))])

    def omega(v):
        x = v - 0.5
        z = x * x
        s, total = z if r == 1 else v * (1.0 - v), first
        for a in rest:
            total = total * s + a
        return total * z

    return omega


def _power(x, k: int):
    """``x**k`` (integer ``k >= 0``) by repeated multiplication: floats and arrays agree."""
    return math.prod([x] * k, start=1.0)


def _weight(spec: StatisticSpec):
    """Threshold weight ``w(q)`` of the supremum-family projection (:func:`_polynomial`)."""
    if spec.kind == "KS":
        return lambda q: np.ones_like(np.asarray(q, dtype=float))
    r, d, c, *_ = _polynomial(spec.kind, spec.k)
    return lambda q: (c if r == 1 else c * _power(q * (1.0 - q), r - 1)) * (_power(q, d) - _power(1.0 - q, d))


def _weight_derivative(spec: StatisticSpec):
    """``dw/dq`` of :func:`_weight` by the product rule, ``c (P^(r-1) d (q^(d-1) + (1-q)^(d-1)) - (r-1)
    P^(r-2) (2q - 1) (q^d - (1-q)^d))`` with ``P = q(1-q)``, whose second term is 0 for ``r = 1``."""
    if spec.kind == "KS":
        return lambda q: np.zeros_like(np.asarray(q, dtype=float))
    r, d, c, *_ = _polynomial(spec.kind, spec.k)

    def rate(q):
        odd = d * (_power(q, d - 1) + _power(1.0 - q, d - 1))  # a float for d = 1
        if r == 1:
            return c * odd
        p, y = q * (1.0 - q), 2.0 * q - 1.0
        return c * (_power(p, r - 1) * odd - (r - 1) * _power(p, r - 2) * (y * (_power(q, d) - _power(1.0 - q, d))))

    return rate


def _shape(spec: StatisticSpec) -> tuple:
    """Exact shape of the first projection: two tests of one shape have proportional projections.
    A BH/NA/MO kind's is its family and the terms of :func:`_polynomial` (supremum) or of their
    integral ``Omega`` in ``x = v - 1/2`` (integral), as ``Fraction``s divided by the first."""
    if _KIND_TABLE[spec.kind].ranks is None:  # CM, GAMMA and MGG are (xbar - med) / const
        return ("mean-median",) if spec.kind in ("CM", "GAMMA", "MGG") else (spec.kind,)
    terms = [(j, Fraction(a)) for j, a in _polynomial(spec.kind, spec.k)[4]]  # over one denominator
    if spec.family == INTEGRAL:  # Omega(1/2 + x) is the integral of w over (0, x)
        terms = [(j + 1, a / (j + 1)) for j, a in terms]
    return (spec.family, *((j, a / terms[0][1]) for j, a in terms))


def _chi(u, q):
    u = np.asarray(u, dtype=float)
    return np.where(u >= q, 1.0, 0.0) - np.where(u < 1.0 - q, 1.0, 0.0)


def _profile(spec: StatisticSpec):
    """Integral-type projection as a function of ``u = F(x)``."""
    if spec.kind == "S":
        return lambda u: np.where(u > 0.5, 0.5, np.where(u < 0.5, -0.5, 0.0))
    if spec.kind == "W":
        return lambda u: np.asarray(u, dtype=float) - 0.5
    omega, scale = _omega(spec), spec.subset_size / (spec.subset_size + 1.0)

    def phi_u(u):
        u = np.asarray(u, dtype=float)
        return scale * 2.0 * np.sign(u - 0.5) * omega(np.maximum(u, 1.0 - u))

    return phi_u


_SUP_SIGN = {"KS": -1.0}  # KS member is I{x<=t} + I{x<=-t} - 1 = -chi


@dataclass(frozen=True)
class Projection:
    """First projection of a statistic's kernel under a symmetric null."""

    spec: StatisticSpec
    null: SymmetricNull

    def phi(self, x, t: float | None = None):
        """Evaluate the projection at ``x`` (member threshold ``t`` if sup-type)."""
        u = self.null.cdf(np.asarray(x, dtype=float))
        if self.spec.family == SUPREMUM:
            if t is None:
                raise ValueError("supremum-type projections need a threshold t")
            q = float(self.null.cdf(abs(t)))
            sign = _SUP_SIGN.get(self.spec.kind, 1.0)
            return sign * _weight(self.spec)(q) * _chi(u, q)
        if t is not None:
            raise ValueError("integral-type projections take no threshold")
        return _profile(self.spec)(u)


def projection(spec: StatisticSpec, null: SymmetricNull) -> Projection:
    """Projection object for ``spec`` under ``null`` (kernels are centered)."""
    if spec.family == MOMENT:
        raise ValueError(f"{spec.kind} is not a U-statistic; it has no kernel projection")
    return Projection(spec, null)


# ---------------------------------------------------------------------------
# variance (integral type and supremum members)
# ---------------------------------------------------------------------------


@cache
def _int_phi_fprime(spec: StatisticSpec, null: SymmetricNull) -> tuple[float, float]:
    phi_u = _profile(spec)
    return half_line(lambda v: 2.0 * phi_u(v.cdf) * v.density_derivative, null)  # even


@cache
def _int_phi_x(spec: StatisticSpec, null: SymmetricNull) -> tuple[float, float]:
    """``Integral_0^inf phi(x) x f(x) dx``, the untrimmed case of :func:`_t3`."""
    phi_u = _profile(spec)
    return half_line(lambda v: phi_u(v.cdf) * v.x * v.density, null)


def _t3(specs, null: SymmetricNull, q):
    """``Integral_0^q phi(x) x f(x) dx`` of each of ``specs`` on each ``q``, and its error estimate,
    by one :func:`symlab._quad.graded` call that evaluates the null once for all ``specs``."""

    def integrands(x):
        u, xf = null.cdf(x), x * null.density(x)
        return np.stack([_profile(spec)(u) * xf for spec in specs])

    return list(zip(*graded(integrands, q)))


def applicability(spec: StatisticSpec, null: SymmetricNull) -> None:
    """The one test-level rule for when the theory covers ``spec`` under ``null``.

    Moment-based tests need a finite second moment, SQRT_B1 a finite sixth;
    every other test needs its center to have a limit
    (:func:`symlab.location.check_centering`: mean centering needs a finite
    second moment).  Raises :class:`~symlab.errors.NotApplicableError`
    otherwise; the library's variances, slopes and indices and ``symlab
    test`` all apply this rule.
    """
    if spec.family != MOMENT:
        check_centering(null, spec.alpha)
    elif _refused(spec, null, spec.alpha):
        name = "sixth" if spec.kind == "SQRT_B1" else "second"
        raise NotApplicableError(
            f"{spec.kind} requires a finite {name} moment; {null.name} has none"
        )


def _refused(spec: StatisticSpec, null: SymmetricNull, alphas) -> np.ndarray:
    """Mask of the levels :func:`applicability` refuses (``spec.alpha`` ignored)."""
    if spec.family == MOMENT:
        return np.full(np.shape(alphas), not null.has_moment(6 if spec.kind == "SQRT_B1" else 2))
    return _uncentered(null, alphas)


def _levels(null: SymmetricNull, alphas, trimmed=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``(a, c(a), factor of J, Q, Int_0^Q x f)`` of a variance on the checked levels
    ``alphas``, and the error estimate of ``Int_0^Q x^2 f`` on each; ``trimmed`` is
    :func:`symlab.location._trimmed` on ``alphas`` if the caller has it.

    ``Q`` is the ``(1-a)`` quantile; between the boundaries ``c = 2 (Int_0^Q
    x^2 f + a Q^2) / (1-2a)^2`` and the factor is ``4/(1-2a)``, at ``a = 0``
    ``sigma^2`` and 4, at ``a = 1/2`` ``1/(4 f(0)^2)`` and ``2/f(0)``.  A boundary
    level carries ``Q = 0`` (:func:`symlab.location._trimmed`) and error 0.
    """
    a, q, scale = trimmed or _trimmed(null, alphas)
    moment, err = null._second_moment(q)
    f0 = float(null.density(0.0))
    c2, factor, err = _by_level(alphas, (2.0 * (moment + a * q * q) / (scale * scale), 4.0 / scale, err),
                                lambda: (null.moment(2), 4.0, 0.0),
                                lambda: (1.0 / (4.0 * f0 * f0), 2.0 / f0, 0.0))
    return np.stack([alphas, c2, factor, q, null.partial_first_moment(0.0, q)], axis=1), err


def _null_free(specs, alphas):
    """``(tail, error, Int phi^2, error)`` of each of ``specs``, the integrals no model changes, by one
    :func:`symlab._quad.graded` call each for all ``specs`` in ``t = 1 - u``: the tail ``Int_{1-a}^1
    phi du = Int_0^a phi(1 - t) dt`` on each level ``a`` of ``alphas`` and then at ``a = 1/2``, and
    ``Int_0^1 phi^2 du = 2 Int_0^{1/2} phi(1 - t)^2 dt``, each with its error estimate."""

    def profiles(t):
        return np.stack([_profile(spec)(1.0 - t) for spec in specs])

    squares = graded(lambda t: profiles(t) ** 2, np.array([0.5]))
    return list(zip(*graded(profiles, np.append(alphas, 0.5)), *(2.0 * part[:, 0] for part in squares)))


def _integral_variance(specs, null: SymmetricNull, levels):
    """Variance ``m^2 [Int phi^2 + c(a) A^2 + A J(a)]`` of each of ``specs`` on the :func:`_levels`
    rows, ``A = Int phi f'``, and its largest error estimate."""
    a, c2, factor, q, _ = levels.T
    for spec, (inner, inner_err), (tail, tail_err, square, square_err) in zip(
            specs, _t3(specs, null, q), _null_free(specs, a)):
        kernel = _kernel(spec)
        fprime, fprime_err = _int_phi_fprime(kernel, null)
        # Int_Q^inf phi f is the tail Int_{1-a}^1 phi(u) du; at a = 1/2 it is Int_{1/2}^1 phi(u) du
        cross, err = _by_level(a, (inner + q * tail[:-1], np.maximum(inner_err, q * tail_err[:-1])),
                               lambda: _int_phi_x(kernel, null), lambda: (tail[-1], tail_err[-1]))
        m = spec.kernel_order
        value = m * m * (square + c2 * (fprime * fprime) + fprime * (factor * cross))
        yield value, np.maximum(err, max(fprime_err, square_err))


@cache
def _blocks(tests: tuple) -> tuple:
    """Kernel order (a column), row slice and ``(w, dw/dq)`` of ``(spec, rows)`` blocks; once per
    block layout in a process."""
    rows = [n for _, n in tests]
    m = np.repeat([s.kernel_order for s, _ in tests], rows).astype(float)[:, None]
    m.flags.writeable = False  # every search shares it
    ends = np.cumsum(rows)
    return m, tuple(slice(end - n, end) for n, end in zip(rows, ends)), tuple(
        (_weight(s), _weight_derivative(s)) for s, _ in tests)


def _by_test(groups, q):
    """Kernel order (a column), weight ``w(q)`` and ``dw/dq`` of the rows of ``groups``, ``(spec,
    levels)`` blocks, one per test; ``q`` has one row per row, or any shape for one."""
    m, cuts, weights = _blocks(tuple((spec, len(lv)) for spec, lv in groups))

    def per_test(k):
        if len(cuts) == 1:
            return weights[0][k](q)
        out = np.empty(q.shape)
        for cut, pair in zip(cuts, weights):
            out[cut] = pair[k](q[cut])  # dw/dq is a float where d = r = 1 (BH, NA_K_2, MO_K_1)
        return out

    return m, per_test(0), per_test(1)


def _thresholds(model, t):
    """``|t|`` and the null's ``F``, ``f`` and ``Int_0^t x f`` there, and the ``t``-derivatives
    ``f'`` and ``t f`` of the last two; an alternative family's score pairing ``-(H(t) + H(-t))``
    and its derivative ``-(h(t) - h(-t))`` replace ``Int_0^t x f`` and ``t f``."""
    null = getattr(model, "base", model)
    t = np.abs(np.asarray(t, dtype=float))
    f = null.density(t)
    if model is null:
        return t, null.cdf(t), f, null.partial_first_moment(0.0, t), null.density_derivative(t), t * f
    return _scored(model, t, null.cdf(t), f, null.density_derivative(t))


def _scored(alt: AlternativeFamily, t, q, f, f_t):
    """:func:`_thresholds` of ``alt`` from its null's columns at ``|t|``."""
    return t, q, f, -(alt.score_cumulative(t) + alt.score_cumulative(-t)), f_t, -alt.odd_score(t)


def _cross(null: SymmetricNull, levels, v, derivative=False):
    """``(Y,)``, the member variance's ``J(a) = factor w(q) Y``, on the :func:`_levels` rows at the
    :func:`_thresholds` ``v``, and with ``derivative`` ``(Y, dY/dt)``: ``Int_t^Q x f`` plus ``Q
    min(a, 1 - q)`` between the boundaries, ``tau/2 - Int_0^t x f`` at ``a = 0`` and ``1 - q`` at
    ``a = 1/2`` (:func:`symlab.location._by_level`)."""
    t, q, f, below, _, below_t = v
    a, _, _, Q, Q_moment = levels.T[..., None]
    inside = t < Q  # the partial moment over (t, Q) is empty (exactly 0.0) from Q on
    trimmed = (np.where(inside, Q_moment - below, 0.0) + Q * np.minimum(a, 1.0 - q),)
    if derivative:  # past Q, min(a, 1 - q) is 1 - q: Y' is -t f below Q and -Q f from it
        trimmed += (-np.where(inside, below_t, Q * f),)
    return _by_level(a, trimmed, lambda: (null.abs_mean() / 2.0 - below, -below_t), lambda: (1.0 - q, -f))


def _free_variance(null: SymmetricNull, levels, v, derivative=False):
    """``(B,)``, and with ``derivative`` ``(B, dB/dt)``: ``B = 2 (1-q) + 4 c(a) f^2 - 2 factor f Y``
    on the :func:`_levels` rows at the :func:`_thresholds` ``v`` (:func:`_cross`'s ``Y``).  A
    member variance is ``m^2 w(q)^2 B``, and no test changes ``B``."""
    _, q, f, _, f_t, _ = v
    _, c2, factor, _, _ = levels.T[..., None]
    y, *y_t = _cross(null, levels, v, derivative)
    rate = [2.0 * (4.0 * c2 * (f * f_t) - f - factor * (f_t * y + f * y_t[0]))] if derivative else []
    b = np.multiply(y, f * (-2.0 * factor), out=y)
    b += 4.0 * c2 * (f * f)
    b += 2.0 * (1.0 - q)
    return (b, *rate)


def _members(model, groups, power, free, v):
    """Values ``m^p w(q)^p F`` and their ``t``-derivatives ``m^p w^(p-1) (p w' f F + w F')``
    (``q' = f``) of the members of the rows of ``groups``, ``(spec, levels)`` blocks, at the
    :func:`_thresholds` ``v`` of ``model``, where ``p`` is ``power`` and ``(F, F') = free(model,
    levels, v, True)`` is the factor that no test changes: a variance's is
    :func:`_free_variance` with ``p = 2``, a slope's :func:`_free_slope` with ``p = 1`` (unsigned,
    :data:`_SUP_SIGN`)."""
    m, w, w_q = _by_test(groups, v[1])
    value, rate = free(model, np.concatenate([lv for _, lv in groups]), v, True)
    scale = _power(m, power)
    return (scale * _power(w, power) * value,
            scale * _power(w, power - 1) * (power * w_q * v[2] * value + w * rate))


def variance_function(spec: StatisticSpec, null: SymmetricNull, t):
    """Member variance ``sigma^2(alpha; t)`` of a supremum-type family.

    With ``q = F(t)`` the member projection is ``w(q) chi(.; q)`` whose
    squared mass is ``2(1-q)``, whose density-derivative pairing is
    ``-2 f(t)``, and whose partial moments are partial moments of the null;
    only the trimmed mean's ``Int_0^Q x^2 f`` is integrated (:func:`_levels`).  ``t`` may be an array (elementwise, bit for bit
    the values of scalar calls); a float in gives a float out.  A NaN ``t``
    is refused, and ``t`` beyond the null's finite arithmetic (``inf``
    included) gives the ``t -> inf`` limit 0.0.
    """
    if spec.family != SUPREMUM:
        raise ValueError("variance_function applies to supremum-type statistics")
    applicability(spec, null)
    levels = _levels(null, check_level([spec.alpha]))[0]
    return _at_thresholds(lambda v: _members(null, [(spec, levels)], 2, _free_variance, v)[0], null, t)


def _at_thresholds(member, model, t):
    """One-row ``member`` of ``model``'s :func:`_thresholds` at ``|t|``, in the shape of ``t``;
    refused if NaN, 0.0 past the null's ``_x_max``."""
    null = getattr(model, "base", model)
    t = np.abs(np.asarray(t, dtype=float))
    if np.isnan(t).any():
        raise ValueError("threshold t must not be NaN")
    far = t > null._x_max
    values = member(_thresholds(model, np.where(far, 0.0, t)))
    return _as_float(np.where(far, 0.0, np.reshape(values, t.shape)))


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------


@cache
def _int_phi_score(spec: StatisticSpec, alt: AlternativeFamily) -> tuple[float, float]:
    phi_u = _profile(spec)
    return half_line(lambda v: phi_u(v.cdf) * v.odd_score, alt)  # phi odd


def _integral_slope(specs, alt: AlternativeFamily, mu_p):
    """Slope of each of ``specs`` on the levels of estimand derivatives ``mu_p``, and the largest
    error estimate of its own integrals (``mu_p``'s is the caller's)."""
    for spec in specs:
        kernel = _kernel(spec)
        score, score_err = _int_phi_score(kernel, alt)
        fprime, fprime_err = _int_phi_fprime(kernel, alt.base)
        yield spec.kernel_order * (score + mu_p * fprime), max(score_err, fprime_err)


def _free_slope(alt: AlternativeFamily, mu_p, v, derivative=False):
    """``(P,)``, and with ``derivative`` ``(P, dP/dt)``: the pairing ``P = -(H(t) + H(-t)) - 2
    mu'(a) f`` of ``chi(.; q)`` with ``h + mu' f'`` on the rows of estimand derivatives ``mu_p``
    at the :func:`_thresholds` ``v`` of ``alt``.  A member slope is ``m w(q) P`` up to its sign
    (:data:`_SUP_SIGN`), and no test changes ``P``."""
    _, _, f, chi_score, f_t, chi_score_t = v
    mu_p = mu_p[:, None]
    value = chi_score + mu_p * (-2.0 * f)
    return (value, chi_score_t + mu_p * (-2.0 * f_t)) if derivative else (value,)


def slope_function(spec: StatisticSpec, alt: AlternativeFamily, t):
    """Signed member slope ``b'(0, alpha; t)`` of a supremum family (``t`` as for the variance)."""
    if spec.family != SUPREMUM:
        raise ValueError("slope_function applies to supremum-type statistics")
    applicability(spec, alt.base)
    mu_p = _mu_prime(alt, (check_level(spec.alpha),))[0]
    sign = _SUP_SIGN.get(spec.kind, 1.0)
    return _at_thresholds(lambda v: sign * _members(alt, [(spec, mu_p)], 1, _free_slope, v)[0], alt, t)


# ---------------------------------------------------------------------------
# supremum search
# ---------------------------------------------------------------------------

#: a row's search ends once its next step is at most this fraction of the 0.999 quantile
_RESOLUTION = 1e-9
#: or after this many steps; the midpoints alone close any bracket of the scan below it in 26
_MAX_STEPS = 40
#: the scan multiplies out the values of as many tests at once as fit in 2^14 (128 KiB, glibc's
#: default mmap threshold: larger temporaries fault their pages in afresh on every call)
_SCAN_SIZE = 2**14


@cache
def _scan(model) -> tuple:
    """:func:`_thresholds` of ``model`` at ``t = 0`` and 512 log-spaced points from 1e-5 to 1 times
    the 0.999 null quantile, the scan of :func:`_sup_over_t`: a fixed table, so that a null rescaled
    by a power of 2 scans the same points rescaled.  Once per model in a process, and an
    alternative's shares its null's."""
    null = getattr(model, "base", model)
    if model is null:
        table = _thresholds(null, null.quantile(0.999) * np.append(0.0, np.geomspace(1e-5, 1.0, 512)))
    else:  # the null's own columns are read from its scan
        t, q, f, _, f_t, _ = _scan(null)
        table = _scored(model, t, q, f, f_t)
    for array in table:
        array.flags.writeable = False  # every search shares the cached arrays
    return table


def _scanned(model, free, power, groups):
    """``|w(q)|^p |F|``, the members of the tests of ``groups`` (which share their levels) over
    ``m^p`` (:func:`_members`), on the :func:`_scan` grid before, at and after each row's best
    point, and its index, for as many tests at once as fit in :data:`_SCAN_SIZE` values."""
    v = _scan(model)
    weights = _power(np.abs([_weight(spec)(v[1]) for spec, _ in groups]), power)
    factor = np.abs(free(model, groups[0][1], v)[0])
    per, n = max(1, _SCAN_SIZE // factor.size), factor.shape[-1]
    for k in range(0, len(weights), per):
        vals = (weights[k:k + per, None, :] * factor).reshape(-1, n)
        i = np.argmax(vals, axis=1)
        rows = np.arange(i.size)
        yield vals[rows, np.maximum(i - 1, 0)], vals[rows, i], vals[rows, np.minimum(i + 1, n - 1)], i


def _sup_over_t(searches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row maxima, argmaxes and resolutions of the absolute values of functions of the threshold
    ``t >= 0``, smooth but at one kink per row (a supremum-type slope is the supremum of the
    absolute member slope; a member variance is not negative).

    ``searches`` lists ``(model, free, power, groups, kinks)``: the function of a row of
    ``groups``, ``(spec, levels)`` blocks that share their levels, is the member ``m^p w(q)^p
    F`` of :func:`_members`, ``p`` being ``power`` and ``F`` the factor that ``free(model,
    levels, v)`` gives at the :func:`_thresholds` ``v`` of ``model``, and ``kinks`` holds each
    row's kink (NaN for none), where the second derivative may jump.

    The scan evaluates ``|w(q)|^p |F|`` on the :func:`_scan` grid, ``q999`` times a fixed table,
    ``F`` once for all tests of a search, and a row's bracket is the scan points beside its best
    one.  Each step then makes one call of :func:`_members` per search with one column of points
    (a few in the first step), so no row depends on another.
    The first step evaluates the best scan point, the kink if the bracket holds it (the
    function is smooth on either side of it), and the vertex of the parabola through the three
    scan points with a point ``2^-10`` of it on either side.  Every derivative's sign cuts the
    bracket.  The next point is the root of the parabola through the last three derivatives, a
    safeguarded Newton step, else the secant's root through the last two, else the bracket's
    midpoint, whichever first stays in the bracket.  A row ends once its next step is at most
    :data:`_RESOLUTION` of ``q999``.  Its resolution is ``|derivative x next step|`` at its last
    point, twice the rise a quadratic model leaves past it, and 0 where the bracket closed (a
    zero derivative, or the maximum at an end of the scan).  Only a strictly larger value
    replaces the best: the scan point wins ties, and an argmax of exactly 0.0 stays exact.
    Nothing here adds terms of different scales, so a null rescaled by a power of 2 gives the
    same values and resolutions and the argmaxes rescaled.
    """
    ts = _scan(searches[0][0])[0]
    g_lo, g_at, g_hi, i = map(np.concatenate, zip(*[
        found for search in searches for found in _scanned(*search[:4])]))
    at, lo, hi = ts[i], ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, ts.size - 1)]
    kinks = np.concatenate([k for *_, k in searches])
    with np.errstate(divide="ignore", invalid="ignore"):  # at the ends of the scan
        d_lo, d_hi = (g_at - g_lo) / (at - lo), (g_hi - g_at) / (hi - at)
        vertex = 0.5 * (lo + at) - d_lo * (hi - lo) / (2.0 * (d_hi - d_lo))
    vertex = np.where((vertex > lo) & (vertex < hi), vertex, at)
    # the last three give the first step the derivative's curvature over 2^-10 of the vertex
    points = np.stack([at, np.where((kinks > lo) & (kinks < hi), kinks, at),
                       np.maximum(vertex * (1.0 - 2.0**-10), lo), np.minimum(vertex * (1.0 + 2.0**-10), hi),
                       vertex], axis=1)
    cuts = np.cumsum([sum(len(lv) for _, lv in groups) for *_, groups, _ in searches])[:-1]
    best, arg = np.full(at.size, -math.inf), at
    trail_x, trail_d = np.full((2, at.size, 3), math.nan)  # the last three points and derivatives
    err, live = np.zeros(at.size), np.ones(at.size, dtype=bool)
    for _ in range(_MAX_STEPS):
        pairs = [_members(model, groups, power, free, _thresholds(model, part))
                 for (model, free, power, groups, _), part in zip(searches, np.split(points, cuts))]
        values, slopes = (np.concatenate([pair[k] for pair in pairs]) for k in (0, 1))
        values, slopes = np.abs(values), np.sign(values) * slopes
        j = np.argmax(values, axis=1)  # the first of equal values
        top = values[np.arange(j.size), j]
        better = live & (top > best)
        best, arg = np.where(better, top, best), np.where(better, points[np.arange(j.size), j], arg)
        keep = live[:, None]
        lo = np.where(live, np.maximum(lo, np.max(np.where(slopes >= 0.0, points, -math.inf), axis=1)), lo)
        hi = np.where(live, np.minimum(hi, np.min(np.where(slopes <= 0.0, points, math.inf), axis=1)), hi)
        trail_x = np.where(keep, np.concatenate([trail_x, points], axis=1)[:, -3:], trail_x)
        trail_d = np.where(keep, np.concatenate([trail_d, slopes], axis=1)[:, -3:], trail_d)
        (xa, xb, x), (da, db, d) = trail_x.T, trail_d.T
        with np.errstate(divide="ignore", invalid="ignore"):  # points that coincide
            secant = (db - d) / (xb - x)
            bend = ((da - db) / (xa - xb) - secant) / (xa - x)
            rate = secant + bend * (x - xb)  # at x, of the parabola through the three
            steps = (-d / (rate - bend * d / rate), -d / secant, 0.5 * (lo + hi) - x)
        step = steps[-1]
        for guess in steps[-2::-1]:  # the parabola's root, else the secant's, else the midpoint
            step = np.where((x + guess >= lo) & (x + guess <= hi), guess, step)
        err = np.where(live, np.abs(d * step), err)
        live &= np.abs(step) > _RESOLUTION * ts[-1]
        if not live.any():
            break
        points = np.where(live, x + step, x)[:, None]
    return best, arg, err


# (integral, column, free, power, kink) of a curve, for :func:`_curves`; a trimmed member variance
# has a kink at Q (its second derivative jumps there), and a boundary level's Q = 0 is in no bracket
_VARIANCE = (_integral_variance, _levels, _free_variance, 2, lambda levels: levels[:, 3])
_SLOPE = (_integral_slope, _derivative_curve, _free_slope, 1, lambda mu_p: np.full(len(mu_p), math.nan))


def _curves(specs, null: SymmetricNull, alphas, parts):
    """``(value, argmax, error, resolution)`` of each test in ``specs``, none moment-based, on
    each of the checked levels ``alphas``, one list per part.

    A part is ``(model, (integral, column, free, power, kink))``.  On the accepted
    levels ``a``, ``(levels, error) = column(model, a, trimmed)`` is computed once for
    every test from :func:`symlab.location._trimmed`, run once for every part;
    ``integral(specs, model, levels)`` yields each integral-type test's ``(value,
    error)``, and a supremum-type test's rows ``(spec, levels)`` are searched over
    their members, with ``free``, ``power`` and ``kink(levels)``, by one
    :func:`_sup_over_t` for all parts and tests, which gives their
    resolutions.  Refused levels (:func:`_refused`) read NaN with error and
    resolution 0, integral-type argmaxes NaN and resolutions 0.
    """
    ok = ~_uncentered(null, alphas)  # :func:`_refused` of every test here
    trimmed = _trimmed(null, alphas[ok])
    curves, searches, pending = [], [], []
    for model, (integral, column, free, power, kink) in parts:
        block = [(*np.full((2, alphas.size), math.nan), *np.zeros((2, alphas.size))) for _ in specs]
        curves.append(block)
        if not ok.any():
            continue
        levels, level_err = column(model, alphas[ok], trimmed)
        sums = integral([spec for spec in specs if spec.family == INTEGRAL], model, levels)
        groups = []
        for spec, (value, arg, err, resolution) in zip(specs, block):
            if spec.family == INTEGRAL:
                value[ok], e = next(sums)
                err[ok] = np.maximum(level_err, e)
            else:
                err[ok] = level_err
                groups.append((spec, levels))
                pending.append((value, arg, resolution))
        if groups:
            searches.append((model, free, power, groups, np.concatenate([kink(lv) for _, lv in groups])))
    if pending:
        for out, *found in zip(pending, *(np.split(r, len(pending)) for r in _sup_over_t(searches))):
            for array, part in zip(out, found):
                array[ok] = part
    return curves


def variance_curve(spec: StatisticSpec, null: SymmetricNull, alphas):
    """Limiting variance of ``spec`` on each trimming level, its argmax over ``t``, error and
    resolution.

    The supremum over the threshold for supremum-type statistics; the
    argmax is NaN for integral-type ones.  The error is the largest
    quadrature error estimate behind each level, and the resolution what
    the last step of the search over ``t`` may still move the value by
    (:func:`_sup_over_t`; 0 for integral-type ones).  Each level is computed
    from its own ``a`` alone (``spec.alpha`` is ignored); levels
    :func:`applicability` refuses are NaN, and a level that breaks
    :func:`symlab.location.check_level` raises ``ValueError``.
    """
    return _curve(spec, null, alphas, (null, _VARIANCE))


def slope_curve(spec: StatisticSpec, alt: AlternativeFamily, alphas):
    """Local slope of ``spec`` against ``alt`` on each level, as :func:`variance_curve`.

    A supremum-type slope is the supremum of the absolute member slope.
    """
    return _curve(spec, alt.base, alphas, (alt, _SLOPE))


def _curve(spec: StatisticSpec, null: SymmetricNull, alphas, part):
    """The one :func:`_curves` part of ``spec``, refused if moment-based, on the levels ``alphas``."""
    if spec.family == MOMENT:
        raise ValueError(f"{spec.kind} is moment-based; it has no trimming curve")
    return _curves([spec], null, check_level(np.asarray(alphas, dtype=float).ravel()), [part])[0][0]


# ---------------------------------------------------------------------------
# moment-based statistics (their own limit theory)
# ---------------------------------------------------------------------------


def cm_family_slope(null: SymmetricNull, alt: AlternativeFamily) -> float:
    """Local slope of mean minus median, shared by the mean-median statistics (CM, GAMMA, MGG).

    ``mu'(0) - mu'(1/2)``, the drift ``Int x h + H(0)/f(0)`` from the
    estimand derivatives, before each statistic's scale
    (:func:`_moment_limits`); requires a finite second moment.
    """
    applicability(StatisticSpec("CM"), null)
    if alt.base != null:
        raise ValueError("alternative family must perturb the same null")
    return _mu_prime(alt, (0.0,))[0][0] - _mu_prime(alt, (0.5,))[0][0]


def _int_x3_score(alt: AlternativeFamily) -> tuple[float, float]:
    return half_line(lambda v: v.x**3 * v.odd_score, alt)


def _moment_limits(spec: StatisticSpec, alt: AlternativeFamily) -> tuple[float, float, float]:
    """Limiting variance, local slope and error estimate of a moment statistic (no ``a``).

    The mean-median statistics are ``(xbar - med) / s``, with ``s = sigma``
    (CM), ``1/2`` (GAMMA) and ``sqrt(pi/2) tau`` (MGG), ``tau = E|X|``
    under the null: their variance is ``(sigma^2 + 1/(4 f(0)^2) - tau/f(0))
    / s^2``.  SQRT_B1's is ``(m6 - 6 sigma^2 m4 + 9 sigma^6) / sigma^6`` and
    its slope ``(Int x^3 h - 3 sigma^2 mu'(0)) / sigma^3``, ``mu'(0) = Int x h``.
    """
    null = alt.base
    (xh,), (err,) = _mu_prime(alt, (0.0,))
    m2 = null.moment(2)
    if spec.kind == "SQRT_B1":
        x3h, x3_err = _int_x3_score(alt)
        sigma2 = (null.moment(6) - 6.0 * m2 * null.moment(4) + 9.0 * m2**3) / m2**3
        return sigma2, (x3h - 3.0 * m2 * xh) / m2**1.5, max(err, x3_err)
    f0, tau = float(null.density(0.0)), null.abs_mean()
    s = {"CM": math.sqrt(m2), "GAMMA": 0.5, "MGG": math.sqrt(math.pi / 2.0) * tau}[spec.kind]
    return (m2 + 1.0 / (4.0 * f0 * f0) - tau / f0) / (s * s), cm_family_slope(null, alt) / s, err


# ---------------------------------------------------------------------------
# summary report
# ---------------------------------------------------------------------------


@dataclass
class IndexCurve:
    """Variance, slope and local index of one test on each level of a trimming grid.

    ``degenerate`` marks the theory's 0/0 points (S and KS at ``a = 1/2``)
    and ``not_applicable`` points the theory excludes; ``index`` is NaN at
    both, so they plot as missing values rather than zeros; ``sigma2`` and
    ``slope`` are NaN only at not-applicable points, and the argmaxes NaN but
    for supremum-type ones.
    ``quad_err`` is the largest quadrature error estimate behind each point
    (0 where nothing was integrated).  ``sup_err`` is what the resolution of
    the supremum search over ``t`` (:func:`_sup_over_t`) may move the index
    by, to first order: ``(2 |slope| e_slope + index e_sigma2) / sigma2``
    from each search's resolution ``e``; 0 where nothing was searched and
    where the index is NaN.
    """

    test: str
    null: str
    alternative: str
    grid: np.ndarray
    index: np.ndarray
    degenerate: np.ndarray
    not_applicable: np.ndarray
    sigma2: np.ndarray
    slope: np.ndarray
    var_argmax: np.ndarray
    slope_argmax: np.ndarray
    quad_err: np.ndarray
    sup_err: np.ndarray

    def rows(self):
        """Iterate (alpha, index, degenerate, not_applicable) tuples."""
        for i, a in enumerate(self.grid):
            yield (
                float(a),
                float(self.index[i]),
                bool(self.degenerate[i]),
                bool(self.not_applicable[i]),
            )


def _report_curves(specs, alt: AlternativeFamily, alphas) -> list[IndexCurve]:
    """Asymptotic report of each of ``specs`` against ``alt`` on the grid ``alphas``, which
    :func:`symlab.location._check_grid` has accepted.

    The one place the local index is assembled: every index the library
    gives (:func:`symlab.efficiency.bahadur_index`, index curves,
    equivalence reports) is one of these curves.  All supremum searches
    share one loop of Newton steps; a curve is the bits of its test's curve
    computed alone.  ``spec.alpha`` is ignored; S and KS at ``a = 1/2`` are
    flagged degenerate by the theorem, never by a variance's size; levels
    :func:`applicability` refuses are flagged.
    """
    null = alt.base
    curved = [spec for spec in specs if spec.family != MOMENT]
    curves = iter(zip(*_curves(curved, null, alphas, [(null, _VARIANCE), (alt, _SLOPE)])))
    reports = []
    for spec in specs:
        na = _refused(spec, null, alphas)
        if spec.family == MOMENT:
            sigma2, slope, var_arg, slope_arg = np.full((4, alphas.size), math.nan)
            err, var_res, slope_res = np.zeros((3, alphas.size))
            if not na.all():
                sigma2[~na], slope[~na], err[~na] = _moment_limits(spec, alt)
        else:
            (sigma2, var_arg, var_err, var_res), (slope, slope_arg, slope_err, slope_res) = next(curves)
            err = np.maximum(var_err, slope_err)
        # Median centering pins the empirical process at the origin: at a = 1/2
        # the sign test, and the t = 0 member that defines the KS family, are
        # an exact 0/0, the theorem's only one (the comparison study treats
        # the median-centered KS as inefficient there).
        flagged = ~na & (alphas == 0.5) & (spec.kind in ("S", "KS"))
        index, sup_err = np.full(alphas.size, math.nan), np.zeros(alphas.size)
        np.divide(slope * slope, sigma2, out=index, where=~(flagged | na))
        np.divide(2.0 * np.abs(slope) * slope_res + index * var_res, sigma2, out=sup_err, where=~(flagged | na))
        reports.append(IndexCurve(spec.label, null.name, alt.kind, alphas, index, flagged, na,
                                  sigma2, slope, var_arg, slope_arg, err, sup_err))
    return reports

