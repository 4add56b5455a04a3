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
are the rows of an ``(a, t)`` array, which :func:`_sup_over_t` scans per
test, then refines together with the rows of every other test and curve it
is given (:func:`_report_curves`).  For integral-type ones ``Int_Q^inf phi
f`` integrates a polynomial in ``u = F(x)``, exact under a fixed
Gauss-Legendre rule, and ``Int_0^Q phi x f`` uses a fixed composite rule
(:func:`_t3`).  A moment statistic's variance and slope do not depend on
``a`` and are computed once (:func:`_moment_limits`).

The other integrals use the fixed rules of :mod:`symlab._quad` too (the
whole-line ones folded onto ``[0, inf)``, and ``Int_0^Q x^2 f`` of the
trimmed-mean term by the null's partial second moment), and the curves carry
the largest error estimate behind each level.  Each model method runs once
per point set (but ``F`` and ``f`` on the scan grid, once per part).  Per process,
:func:`functools.cache` keeps what depends only on the model and the rule:
the model at the half-line nodes and on the scan grid (:func:`_scan`), the
alpha-free integrals ``Int phi^2``, ``Int phi f'``, ``Int_0^inf phi x f``,
``Int phi h`` and ``Int x^3 h`` per ``(kind, k)`` statistic and model with
their estimates, and ``mu'`` on one level; models compare by value, so
every lookup of one model shares an entry.  What
depends on the grid (:func:`_levels`, the null on :func:`_t3`'s nodes, ``mu'``)
lives for one :func:`_curves` call, for all its tests, parts and rounds.

Projections are analytic.  Every characterization statistic compares the
``r``-th and ``(p+1-r)``-th order statistics of a ``p``-subsample in absolute
value, and conditioning one coordinate at ``x`` leaves binomial survival
probabilities in ``u = F(x)``.  Integrating the outer coordinate gives, for
the integral forms, the odd profile

    ``B(u) = 2 sign(u - 1/2) Omega(max(u, 1-u))``

with an explicit polynomial ``Omega`` per family, while the supremum-family
members factor as ``w(q) * chi(u; q)`` where ``chi(u; q) = 1{u >= q} -
1{u < 1-q}`` and ``q = F(t)``.  These closed forms are certified against
Monte Carlo conditional expectations and their exact coefficients
(:func:`_shape`) in the test suite.

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
:func:`symlab.location.check_level` to its trimming levels, which refuses
the positive levels so small that ``1 - a`` rounds to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from ._quad import _gauss01, _graded_rule, half_line
from .distributions import AlternativeFamily, SymmetricNull, _as_float
from .errors import NotApplicableError
from .location import _derivative_curve, _uncentered, check_centering, check_level
from .stats import INTEGRAL, MOMENT, SUPREMUM, StatisticSpec

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


def _omega(spec: StatisticSpec):
    """Polynomial ``Omega(v) = Integral_{1/2}^{v} w(q) dq`` of the family."""
    k = spec.k
    if spec.kind.startswith("NA"):
        return lambda v: (v**k + (1.0 - v) ** k - 2.0 * 0.5**k) / k
    if spec.kind.startswith("MO"):
        c = math.comb(2 * k - 1, k)
        return lambda v: c * (0.25**k - (v * (1.0 - v)) ** k) / k
    if spec.kind.startswith("BH"):
        return lambda v: 0.5 * ((v - 0.5) ** 2)
    raise ValueError(f"{spec.kind} has no characterization profile")


def _power(x, k: int):
    """``x**k`` (integer ``k >= 0``) by repeated multiplication: floats and arrays agree."""
    return math.prod([x] * k, start=1.0)


def _weight(spec: StatisticSpec):
    """Threshold weight ``w(q)`` of the supremum-family projection."""
    k = spec.k
    if spec.kind == "KS":
        return lambda q: np.ones_like(np.asarray(q, dtype=float))
    if spec.kind.startswith("NA"):
        return lambda q: _power(q, k - 1) - _power(1.0 - q, k - 1)
    if spec.kind.startswith("MO"):
        c = math.comb(2 * k - 1, k)
        return lambda q: c * _power(q * (1.0 - q), k - 1) * (2.0 * q - 1.0)
    if spec.kind.startswith("BH"):
        return lambda q: 0.5 * (2.0 * q - 1.0)
    raise ValueError(f"{spec.kind} is not supremum-type")


def _shape(spec: StatisticSpec) -> tuple:
    """Exact shape of the first projection: two tests of one shape have proportional projections.

    A BH/NA/MO kind's is its family and the ``(power, coefficient)`` terms of
    :func:`_weight` in ``y = q - 1/2`` (supremum) or of :func:`_omega`, its
    integral, in ``x = v - 1/2`` (integral), as ``Fraction``s divided by the first.
    """
    if not spec.kind.startswith(("BH", "NA", "MO")):  # CM, GAMMA and MGG are (xbar - med) / const
        return ("mean-median",) if spec.kind in ("CM", "GAMMA", "MGG") else (spec.kind,)
    k, half = spec.k, Fraction(1, 2)
    if spec.kind.startswith("NA"):  # (1/2 + y)^(k-1) - (1/2 - y)^(k-1)
        w = {j: math.comb(k - 1, j) * half ** (k - 1 - j) * (1 - (-1) ** j) for j in range(k)}
    elif spec.kind.startswith("MO"):  # (1/4 - y^2)^(k-1) y, up to the factor 2 C(2k-1, k)
        w = {2 * j + 1: math.comb(k - 1, j) * (half * half) ** (k - 1 - j) * (-1) ** j for j in range(k)}
    else:  # y, up to the factor 1
        w = {1: Fraction(1)}
    if spec.family == INTEGRAL:  # Omega(1/2 + x) is the integral of w over (0, x)
        w = {j + 1: c / (j + 1) for j, c in w.items()}
    terms = sorted((j, c) for j, c in w.items() if c)
    return (spec.family, *((j, c / terms[0][1]) for j, c in terms))


def _chi(u, q):
    u = np.asarray(u, dtype=float)
    return np.where(u >= q, 1.0, 0.0) - np.where(u < 1.0 - q, 1.0, 0.0)


def _profile(spec: StatisticSpec):
    """Integral-type projection as a function of ``u = F(x)``."""
    if spec.kind == "S":
        return lambda u: np.where(u > 0.5, 0.5, np.where(u < 0.5, -0.5, 0.0))
    if spec.kind == "W":
        return lambda u: np.asarray(u, dtype=float) - 0.5
    omega = _omega(spec)
    p = spec.subset_size
    scale = p / (p + 1.0)

    def phi_u(u):
        u = np.asarray(u, dtype=float)
        v = np.maximum(u, 1.0 - u)
        return scale * 2.0 * np.sign(u - 0.5) * omega(v)

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


def _u_integral(f, lo):
    """``Integral_lo^1 f(u) du`` for each ``lo``, exact for polynomials of degree <= 47."""
    u, w = _gauss01(24)
    lo = np.asarray(lo, dtype=float)[..., None]
    return (1.0 - lo[..., 0]) * np.sum(w * f(lo + (1.0 - lo) * u), axis=-1)


@cache
def _phi_sq(spec: StatisticSpec) -> float:
    """``Integral_0^1 phi(u)^2 du`` (null-free)."""
    phi_u = _profile(spec)
    return 2.0 * float(_u_integral(lambda u: phi_u(u) ** 2, 0.5))


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
    """``Integral_0^q phi(x) x f(x) dx`` of each of ``specs`` on each ``q``, and its error estimate.

    The 24-point :func:`symlab._quad.graded` rule (12 points for the
    estimate) suffices here.  The null is evaluated on a rule's nodes once
    for all ``specs``, one rule at a time.
    """
    q = np.asarray(q, dtype=float)[..., None]
    sums = []
    for s, w in (_graded_rule(24), _graded_rule(12)):
        x = q * s
        u, f = null.cdf(x), null.density(x)
        sums.append([q[..., 0] * np.sum(w * (_profile(spec)(u) * x * f), axis=-1) for spec in specs])
    return [(value, np.abs(value - half)) for value, half in zip(*sums)]


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


def _levels(null: SymmetricNull, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``(a, c(a), factor of J, Q, Int_0^Q x f)`` of :func:`_assemble_variance`, and the
    error estimate of ``Int_0^Q x^2 f`` on each.

    ``Q`` is the ``(1-a)`` quantile; between the boundaries ``c = 2 (Int_0^Q
    x^2 f + a Q^2) / (1-2a)^2`` and the factor is ``4/(1-2a)``, at ``a = 0``
    ``sigma^2`` and 4, at ``a = 1/2`` ``1/(4 f(0)^2)`` and ``2/f(0)``.  A
    boundary level carries the 0.75 quantile, which it never reads, and error 0.
    """
    zero, half = alphas == 0.0, alphas == 0.5
    a = np.where(zero | half, 0.25, alphas)
    q, scale = null.quantile(1.0 - a), 1.0 - 2.0 * a
    moment, err = null._second_moment(q)
    c2, factor = 2.0 * (moment + a * q * q) / (scale * scale), 4.0 / scale
    if zero.any():
        c2, factor = np.where(zero, null.moment(2), c2), np.where(zero, 4.0, factor)
    if half.any():
        f0 = float(null.density(0.0))
        c2, factor = np.where(half, 1.0 / (4.0 * f0 * f0), c2), np.where(half, 2.0 / f0, factor)
    rows = np.stack([alphas, c2, factor, q, null.partial_first_moment(0.0, q)], axis=1)
    return rows, np.where(zero | half, 0.0, err)


def _assemble_variance(m, levels, t1, a_coef, mean_cross, median_cross, trim_cross):
    """``m^2 [t1 + c(a) A^2 + A J(a)]`` on each level ``a``, shared by the two families.

    ``levels`` holds the :func:`_levels` columns ``a``, ``c(a)`` and the factor of ``J``; they
    broadcast against ``t1`` and ``A = a_coef`` (scalars, or supremum-member thresholds).  ``J``
    is the factor times ``mean_cross()`` at ``a = 0``, ``median_cross()`` at ``a = 1/2`` and
    ``trim_cross()`` between, each ``(value, error estimate)`` and run only when some level
    needs it; the second result is the estimate of the branch each level took.
    """
    a, c2, factor = levels
    zero, half = a == 0.0, a == 0.5
    cross = np.zeros(np.broadcast_shapes(a.shape, np.shape(a_coef)))
    err = np.zeros(a.shape)
    for mask, part in ((zero, mean_cross), (half, median_cross), (~(zero | half), trim_cross)):
        if mask.any():
            value, e = part()
            cross, err = np.where(mask, factor * value, cross), np.where(mask, e, err)
    return m * m * (t1 + c2 * (a_coef * a_coef) + a_coef * cross), err


def _integral_variance(specs, null: SymmetricNull, levels):
    """Variance of each of ``specs`` on the :func:`_levels` rows, and its largest error estimate."""
    a, c2, factor, q, _ = levels.T
    for spec, (inner, inner_err) in zip(specs, _t3(specs, null, q)):
        kernel, phi_u = _kernel(spec), _profile(spec)
        fprime, fprime_err = _int_phi_fprime(kernel, null)
        # Int_Q^inf phi f is Int_{1-a}^1 phi(u) du: a polynomial in u there
        value, err = _assemble_variance(
            spec.kernel_order, (a, c2, factor), _phi_sq(kernel), fprime,
            lambda: _int_phi_x(kernel, null), lambda: (_u_integral(phi_u, 0.5), 0.0),
            lambda: (inner + q * _u_integral(phi_u, 1.0 - a), inner_err))
        yield value, np.maximum(err, fprime_err)


def _by_test(groups, q):
    """Kernel order and member sign (columns) and weight ``w(q)`` of the rows of ``groups``,
    ``(spec, levels)`` blocks, one per test; ``q`` has one row per row, or any shape for one."""

    def column(value):
        return np.concatenate([np.full(len(lv), value(s), float) for s, lv in groups])[:, None]

    if len(groups) == 1:
        w = _weight(groups[0][0])(q)
    else:
        cuts = np.cumsum([len(lv) for _, lv in groups])[:-1]
        w = np.concatenate([_weight(s)(part) for (s, _), part in zip(groups, np.split(q, cuts))])
    return column(lambda s: s.kernel_order), column(lambda s: _SUP_SIGN.get(s.kind, 1.0)), w


def _thresholds(model, t):
    """``|t|`` and the null's ``F``, ``f`` and ``Int_0^t x f`` there; an alternative family's
    score pairing ``-(H(t) + H(-t))`` replaces the last."""
    null = getattr(model, "base", model)
    t = np.abs(np.asarray(t, dtype=float))
    if model is null:
        return t, null.cdf(t), null.density(t), null.partial_first_moment(0.0, t)
    return t, null.cdf(t), null.density(t), -(model.score_cumulative(t) + model.score_cumulative(-t))


def _member_variance(null: SymmetricNull, groups, v):
    """``sigma^2(a; t)`` on the rows of ``(spec, levels)`` blocks at the :func:`_thresholds` ``v``."""
    t, q, f, below = v
    m, _, w = _by_test(groups, q)
    a, c2, factor, Q, Q_moment = np.concatenate([lv for _, lv in groups]).T[..., None]
    a_coef = w * (-2.0) * f  # sign of the member cancels in every product

    def trim_cross():
        # the partial moment over (t, Q), empty (exactly 0.0) once t >= Q
        inside = np.where(t < Q, Q_moment - below, 0.0)
        return w * (inside + Q * np.minimum(a, 1.0 - q)), 0.0

    return _assemble_variance(
        m, (a, c2, factor), w * w * 2.0 * (1.0 - q), a_coef,
        lambda: (w * (null.abs_mean() / 2.0 - below), 0.0), lambda: (w * (1.0 - q), 0.0), trim_cross,
    )[0]


def variance_function(spec: StatisticSpec, null: SymmetricNull, t):
    """Member variance ``sigma^2(alpha; t)`` of a supremum-type family.

    All ingredients are closed-form: with ``q = F(t)`` the member projection
    is ``w(q) chi(.; q)`` whose squared mass is ``2(1-q)``, whose density-
    derivative pairing is ``-2 f(t)``, and whose partial moments are partial
    moments of the null.  ``t`` may be an array (elementwise, bit for bit
    the values of scalar calls); a float in gives a float out.  A NaN ``t``
    is refused, and ``t`` beyond the null's finite arithmetic (``inf``
    included) gives the ``t -> inf`` limit 0.0.
    """
    if spec.family != SUPREMUM:
        raise ValueError("variance_function applies to supremum-type statistics")
    applicability(spec, null)
    levels = _levels(null, check_level([spec.alpha]))[0]
    return _at_thresholds(lambda v: _member_variance(null, [(spec, levels)], v), null, t)


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


def _member_slope(alt: AlternativeFamily, groups, v):
    """Signed member slope on the rows of ``(spec, mu'(a))`` blocks, ``v`` as for the variance."""
    t, q, f, chi_score = v
    m, sign, w = _by_test(groups, q)
    mu_p = np.concatenate([lv for _, lv in groups])[:, None]
    return m * sign * w * (chi_score + mu_p * (-2.0 * f))


def slope_function(spec: StatisticSpec, alt: AlternativeFamily, t):
    """Signed member slope ``b'(0, alpha; t)`` of a supremum family (``t`` as for the variance)."""
    if spec.family != SUPREMUM:
        raise ValueError("slope_function applies to supremum-type statistics")
    applicability(spec, alt.base)
    mu_p = _mu_prime(alt, (spec.alpha,))[0]
    return _at_thresholds(lambda v: _member_slope(alt, [(spec, mu_p)], v), alt, t)


# ---------------------------------------------------------------------------
# supremum search
# ---------------------------------------------------------------------------

_REFINE_POINTS = 17


@cache
def _scan(model) -> tuple:
    """:func:`_thresholds` of ``model`` at ``t = 0`` and 512 log-spaced points up to the 0.999
    null quantile, the scan of :func:`_sup_over_t`; once per model in a process."""
    q999 = float(getattr(model, "base", model).quantile(0.999))
    table = _thresholds(model, np.concatenate([[0.0], np.geomspace(q999 * 1e-5, q999, 512)]))
    for array in table:
        array.flags.writeable = False  # every search shares the cached arrays
    return table


def _sup_over_t(searches) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima and argmaxes of smooth-between-kinks functions of the threshold ``t >= 0``.

    ``searches`` lists ``(model, member, groups)``; ``member(model, groups,
    v)`` maps the :func:`_thresholds` ``v`` of ``model`` (one row for all, or
    one row each) to the values of the rows of ``groups`` (:func:`_by_test`).
    Each test's block is scanned on its own on the :func:`_scan` grid.  Then
    each round of one refinement loop makes one call per search on a
    17-point grid over each row's bracket, and narrows those wider than
    1e-6 to the neighbours of their best point, so no row depends on
    another.  Only a strictly larger value replaces the best: grid points
    win ties, and an argmax of exactly 0.0 stays exact.
    """

    def scan(model, member, group):  # reduced to its argmax before the next test's scan
        vals = member(model, [group], _scan(model))
        i = np.argmax(vals, axis=1)
        return i, vals[np.arange(i.size), i]

    i, best = (np.concatenate(a) for a in zip(*[scan(m, f, g) for m, f, gs in searches for g in gs]))
    ts = _scan(searches[0][0])[0]
    rows, arg = np.arange(i.size), ts[i]
    lo, hi = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, ts.size - 1)]
    steps = np.linspace(0.0, 1.0, _REFINE_POINTS)
    cuts = np.cumsum([sum(len(lv) for _, lv in groups) for *_, groups in searches])[:-1]
    while (live := hi - lo > 1e-6).any():
        grid = lo[:, None] + (hi - lo)[:, None] * steps
        vals = np.concatenate([f(model, g, _thresholds(model, part))
                               for (model, f, g), part in zip(searches, np.split(grid, cuts))])
        j = np.argmax(vals, axis=1)
        top = vals[rows, j]
        better = live & (top > best)
        best, arg = np.where(better, top, best), np.where(better, grid[rows, j], arg)
        lo = np.where(live, grid[rows, np.maximum(j - 1, 0)], lo)
        hi = np.where(live, grid[rows, np.minimum(j + 1, steps.size - 1)], hi)
    return best, arg


# (integral, column, member) of a curve, for :func:`_curves`; a slope's supremum is of |member|
_VARIANCE = (_integral_variance, _levels, _member_variance)
_SLOPE = (_integral_slope, _derivative_curve,
          lambda alt, groups, v: np.abs(_member_slope(alt, groups, v)))


def _curves(specs, null: SymmetricNull, alphas, parts):
    """``(value, argmax, error)`` of each test in ``specs`` on each level, one list per part.

    A part is ``(model, (integral, column, member))``.  On the accepted
    levels ``a``, ``(levels, error) = column(model, a)`` is computed once for
    every test; ``integral(specs, model, levels)`` yields each integral-type
    test's ``(value, error)``, and a supremum-type test's rows ``(spec,
    levels)`` are searched over ``member`` by one :func:`_sup_over_t` for all
    parts and tests.  Refused levels (:func:`_refused`) read NaN with error
    0, integral-type argmaxes NaN.
    """
    if moment := [spec.kind for spec in specs if spec.family == MOMENT]:
        raise ValueError(f"{moment[0]} is moment-based; it has no trimming curve")
    alphas = check_level(np.asarray(alphas, dtype=float).ravel())
    ok = ~_uncentered(null, alphas)  # :func:`_refused` of every test here
    curves, searches, pending = [], [], []
    for model, (integral, column, member) in parts:
        block = [(*np.full((2, alphas.size), math.nan), np.zeros(alphas.size)) for _ in specs]
        curves.append(block)
        if not ok.any():
            continue
        levels, level_err = column(model, alphas[ok])
        sums = integral([spec for spec in specs if spec.family == INTEGRAL], model, levels)
        groups = []
        for spec, (value, arg, err) in zip(specs, block):
            if spec.family == INTEGRAL:
                value[ok], e = next(sums)
                err[ok] = np.maximum(level_err, e)
            else:
                err[ok] = level_err
                groups.append((spec, levels))
                pending.append((value, arg))
        if groups:
            searches.append((model, member, groups))
    if pending:
        best, where = (np.split(r, len(pending)) for r in _sup_over_t(searches))
        for (value, arg), b, w in zip(pending, best, where):
            value[ok], arg[ok] = b, w
    return curves


def variance_curve(spec: StatisticSpec, null: SymmetricNull, alphas):
    """Limiting variance of ``spec`` on each trimming level, its argmax over ``t`` and error.

    The supremum over the threshold for supremum-type statistics; the
    argmax is NaN for integral-type ones.  The error is the largest
    quadrature error estimate behind each level.  Each level is computed
    from its own ``a`` alone (``spec.alpha`` is ignored); levels
    :func:`applicability` refuses are NaN, and a level that breaks
    :func:`symlab.location.check_level` raises ``ValueError``.
    """
    return _curves([spec], null, alphas, [(null, _VARIANCE)])[0][0]


def slope_curve(spec: StatisticSpec, alt: AlternativeFamily, alphas):
    """Local slope of ``spec`` against ``alt`` on each level, as :func:`variance_curve`.

    A supremum-type slope is the supremum of the absolute member slope.
    """
    return _curves([spec], alt.base, alphas, [(alt, _SLOPE)])[0][0]


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


@cache
def _int_x3_score(alt: AlternativeFamily) -> tuple[float, float]:
    return half_line(lambda v: v.x**3 * v.odd_score, alt)


def sqrtb1_slope(null: SymmetricNull, alt: AlternativeFamily) -> float:
    """Local slope of the skewness-coefficient test.

    ``(Int x^3 h - 3 sigma^2 Int x h) / sigma^3``, with the mean shift rate
    ``Int x h = mu'(0)``; requires a finite sixth moment.
    """
    applicability(StatisticSpec("SQRT_B1"), null)
    if alt.base != null:
        raise ValueError("alternative family must perturb the same null")
    sigma2 = null.moment(2)
    xh = _mu_prime(alt, (0.0,))[0][0]
    return (_int_x3_score(alt)[0] - 3.0 * sigma2 * xh) / sigma2**1.5


def _moment_limits(spec: StatisticSpec, alt: AlternativeFamily) -> tuple[float, float, float]:
    """Limiting variance, local slope and error estimate of a moment statistic (no ``a``).

    The mean-median statistics are ``(xbar - med) / s``, with ``s = sigma``
    (CM), ``1/2`` (GAMMA) and ``sqrt(pi/2) tau`` (MGG), ``tau = E|X|``
    under the null: their variance is ``(sigma^2 + 1/(4 f(0)^2) - tau/f(0))
    / s^2``.  SQRT_B1's is ``(m6 - 6 sigma^2 m4 + 9 sigma^6) / sigma^6``.
    """
    null = alt.base
    m2, err = null.moment(2), _mu_prime(alt, (0.0,))[1][0]
    if spec.kind == "SQRT_B1":
        sigma2 = (null.moment(6) - 6.0 * m2 * null.moment(4) + 9.0 * m2**3) / m2**3
        return sigma2, sqrtb1_slope(null, alt), max(err, _int_x3_score(alt)[1])
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
    (0 where nothing was integrated).
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

    def __post_init__(self):
        if not (len(self.grid) == len(self.index) == len(self.degenerate)):
            raise ValueError("grid and value arrays must have equal length")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("trimming grid must be strictly increasing")

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
    """Asymptotic report of each of ``specs`` against ``alt`` on the increasing ``alphas``.

    The one place the local index is assembled: every index the library
    gives (:func:`symlab.efficiency.bahadur_index`, index curves,
    equivalence reports) is one of these curves.  All supremum searches
    share one refinement loop; a curve is the bits of its test's curve
    computed alone.  ``spec.alpha`` is ignored; S and KS at ``a = 1/2`` are
    flagged degenerate by the theorem, never by a variance's size; levels
    :func:`applicability` refuses are flagged, and a level that breaks
    :func:`symlab.location.check_level` raises ``ValueError``.
    """
    null = alt.base
    alphas = check_level(np.asarray(alphas, dtype=float).ravel())
    curved = [spec for spec in specs if spec.family != MOMENT]
    curves = iter(zip(*_curves(curved, null, alphas, [(null, _VARIANCE), (alt, _SLOPE)])))
    reports = []
    for spec in specs:
        na = _refused(spec, null, alphas)
        if spec.family == MOMENT:
            sigma2, slope, var_arg, slope_arg = np.full((4, alphas.size), math.nan)
            err = np.zeros(alphas.size)
            if not na.all():
                sigma2[~na], slope[~na], err[~na] = _moment_limits(spec, alt)
        else:
            (sigma2, var_arg, var_err), (slope, slope_arg, slope_err) = next(curves)
            err = np.maximum(var_err, slope_err)
        # Median centering pins the empirical process at the origin: at a = 1/2
        # the sign test, and the t = 0 member that defines the KS family, are
        # an exact 0/0, the theorem's only one (the comparison study treats
        # the median-centered KS as inefficient there).
        flagged = ~na & (alphas == 0.5) & (spec.kind in ("S", "KS"))
        index = np.full(alphas.size, math.nan)
        np.divide(slope * slope, sigma2, out=index, where=~(flagged | na))
        reports.append(IndexCurve(spec.label, null.name, alt.kind, alphas, index, flagged, na,
                                  sigma2, slope, var_arg, slope_arg, err))
    return reports

