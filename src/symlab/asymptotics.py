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

Projections are analytic.  Every characterization statistic compares the
``r``-th and ``(p+1-r)``-th order statistics of a ``p``-subsample in absolute
value, and conditioning one coordinate at ``x`` leaves binomial survival
probabilities in ``u = F(x)``.  Integrating the outer coordinate gives, for
the integral forms, the odd profile

    ``B(u) = 2 sign(u - 1/2) Omega(max(u, 1-u))``

with an explicit polynomial ``Omega`` per family, while the supremum-family
members factor as ``w(q) * chi(u; q)`` where ``chi(u; q) = 1{u >= q} -
1{u < 1-q}`` and ``q = F(t)``.  These closed forms are certified against
Monte Carlo conditional expectations in the test suite.

:func:`report` is the single place the local index is assembled, including
its degenerate cases (a vanishing variance, and KS at ``a = 1/2``); the
index functions of :mod:`symlab.efficiency` read their values from it.
:func:`applicability` is the single rule for which (test, null) pairs the
theory covers: moment-based tests need a finite second moment (SQRT_B1 a
sixth), and every other test needs mean centering (``a = 0``) to have a
finite second moment under the null.  Every variance, slope and index here
applies it, as does ``symlab test``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import quad_split
from .distributions import AlternativeFamily, SymmetricNull
from .errors import NotApplicableError
from .location import check_centering, trimmed_mean_derivative
from .stats import INTEGRAL, MOMENT, SUPREMUM, StatisticSpec

__all__ = [
    "Projection",
    "projection",
    "asymptotic_variance",
    "variance_function",
    "sup_variance",
    "slope_derivative",
    "slope_function",
    "sup_slope",
    "cm_family_slope",
    "sqrtb1_slope",
    "applicability",
    "AsymptoticReport",
    "report",
    "DEGENERACY_TOL",
]

DEGENERACY_TOL = 1e-10

_mu_prime_cache: dict[tuple, float] = {}
_scalar_cache: dict[tuple, float] = {}


def _mu_prime(alt: AlternativeFamily, alpha: float) -> float:
    key = (alt.kind, alt.base.name, round(float(alpha), 12))
    if key not in _mu_prime_cache:
        _mu_prime_cache[key] = trimmed_mean_derivative(alt, alpha)
    return _mu_prime_cache[key]


# ---------------------------------------------------------------------------
# projection profiles
# ---------------------------------------------------------------------------


def _omega(spec: StatisticSpec):
    """Polynomial ``Omega(v) = Integral_{1/2}^{v} w(q) dq`` of the family."""
    if spec.kind.startswith("NA"):
        k = spec.k

        def omega(v):
            return (v**k + (1.0 - v) ** k - 2.0 * 0.5**k) / k

        return omega
    if spec.kind.startswith("MO"):
        k = spec.k
        c = math.comb(2 * k - 1, k)

        def omega(v):
            return c * (0.25**k - (v * (1.0 - v)) ** k) / k

        return omega
    if spec.kind.startswith("BH"):

        def omega(v):
            return 0.5 * ((v - 0.5) ** 2)

        return omega
    raise ValueError(f"{spec.kind} has no characterization profile")


def _weight(spec: StatisticSpec):
    """Threshold weight ``w(q)`` of the supremum-family projection."""
    if spec.kind == "KS":
        return lambda q: np.ones_like(np.asarray(q, dtype=float))
    if spec.kind.startswith("NA"):
        k = spec.k
        return lambda q: q ** (k - 1) - (1.0 - q) ** (k - 1)
    if spec.kind.startswith("MO"):
        k = spec.k
        c = math.comb(2 * k - 1, k)
        return lambda q: c * (q * (1.0 - q)) ** (k - 1) * (2.0 * q - 1.0)
    if spec.kind.startswith("BH"):
        return lambda q: 0.5 * (2.0 * q - 1.0)
    raise ValueError(f"{spec.kind} is not supremum-type")


def _chi(u, q):
    u = np.asarray(u, dtype=float)
    return np.where(u >= q, 1.0, 0.0) - np.where(u < 1.0 - q, 1.0, 0.0)


def _profile(spec: StatisticSpec):
    """Integral-type projection as a function of ``u = F(x)``."""
    if spec.kind == "S":

        def phi_u(u):
            u = np.asarray(u, dtype=float)
            return np.where(u > 0.5, 0.5, np.where(u < 0.5, -0.5, 0.0))

        return phi_u
    if spec.kind == "W":

        def phi_u(u):
            return np.asarray(u, dtype=float) - 0.5

        return phi_u
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

    @property
    def order(self) -> int:
        return self.spec.kernel_order

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


def _phi_sq(spec: StatisticSpec) -> float:
    """``Integral_0^1 phi(u)^2 du`` (null-free)."""
    key = ("phi_sq", spec.kind, spec.k)
    if key not in _scalar_cache:
        if spec.kind == "S":
            val = 0.25
        elif spec.kind == "W":
            val = 1.0 / 12.0
        else:
            phi_u = _profile(spec)
            nodes, weights = np.polynomial.legendre.leggauss(24)
            half = 0.25 * (nodes + 1.0) + 0.5  # map to (1/2, 1)
            val = 2.0 * 0.25 * float(np.sum(weights * phi_u(half) ** 2))
        _scalar_cache[key] = val
    return _scalar_cache[key]


def _phi_x(spec: StatisticSpec, null: SymmetricNull):
    phi_u = _profile(spec)
    return lambda x: float(phi_u(null.cdf(x)))


def _int_phi_fprime(spec: StatisticSpec, null: SymmetricNull) -> float:
    key = ("A", spec.kind, spec.k, null.name)
    if key not in _scalar_cache:
        phi = _phi_x(spec, null)
        _scalar_cache[key] = quad_split(
            lambda x: phi(x) * null.density_derivative(x), -np.inf, np.inf, points=[0.0]
        )
    return _scalar_cache[key]


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
        return
    order, name = (6, "sixth") if spec.kind == "SQRT_B1" else (2, "second")
    if not null.has_moment(order):
        raise NotApplicableError(
            f"{spec.kind} requires a finite {name} moment; {null.name} has none"
        )


def _assemble_variance(spec, null, t1, a_coef, t3, t4, t3_inf, i5) -> float:
    """Three-branch variance assembly shared by the two statistic families.

    ``t3``/``t4`` are functions of the trimming quantile ``Q``; ``t3_inf`` and
    ``i5`` are the untrimmed/median-case substitutes (callables, evaluated
    lazily so the boundary branches never touch quantities they do not need).
    """
    applicability(spec, null)
    alpha, m = spec.alpha, spec.kernel_order
    if alpha == 0.0:
        half_second = null.moment(2) / 2.0
        return m * m * (t1 + 2.0 * a_coef**2 * half_second + 4.0 * a_coef * t3_inf())
    if alpha == 0.5:
        f0 = float(null.density(0.0))
        return m * m * (
            t1 + a_coef**2 / (4.0 * f0 * f0) + (2.0 / f0) * a_coef * i5()
        )
    q = float(null.quantile(1.0 - alpha))
    kappa = null.partial_second_moment(q) + alpha * q * q
    scale = 1.0 - 2.0 * alpha
    return m * m * (
        t1
        + (2.0 / scale**2) * a_coef**2 * kappa
        + (4.0 / scale) * a_coef * (t3(q) + q * t4(q))
    )


def asymptotic_variance(spec: StatisticSpec, null: SymmetricNull) -> float:
    """Limiting variance of the root-n scaled integral-type statistic."""
    if spec.family != INTEGRAL:
        raise ValueError("use variance_function/sup_variance for supremum-type statistics")
    phi = _phi_x(spec, null)
    t1 = _phi_sq(spec)
    a_coef = _int_phi_fprime(spec, null)

    def t3(q):
        return quad_split(lambda x: phi(x) * x * null.density(x), 0.0, q)

    def t4(q):
        return quad_split(lambda x: phi(x) * null.density(x), q, np.inf)

    def t3_inf():
        return quad_split(lambda x: phi(x) * x * null.density(x), 0.0, np.inf)

    def i5():
        return quad_split(lambda x: phi(x) * null.density(x), 0.0, np.inf)

    return _assemble_variance(spec, null, t1, a_coef, t3, t4, t3_inf, i5)


def variance_function(spec: StatisticSpec, null: SymmetricNull, t: float) -> float:
    """Member variance ``sigma^2(alpha; t)`` of a supremum-type family.

    All ingredients are closed-form: with ``q = F(t)`` the member projection
    is ``w(q) chi(.; q)`` whose squared mass is ``2(1-q)``, whose density-
    derivative pairing is ``-2 f(t)``, and whose partial moments are partial
    moments of the null.
    """
    if spec.family != SUPREMUM:
        raise ValueError("variance_function applies to supremum-type statistics")
    t = abs(float(t))
    q = float(null.cdf(t))
    w = float(_weight(spec)(q))
    f_t = float(null.density(t))
    t1 = w * w * 2.0 * (1.0 - q)
    a_coef = w * (-2.0) * f_t  # sign of the member cancels in every product

    def t3(Q):
        return w * (null.partial_first_moment(t, Q) if t < Q else 0.0)

    def t4(Q):
        return w * min(spec.alpha, 1.0 - q)

    def t3_inf():
        return w * (null.abs_mean() / 2.0 - null.partial_first_moment(0.0, t))

    def i5():
        return w * (1.0 - q)

    return _assemble_variance(spec, null, t1, a_coef, t3, t4, t3_inf, i5)


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------


def _int_phi_score(spec: StatisticSpec, alt: AlternativeFamily) -> float:
    key = ("phih", spec.kind, spec.k, alt.base.name, alt.kind)
    if key not in _scalar_cache:
        phi = _phi_x(spec, alt.base)
        _scalar_cache[key] = quad_split(
            lambda x: phi(x) * alt.score(x), -np.inf, np.inf, points=[0.0, 1.0]
        )
    return _scalar_cache[key]


def slope_derivative(spec: StatisticSpec, alt: AlternativeFamily) -> float:
    """Local slope of the limit in probability, integral-type statistics."""
    if spec.family != INTEGRAL:
        raise ValueError("use slope_function/sup_slope for supremum-type statistics")
    null = alt.base
    applicability(spec, null)
    mu_p = _mu_prime(alt, spec.alpha)
    return spec.kernel_order * (
        _int_phi_score(spec, alt) + mu_p * _int_phi_fprime(spec, null)
    )


def slope_function(spec: StatisticSpec, alt: AlternativeFamily, t: float) -> float:
    """Member slope ``b'(0, alpha; t)`` of a supremum-type family (signed)."""
    if spec.family != SUPREMUM:
        raise ValueError("slope_function applies to supremum-type statistics")
    null = alt.base
    applicability(spec, null)
    t = abs(float(t))
    q = float(null.cdf(t))
    sign = _SUP_SIGN.get(spec.kind, 1.0)
    w = float(_weight(spec)(q))
    chi_score = -(float(alt.score_cumulative(t)) + float(alt.score_cumulative(-t)))
    chi_fprime = -2.0 * float(null.density(t))
    mu_p = _mu_prime(alt, spec.alpha)
    return spec.kernel_order * sign * w * (chi_score + mu_p * chi_fprime)


# ---------------------------------------------------------------------------
# supremum search
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float = 1e-6) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return f(mid), mid


def _sup_over_t(f_vec, null: SymmetricNull, tol: float = 1e-6) -> tuple[float, float]:
    """Maximize a smooth-between-kinks function of the threshold ``t >= 0``.

    Scans ``t = 0`` plus 512 log-spaced points up to the 0.999 null quantile,
    then refines around the best grid point by golden section.
    """
    q999 = float(null.quantile(0.999))
    ts = np.concatenate([[0.0], np.geomspace(q999 * 1e-5, q999, 512)])
    vals = np.asarray(f_vec(ts), dtype=float)
    i = int(np.argmax(vals))
    lo = ts[i - 1] if i > 0 else 0.0
    hi = ts[i + 1] if i < ts.size - 1 else ts[-1]
    val, arg = _golden_max(lambda t: float(f_vec(np.asarray([t]))[0]), lo, hi, tol)
    if vals[i] >= val:
        val, arg = float(vals[i]), float(ts[i])
    return val, arg


def sup_variance(spec: StatisticSpec, null: SymmetricNull) -> tuple[float, float]:
    """Supremum over ``t`` of the member variance, with its argmax."""

    def f_vec(ts):
        return np.asarray([variance_function(spec, null, t) for t in ts])

    return _sup_over_t(f_vec, null)


def sup_slope(spec: StatisticSpec, alt: AlternativeFamily) -> tuple[float, float]:
    """Supremum over ``t`` of the absolute member slope, with its argmax."""

    def f_vec(ts):
        return np.asarray([abs(slope_function(spec, alt, t)) for t in ts])

    return _sup_over_t(f_vec, alt.base)


# ---------------------------------------------------------------------------
# moment-based statistics (their own limit theory)
# ---------------------------------------------------------------------------


def cm_family_slope(null: SymmetricNull, alt: AlternativeFamily) -> float:
    """Local index shared by the mean-median statistics (CM, GAMMA, MGG).

    ``(Int x h + H(0)/f(0))^2 / (sigma^2 + 1/(4 f(0)^2) - tau/f(0))`` with
    ``tau = E|X|`` under the null; requires a finite second moment.
    """
    applicability(StatisticSpec("CM"), null)
    if alt.base.name != null.name:
        raise ValueError("alternative family must perturb the same null")
    f0 = float(null.density(0.0))
    xh = quad_split(lambda x: x * alt.score(x), -np.inf, np.inf, points=[0.0, 1.0])
    num = (xh + float(alt.score_cumulative(0.0)) / f0) ** 2
    den = null.moment(2) + 1.0 / (4.0 * f0 * f0) - null.abs_mean() / f0
    return num / den


def sqrtb1_slope(null: SymmetricNull, alt: AlternativeFamily) -> float:
    """Local index of the skewness-coefficient test.

    ``(Int x^3 h - 3 sigma^2 Int x h)^2 / (m6 - 6 sigma^2 m4 + 9 sigma^6)``;
    requires a finite sixth moment.
    """
    applicability(StatisticSpec("SQRT_B1"), null)
    if alt.base.name != null.name:
        raise ValueError("alternative family must perturb the same null")
    sigma2 = null.moment(2)
    xh = quad_split(lambda x: x * alt.score(x), -np.inf, np.inf, points=[0.0, 1.0])
    x3h = quad_split(lambda x: x**3 * alt.score(x), -np.inf, np.inf, points=[0.0, 1.0])
    num = (x3h - 3.0 * sigma2 * xh) ** 2
    den = null.moment(6) - 6.0 * sigma2 * null.moment(4) + 9.0 * sigma2**3
    return num / den


# ---------------------------------------------------------------------------
# summary report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticReport:
    """Variance, slope and local index of one (statistic, null, alternative).

    For supremum-type statistics ``sigma2`` and ``slope`` are the suprema over
    the threshold, with their argmax locations.  When the variance (and slope)
    vanish the index is an undefined 0/0; it is reported as NaN with the
    ``degenerate`` flag set, never silently as 0 or infinity.
    """

    sigma2: float
    slope: float
    index: float
    degenerate: bool
    var_argmax: float | None = None
    slope_argmax: float | None = None

    @property
    def a_coefficient(self) -> float:
        """Inverse limiting variance (inf when degenerate)."""
        return 1.0 / self.sigma2 if self.sigma2 > 0.0 else math.inf


def report(spec: StatisticSpec, alt: AlternativeFamily) -> AsymptoticReport:
    """Full asymptotic report of one statistic against one alternative.

    The one place the local index is assembled: every index the library
    gives (:func:`symlab.efficiency.bahadur_index`, index curves,
    equivalence reports) is this report's ``index`` and ``degenerate``.
    :class:`~symlab.errors.NotApplicableError` propagates from
    :func:`applicability`.
    """
    null = alt.base
    if spec.family == MOMENT:
        idx = (
            sqrtb1_slope(null, alt) if spec.kind == "SQRT_B1" else cm_family_slope(null, alt)
        )
        return AsymptoticReport(math.nan, math.nan, idx, False)
    if spec.family == INTEGRAL:
        sigma2 = asymptotic_variance(spec, null)
        slope = slope_derivative(spec, alt)
        var_arg = slope_arg = None
    else:
        sigma2, var_arg = sup_variance(spec, null)
        slope, slope_arg = sup_slope(spec, alt)
    # Median centering pins the empirical process at the origin, so the
    # sign-test member that defines the KS family is an exact 0/0 there;
    # the comparison study treats the classical median-centered KS as
    # inefficient at this endpoint and flags it.
    degenerate = sigma2 < DEGENERACY_TOL or (spec.kind == "KS" and spec.alpha == 0.5)
    index = math.nan if degenerate else slope * slope / sigma2
    return AsymptoticReport(sigma2, slope, index, degenerate, var_arg, slope_arg)
