"""The trimmed-mean location estimator and its population-level calculus.

The estimator averages the central ``1 - 2*alpha`` fraction of the
left-continuous empirical quantile function, which assigns order statistic
``i`` the overlap of ``((i-1)/n, i/n]`` with ``[alpha, 1-alpha]``.  The
boundary cases are the sample mean (``alpha = 0``) and the sample median
(``alpha = 1/2``, midpoint convention for even ``n``).

Two population quantities accompany the estimator: the influence curve that
gives its first-order expansion around a symmetric model, and the derivative
of the estimand along a local asymmetric alternative family, which feeds the
slope computations in :mod:`symlab.asymptotics`.
"""

from __future__ import annotations

import numpy as np

from ._quad import quad, quad_split
from .distributions import AlternativeFamily, SymmetricNull
from .errors import NotApplicableError

__all__ = [
    "trim_weights",
    "trimmed_mean",
    "influence_curve",
    "trimmed_mean_derivative",
    "population_trimmed_mean",
    "check_centering",
    "check_sample",
]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 0.5:
        raise ValueError("trimming coefficient must lie in [0, 1/2]")
    return alpha


def check_centering(null: SymmetricNull, alpha: float) -> None:
    """The one centering rule: mean centering needs a finite second moment.

    The untrimmed (``alpha = 0``) center is the sample mean, whose root-n
    limit exists only when the null has a finite variance; every trimmed
    center has one under any null.  Raises
    :class:`~symlab.errors.NotApplicableError` otherwise.
    """
    if alpha == 0.0 and not null.has_moment(2):
        raise NotApplicableError(
            f"untrimmed (mean) centering is not applicable under the {null.name} null"
        )


def check_sample(sample, ndim: int = 1) -> np.ndarray:
    """The one input rule for data: a nonempty ``ndim``-D array of finite floats.

    An infinite value is refused even in a tail that trimming drops, where
    ``0 * inf`` would make the weighted sum NaN.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != ndim or x.size == 0:
        raise ValueError(f"sample must be a nonempty {ndim}-D array")
    if not np.isfinite(x).all():
        raise ValueError("sample contains NaN or infinite values")
    return x


def trim_weights(n: int, alpha: float) -> np.ndarray:
    """Order-statistic weights of the trimming scheme.

    Weight ``i`` is the length of ``((i-1)/n, i/n] intersect [alpha, 1-alpha]``
    rescaled by ``1/(1-2*alpha)``.  The weights are nonnegative and, by
    construction from telescoping breakpoints, sum to one exactly.
    """
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ValueError("need at least one observation")
    if alpha == 0.5:
        w = np.zeros(n)
        if n % 2 == 1:
            w[n // 2] = 1.0
        else:
            w[n // 2 - 1 : n // 2 + 1] = 0.5
        return w
    grid = np.arange(n + 1) / n
    cut = np.clip(grid, alpha, 1.0 - alpha)
    # normalize by the realized span so the weights telescope to one exactly,
    # even when alpha sits within rounding distance of 1/2
    return np.diff(cut) / (cut[-1] - cut[0])


def trimmed_mean(sample, alpha: float) -> float:
    """Trimmed mean of a finite ``sample`` with trimming coefficient ``alpha``."""
    x = check_sample(sample)
    return float((np.sort(x) * trim_weights(x.size, alpha)).sum())


def influence_curve(null: SymmetricNull, alpha: float, x):
    """Influence curve of the trimmed-mean functional at the symmetric null.

    For ``0 < alpha < 1/2`` this evaluates
    ``(1-2a)^{-1} Integral_a^{1-a} (t - 1{x < Q(t)}) / f(Q(t)) dt``
    by quadrature (``Q`` the null quantile function); the trimming bounds the
    domain away from the ``t -> 0, 1`` endpoint singularities.  The boundary
    cases use the closed forms ``x`` (mean) and ``sgn(x)/(2 f(0))`` (median).
    """
    alpha = _check_alpha(alpha)
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)

    check_centering(null, alpha)
    if alpha == 0.0:
        out = x_arr.astype(float)
    elif alpha == 0.5:
        out = np.sign(x_arr) / (2.0 * null.density(0.0))
    else:
        scale = 1.0 / (1.0 - 2.0 * alpha)

        def psi_one(xi: float) -> float:
            u = float(null.cdf(xi))

            def integrand(t: float) -> float:
                q = null.quantile(t)
                return (t - (u < t)) / null.density(q)

            return scale * quad_split(integrand, alpha, 1.0 - alpha, points=[u])

        out = np.array([psi_one(xi) for xi in x_arr])
    return float(out[0]) if scalar else out


def trimmed_mean_derivative(alt: AlternativeFamily, alpha: float) -> float:
    """Derivative of the population trimmed mean along the alternative family.

    Evaluated at the symmetric point: with score antiderivative ``H`` and null
    quantile ``q = Q(1-alpha)``,

    * ``0 < alpha < 1/2``:
      ``(1-2a)^{-1} [ -q (H(q) + H(-q)) + Integral_{-q}^{q} x h(x) dx ]``;
    * ``alpha = 1/2``: ``-H(0)/f(0)`` (median shift rate);
    * ``alpha = 0``: ``Integral x h(x) dx`` (mean shift rate).
    """
    alpha = _check_alpha(alpha)
    null = alt.base
    check_centering(null, alpha)

    if alpha == 0.5:
        return float(-alt.score_cumulative(0.0) / null.density(0.0))

    if alpha == 0.0:
        return quad_split(lambda x: x * alt.score(x), -np.inf, np.inf, points=[0.0, 1.0])

    q = float(null.quantile(1.0 - alpha))
    edge = -q * (alt.score_cumulative(q) + alt.score_cumulative(-q))
    inner = quad_split(lambda x: x * alt.score(x), -q, q, points=[0.0, 1.0])
    return (edge + inner) / (1.0 - 2.0 * alpha)


def population_trimmed_mean(alt: AlternativeFamily, theta: float, alpha: float) -> float:
    """Population trimmed mean under ``g(.; theta)``, by quantile quadrature.

    Independent oracle used to cross-check :func:`trimmed_mean_derivative`
    through finite differences; quantiles are found by bisection on the
    alternative CDF.
    """
    from scipy import optimize

    alpha = _check_alpha(alpha)
    check_centering(alt.base, alpha)

    def inv_cdf(u: float) -> float:
        lo, hi = -1.0, 1.0
        while alt.cdf(lo, theta) > u:
            lo *= 2.0
        while alt.cdf(hi, theta) < u:
            hi *= 2.0
        return float(optimize.brentq(lambda x: alt.cdf(x, theta) - u, lo, hi, xtol=1e-13))

    if alpha == 0.5:
        return inv_cdf(0.5)
    if alpha == 0.0:
        return quad_split(
            lambda x: x * alt.density(x, theta), -np.inf, np.inf, points=[0.0, 1.0]
        )
    return quad(inv_cdf, alpha, 1.0 - alpha, abs_tol=1e-12) / (1.0 - 2.0 * alpha)
