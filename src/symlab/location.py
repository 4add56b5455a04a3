"""The trimmed-mean location estimator and its population-level calculus.

The estimator averages the central ``1 - 2*alpha`` fraction of the
left-continuous empirical quantile function, which assigns order statistic
``i`` the overlap of ``((i-1)/n, i/n]`` with ``[alpha, 1-alpha]``.  The
boundary cases are the sample mean (``alpha = 0``) and the sample median
(``alpha = 1/2``, midpoint convention for even ``n``).

Two population quantities accompany the estimator: the influence curve that
gives its first-order expansion around a symmetric model, in closed form (the
clamp ``clip(x, -Q, Q) / (1 - 2 alpha)`` inside the trimming range), and the
derivative of the estimand along a local asymmetric alternative family, which
feeds the slope computations in :mod:`symlab.asymptotics`.
"""

from __future__ import annotations

import numpy as np

from ._quad import graded, half_line, quad, quad_split
from .distributions import AlternativeFamily, SymmetricNull, _as_float, _check_size
from .errors import NotApplicableError

__all__ = [
    "trim_weights",
    "trimmed_mean",
    "influence_curve",
    "trimmed_mean_derivative",
    "population_trimmed_mean",
    "check_level",
    "check_centering",
    "check_sample",
]


def _check_alpha(alpha):
    """The trimming range rule, on one level (a float back) or an array of them."""
    alphas = np.asarray(alpha, dtype=float)
    if not ((alphas >= 0.0) & (alphas <= 0.5)).all():
        raise ValueError("trimming coefficient must lie in [0, 1/2]")
    return _as_float(alphas)


def check_level(alpha):
    """The one trimming-level rule of the population quantities, on one level or an array.

    On top of :func:`_check_alpha`'s ``[0, 1/2]`` (no NaN), a positive level
    must keep ``1 - alpha < 1``: they read the ``(1 - alpha)`` null quantile,
    which does not exist once ``1 - alpha`` rounds to 1 (``alpha <= 2^-54``).
    Finite samples take any level in ``[0, 1/2]``.
    """
    alphas = np.asarray(alpha, dtype=float)
    if not (((alphas == 0.0) | (1.0 - alphas < 1.0)) & (alphas <= 0.5)).all():
        raise ValueError(
            "trimming coefficient must lie in [0, 1/2], and be 0 or exceed 2^-54 (1 - alpha < 1)"
        )
    return _as_float(alphas)


def _check_grid(alphas) -> np.ndarray:
    """The one rule of an ordered trimming grid: :func:`check_level` on each level, strictly increasing."""
    alphas = check_level(np.asarray(alphas, dtype=float).ravel())
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("trimming grid must be strictly increasing")
    return alphas


def _trimmed(null: SymmetricNull, alphas):
    """``(a, Q(1 - a), 1 - 2a)`` of the trimmed formulas on the levels ``alphas``.  A boundary level
    (0 or 1/2), whose own formulas replace what these give (:func:`_by_level`), stands in as ``a =
    1/4`` with ``Q = 0``: every level runs the trimmed formulas, and none integrates for it."""
    boundary = (alphas == 0.0) | (alphas == 0.5)
    a = np.where(boundary, 0.25, alphas)
    return a, np.where(boundary, 0.0, null.quantile(1.0 - a)), 1.0 - 2.0 * a


def _by_level(a, trimmed, mean, median):
    """The one boundary rule: ``trimmed``, a tuple of arrays that broadcast against the levels
    ``a`` (computed by :func:`_trimmed`), but the tuple ``mean()`` at ``a = 0`` and ``median()``
    at ``a = 1/2``, each run only when some level is there and cut to the length of ``trimmed``."""
    for mask, part in ((a == 0.0, mean), (a == 0.5, median)):
        if mask.any():
            trimmed = tuple(np.where(mask, new, old) for new, old in zip(part(), trimmed))
    return trimmed


def _uncentered(null: SymmetricNull, alphas) -> np.ndarray:
    """The one centering rule, as a mask of the levels whose center has no root-n limit.

    The untrimmed (``alpha = 0``) center, the mean, needs a finite variance.
    """
    return (np.asarray(alphas) == 0.0) & (not null.has_moment(2))


def check_centering(null: SymmetricNull, alpha) -> None:
    """Raise :class:`~symlab.errors.NotApplicableError` if :func:`_uncentered` refuses a level."""
    if _uncentered(null, alpha).any():
        raise NotApplicableError(
            f"untrimmed (mean) centering is not applicable under the {null.name} null"
        )


def check_sample(sample, ndim: int = 1, finite: bool = True) -> np.ndarray:
    """The one input rule for data: a nonempty ``ndim``-D array of finite floats.

    An infinite value is refused even in a tail that trimming drops, where
    ``0 * inf`` would make the weighted sum NaN.  ``finite=False`` skips that pass.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != ndim or x.size == 0:
        raise ValueError(f"sample must be a nonempty {ndim}-D array")
    if finite and not np.isfinite(x).all():
        raise ValueError("sample contains NaN or infinite values")
    return x


def trim_weights(n: int, alpha: float) -> np.ndarray:
    """Order-statistic weights of the trimming scheme.

    Weight ``i`` is the length of ``((i-1)/n, i/n] intersect [alpha, 1-alpha]``
    rescaled by ``1/(1-2*alpha)``.  The weights are nonnegative and, by
    construction from telescoping breakpoints, sum to one exactly.
    """
    alpha = _check_alpha(alpha)
    _check_size(n)
    if alpha == 0.5:
        w = np.zeros(n)
        if n % 2 == 1:
            w[n // 2] = 1.0
        else:
            w[n // 2 - 1 : n // 2 + 1] = 0.5
        return w
    grid = np.arange(n + 1, dtype=float) / n
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

    For ``0 < alpha < 1/2`` it is the clamp ``clip(x, -Q, Q) / (1-2a)``, ``Q``
    the ``(1 - alpha)`` null quantile: under symmetry the defining integral
    ``(1-2a)^{-1} Integral_a^{1-a} (t - 1{x < Q(t)}) / f(Q(t)) dt`` collapses to
    it exactly.  The boundary cases are ``x`` (mean) and ``sgn(x)/(2 f(0))``
    (median).
    """
    alpha = check_level(alpha)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    check_centering(null, alpha)
    _, q, scale = _trimmed(null, alpha)
    (out,) = _by_level(np.asarray(alpha), (np.clip(x_arr, -q, q) / scale,), lambda: (x_arr,),
                       lambda: (np.sign(x_arr) / (2.0 * null.density(0.0)),))
    return float(out[0]) if np.ndim(x) == 0 else out


def trimmed_mean_derivative(alt: AlternativeFamily, alpha: float) -> float:
    """Derivative of the population trimmed mean along the alternative family.

    Evaluated at the symmetric point: with score antiderivative ``H`` and null
    quantile ``q = Q(1-alpha)``,

    * ``0 < alpha < 1/2``:
      ``(1-2a)^{-1} [ -q (H(q) + H(-q)) + Integral_{-q}^{q} x h(x) dx ]``;
    * ``alpha = 1/2``: ``-H(0)/f(0)`` (median shift rate);
    * ``alpha = 0``: ``Integral x h(x) dx`` (mean shift rate).
    """
    return float(_derivative_curve(alt, [check_level(alpha)])[0][0])


def _derivative_curve(alt: AlternativeFamily, alphas, trimmed=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`trimmed_mean_derivative` on each checked level from its own ``a``, with an error estimate;
    ``trimmed`` is :func:`_trimmed` of the null on ``alphas`` if the caller has it."""
    alphas = np.asarray(alphas, dtype=float)
    null = alt.base
    check_centering(null, alphas)

    def xh(x):  # Int_{-q}^{q} x h(x) dx folded onto [0, q]
        return x * alt.odd_score(x)

    _, q, scale = trimmed or _trimmed(null, alphas)
    integral, err = graded(xh, q)
    edge = -q * (alt.score_cumulative(q) + alt.score_cumulative(-q))
    return _by_level(alphas, ((edge + integral) / scale, err / scale),
                     lambda: half_line(lambda v: v.x * v.odd_score, alt),
                     lambda: (-alt.score_cumulative(0.0) / null.density(0.0), 0.0))


def population_trimmed_mean(alt: AlternativeFamily, theta: float, alpha: float) -> float:
    """Population trimmed mean under ``g(.; theta)``, by quantile quadrature.

    Independent oracle used to cross-check :func:`trimmed_mean_derivative`
    through finite differences; quantiles are found by Brent's method on the
    alternative CDF.
    """
    from scipy import optimize

    alpha = check_level(alpha)
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
