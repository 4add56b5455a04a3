"""Population-level oracles, independent of the asymptotic formulas.

Everything here evaluates limits in probability of the centered statistics
under an alternative ``g(.; theta)`` directly from their definitions, by
one-dimensional quadrature: conditioning on the outer observation reduces the
subset order-statistic events to binomial survival probabilities of the
alternative CDF.  Finite differences of these limits in ``theta`` validate
the analytic slope derivatives; none of the projection/variance machinery is
reused, including the supremum search over the threshold, which here is a
dense grid uniform in null probability refined by a bounded scalar search.
"""

from __future__ import annotations

import math

import numpy as np

from ._quad import quad, quad_split
from .distributions import AlternativeFamily, SymmetricNull
from .location import population_trimmed_mean
from .stats import MOMENT, SUPREMUM, StatisticSpec

__all__ = ["population_limit", "population_slope_fd"]


def _binom_sf(r: int, p: int, prob) -> np.ndarray:
    """``P(Bin(p, prob) >= r)``, summed exactly over the small subset size ``p``."""
    return sum(math.comb(p, j) * prob**j * (1.0 - prob) ** (p - j) for j in range(r, p + 1))


def _char_member(spec: StatisticSpec, alt, theta, mu, t):
    """Signed subset-count member ``P(|low| < t) - P(|high| < t)`` at threshold t."""
    p = spec.subset_size
    r_lo, r_hi = spec.order_pair
    g_hi = np.asarray(alt.cdf(mu + t, theta))
    g_lo = np.asarray(alt.cdf(mu - t, theta))
    val = (_binom_sf(r_lo, p, g_hi) - _binom_sf(r_lo, p, g_lo)) - (
        _binom_sf(r_hi, p, g_hi) - _binom_sf(r_hi, p, g_lo)
    )
    if spec.kind.startswith("BH"):
        val = 0.5 * val
    return val


def _sup_abs(member, null: SymmetricNull) -> float:
    """``sup_{t >= 0} |member(t)|``, for a member that takes an array of thresholds.

    2001 null quantiles from the median to the 0.9999 quantile, the best one
    refined by a bounded Brent search between its neighbours.
    """
    from scipy import optimize

    ts = null.quantile(np.linspace(0.5, 0.9999, 2001))
    vals = np.abs(member(ts))
    i = int(np.argmax(vals))
    bounds = (ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)])
    res = optimize.minimize_scalar(
        lambda tt: -abs(float(member(tt))),
        bounds=bounds,
        method="bounded",
        options={"xatol": 1e-10},
    )
    return max(float(vals[i]), -float(res.fun))


def _moment_limit(spec: StatisticSpec, alt: AlternativeFamily, theta: float) -> float:
    mean = population_trimmed_mean(alt, theta, 0.0)
    med = population_trimmed_mean(alt, theta, 0.5)
    var = quad_split(
        lambda x: (x - mean) ** 2 * alt.density(x, theta), -np.inf, np.inf, points=[0.0, 1.0]
    )
    if spec.kind == "CM":
        return (mean - med) / math.sqrt(var)
    if spec.kind == "GAMMA":
        return 2.0 * (mean - med)
    if spec.kind == "MGG":
        j = math.sqrt(math.pi / 2.0) * quad_split(
            lambda x: abs(x - med) * alt.density(x, theta),
            -np.inf,
            np.inf,
            points=[med, 0.0, 1.0],
        )
        return (mean - med) / j
    m3 = quad_split(
        lambda x: (x - mean) ** 3 * alt.density(x, theta), -np.inf, np.inf, points=[0.0, 1.0]
    )
    return m3 / var**1.5


def population_limit(
    spec: StatisticSpec, alt: AlternativeFamily, theta: float, t: float | None = None
) -> float:
    """Limit in probability of the statistic under ``g(.; theta)``.

    For supremum-type statistics, pass ``t`` for a fixed family member
    (signed); without ``t`` the supremum of the absolute member limits is
    returned.
    """
    if spec.family == MOMENT:
        return _moment_limit(spec, alt, theta)

    mu = population_trimmed_mean(alt, theta, spec.alpha)

    if spec.kind == "S":
        return 1.0 - float(alt.cdf(mu, theta)) - 0.5
    if spec.kind == "W":
        return (
            quad_split(
                lambda x: (1.0 - alt.cdf(2.0 * mu - x, theta)) * alt.density(x, theta),
                -np.inf,
                np.inf,
                points=[mu, 0.0, 1.0],
            )
            - 0.5
        )
    if spec.family == SUPREMUM:
        if spec.kind == "KS":
            def member(tt):
                return np.asarray(alt.cdf(mu + tt, theta) + alt.cdf(mu - tt, theta) - 1.0)
        else:
            def member(tt):
                return _char_member(spec, alt, theta, mu, tt)

        if t is not None:
            return float(member(float(t)))
        return _sup_abs(member, alt.base)

    # integral characterization statistic: integrate the outer coordinate
    def integrand(s: float) -> float:
        dens = float(alt.density(mu + s, theta) + alt.density(mu - s, theta))
        return float(_char_member(spec, alt, theta, mu, s)) * dens

    return quad(integrand, 0.0, np.inf, abs_tol=1e-12)


def population_slope_fd(
    spec: StatisticSpec,
    alt: AlternativeFamily,
    theta: float = 1e-3,
    t: float | None = None,
    absolute: bool = False,
) -> float:
    """Finite-difference slope of the population limit at the symmetric point.

    Central differences for families defined on both sides of zero
    (two-piece skew); a second-order one-sided stencil for the contamination
    family, whose weight lives in [0, 1].  With ``absolute`` the derivative
    of ``|limit|`` is formed (the supremum-type statistics converge to the
    absolute supremum).
    """

    def limit(th: float) -> float:
        val = population_limit(spec, alt, th, t=t)
        return abs(val) if absolute else val

    if alt.kind == "contamination":
        return (4.0 * limit(theta) - limit(2.0 * theta)) / (2.0 * theta)
    if absolute:
        return (limit(theta) + limit(-theta)) / (2.0 * theta)
    return (limit(theta) - limit(-theta)) / (2.0 * theta)
