"""Quadrature: fixed rules for the asymptotic layer, adaptive ones for the references.

Every integral behind a variance, slope or index uses the fixed composite
Gauss-Legendre rules :func:`graded` and :func:`half_line`, each level from
its own limit alone, with the distance to the rule with half the nodes as
the error estimate.  :func:`half_line` reads each model at its nodes once
per process (:func:`_half_line_nodes`).  :func:`quad` and :func:`quad_split` wrap
``scipy.integrate.quad``, imported on first call, for the independent
references only: the oracles, ``validate``, the influence curve and the
population trimmed mean.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cache
from types import SimpleNamespace

import numpy as np

__all__ = ["quad", "quad_split", "graded", "half_line"]

ABS_TOL = 1e-10


@cache
def _gauss01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[0, 1]``."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


@cache
def _graded_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on ``[0, 1]``, panels ``[4^-j-1, 4^-j]`` and ``[0, 4^-25]``.

    Scaled to ``[0, q]``, the graded panels resolve an integrand that varies
    on a fixed scale near the origin for any ``q`` up to about 3e15 (the
    largest Cauchy quantile); uniform panels lose digits once ``q`` is large.
    """
    s, w = _gauss01(nodes)
    edges = np.concatenate([[0.0], 0.25 ** np.arange(25.0, -1.0, -1.0)])
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * s).ravel(), (width * w).ravel()


def graded(g: Callable, q, nodes: int = 32):
    """``Integral_0^q g(x) dx`` for each ``q`` by :func:`_graded_rule`, and its error estimate."""
    q = np.asarray(q, dtype=float)[..., None]

    def apply(n):
        s, w = _graded_rule(n)
        return q[..., 0] * np.sum(w * g(q * s), axis=-1)

    value = apply(nodes)
    return value, np.abs(value - apply(nodes // 2))


@cache
def _half_line_nodes(model, nodes: int) -> SimpleNamespace:
    """:func:`half_line`'s nodes ``x = -Q(s/2)`` of the ``nodes``-point rule, and the null's ``cdf``,
    ``density`` and ``density_derivative`` there; an alternative family adds ``odd_score``,
    ``h(x) - h(-x)``."""
    null = getattr(model, "base", model)
    if model is not null:
        v = _half_line_nodes(null, nodes)
        return SimpleNamespace(**vars(v), odd_score=model.score(v.x) - model.score(-v.x))
    x = -null.quantile(0.5 * _graded_rule(nodes)[0])
    return SimpleNamespace(x=x, cdf=null.cdf(x), density=null.density(x),
                           density_derivative=null.density_derivative(x))


def half_line(g: Callable, model) -> tuple[float, float]:
    """``Integral_0^inf g dx`` and its error estimate, for ``g`` that decays like the null.

    ``g`` maps the :func:`_half_line_nodes` of ``model`` (a null, or an
    alternative family over it) to the integrand there.  With ``x =
    -Q(s/2)``, ``Q`` the null quantile, the integral is ``1/2 Integral_0^1
    g(x)/f(x) ds``; the graded rule in ``s`` resolves the tail at ``s -> 0``.
    """

    def apply(nodes):
        v = _half_line_nodes(model, nodes)
        return np.sum(_graded_rule(nodes)[1] * (0.5 * g(v) / v.density))

    value = apply(32)
    return float(value), float(np.abs(value - apply(16)))


def quad(f: Callable[[float], float], a: float, b: float, abs_tol: float = ABS_TOL) -> float:
    """Adaptive quadrature of ``f`` over ``[a, b]`` (limits may be infinite)."""
    from scipy import integrate

    val, _ = integrate.quad(f, a, b, epsabs=abs_tol, epsrel=1e-11, limit=200)
    return val


def quad_split(
    f: Callable[[float], float], a: float, b: float, points: Iterable[float] = ()
) -> float:
    """Quadrature over ``[a, b]`` split at interior breakpoints.

    Breakpoints outside ``(a, b)`` are ignored; the integrand may kink (but
    not diverge) at the listed points.
    """
    cuts = sorted(p for p in points if a < p < b)
    edges = [a, *cuts, b]
    return sum(quad(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
