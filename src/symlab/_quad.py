"""Quadrature: fixed rules for the asymptotic layer, adaptive ones for the references.

Every integral behind a variance, slope or index uses the fixed composite
Gauss-Legendre rules :func:`graded` and :func:`half_line` (the null's partial
second moment in the trimmed-mean term included), made of the recorded rules
:data:`_LEGENDRE`, each level from its own limit alone, with the distance to
the rule with half the nodes as the error estimate.  :func:`half_line` reads
each model at its nodes once per process (:func:`_half_line_nodes`).
:func:`quad` and :func:`quad_split` wrap ``scipy.integrate.quad``, imported on
first call, for the independent references only: the oracles, ``validate`` and
the population trimmed mean.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cache
from types import SimpleNamespace

import numpy as np

__all__ = ["quad", "quad_split", "graded", "half_line"]

ABS_TOL = 1e-10


#: numpy ``leggauss(n)``'s positive nodes, ascending, then their weights, as hex floats;
#: the rule is symmetric bit for bit, so these give it whole and no process builds it
_LEGENDRE = {
    32: """
        0x1.8bbc8488cc49ap-5 0x1.27e0ea717f237p-3 0x1.ea0f7e19c094bp-3 0x1.53d55ce57bdf6p-2
        0x1.af76b57c6f8f1p-2 0x1.038862866b29dp-1 0x1.2ce9146962ca4p-1 0x1.537a89c487f8ap-1
        0x1.76e0931d693bap-1 0x1.96c69481c4bc5p-1 0x1.b2e04fd686a13p-1 0x1.caea9b4574cb9p-1
        0x1.deac0259f7f42p-1 0x1.edf5518053baap-1 0x1.f8a212714bcdcp-1 0x1.fe995e70409b6p-1
        0x1.8b6d9eaec77a3p-4 0x1.87bc776f8c6ccp-4 0x1.8062fc0f6fef5p-4 0x1.7572bdb3f6e49p-4
        0x1.6705e18e13ecfp-4 0x1.553ee25ebebc3p-4 0x1.40483e126fd0ep-4 0x1.2854103b35e00p-4
        0x1.0d9b9a62cac04p-4 0x1.e0bd76c924984p-5 0x1.a1c6ae961fbeep-5 0x1.5ee963a3354abp-5
        0x1.18c5800a35609p-5 0x1.a0060a8531ff0p-6 0x1.0aa3c248696dep-6 0x1.cbf8bc743ce34p-8
    """,
    24: """
        0x1.0660853eda2e8p-4 0x1.8769542b94f8dp-3 0x1.429a8c588e910p-2 0x1.bc345d81e24b5p-2
        0x1.17417bac4d72bp-1 0x1.4bd2ee5fa1086p-1 0x1.7af18edb9ddd6p-1 0x1.a3d74ce0d3700p-1
        0x1.c5d841864d0f5p-1 0x1.e06585a70aa4dp-1 0x1.f30f9f0cbf876p-1 0x1.fd892de691982p-1
        0x1.060475e763731p-3 0x1.01b7117cf8bd6p-3 0x1.f25cbce1d1fefp-4 0x1.d91c78acb1b27p-4
        0x1.b8177ba4a68d7p-4 0x1.8fd8936444b19p-4 0x1.6108ef5044635p-4 0x1.2c6d5c2eff05ap-4
        0x1.e5c6255d25e9dp-5 0x1.6ab884f57c940p-5 0x1.d375514486effp-6 0x1.9465bd311255dp-7
    """,
    16: """
        0x1.852bd6676a9f9p-4 0x1.205cae642337cp-2 0x1.d50259a43a772p-2 0x1.3c5a466d5e8b8p-1
        0x1.82c45dda4726bp-1 0x1.bb3403514e483p-1 0x1.e39f56616f9b0p-1 0x1.fa92c264d787ep-1
        0x1.83feae80e4e01p-3 0x1.75f8c77e0c011p-3 0x1.5a6ebbb5a7600p-3 0x1.325f61bca3cbep-3
        0x1.fe7af2bad3878p-4 0x1.85c4ee79cc24bp-4 0x1.fdfb1a2c1261ep-5 0x1.bcddab4b7c228p-6
    """,
    12: """
        0x1.007a5f8f630e4p-3 0x1.78a8d20a8b19dp-2 0x1.2cb4f05c077f9p-1 0x1.8a30aeed88f36p-1
        0x1.cee874ffb88b3p-1 0x1.f68f1d8e42e81p-1 0x1.fe40ce6d4f022p-3 0x1.de3155c256aaep-3
        0x1.a0163e6b1ab6bp-3 0x1.47d7258f22d96p-3 0x1.b60602bce61afp-4 0x1.8275d9dea6d53p-5
    """,
}


@cache
def _gauss01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[0, 1]``."""
    x, w = np.array([float.fromhex(v) for v in _LEGENDRE[nodes].split()]).reshape(2, nodes // 2)
    x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
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


def graded(g: Callable, q):
    """``Integral_0^q g(x) dx`` for each ``q`` by the 32-point :func:`_graded_rule`, and its error estimate."""
    q = np.asarray(q, dtype=float)[..., None]

    def apply(n):
        s, w = _graded_rule(n)
        return q[..., 0] * np.sum(w * g(q * s), axis=-1)

    value = apply(32)
    return value, np.abs(value - apply(16))


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
