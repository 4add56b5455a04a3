"""Quadrature: fixed rules for the asymptotic layer, adaptive ones for the references.

Every integral behind a variance, slope or index reads one table of panel
edges, :data:`_EDGES`, with the recorded 32-point Gauss-Legendre rule
(:data:`_LEGENDRE`) on each panel and its distance to the 16-point rule as the
panel's error estimate: :func:`graded` on ``[0, q]``, each ``q`` from its own
limit alone, and :func:`half_line` on ``[0, inf)`` mapped onto the panels in
``[0, 1]``, reading each model at its nodes once per process.  The profile
integrals that need no model, ``Int phi^2`` and the tail ``Int_{1-a}^1 phi``,
are :func:`graded` in ``t = 1 - u``, their estimates in ``quad_err_max`` too.
:func:`quad` and :func:`quad_split` wrap ``scipy.integrate.quad``, imported on
first call, for the independent references only: the oracles, ``validate``
and the population trimmed mean.
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
    16: """
        0x1.852bd6676a9f9p-4 0x1.205cae642337cp-2 0x1.d50259a43a772p-2 0x1.3c5a466d5e8b8p-1
        0x1.82c45dda4726bp-1 0x1.bb3403514e483p-1 0x1.e39f56616f9b0p-1 0x1.fa92c264d787ep-1
        0x1.83feae80e4e01p-3 0x1.75f8c77e0c011p-3 0x1.5a6ebbb5a7600p-3 0x1.325f61bca3cbep-3
        0x1.fe7af2bad3878p-4 0x1.85c4ee79cc24bp-4 0x1.fdfb1a2c1261ep-5 0x1.bcddab4b7c228p-6
    """,
}


@cache
def _gauss01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[0, 1]``."""
    x, w = np.array([float.fromhex(v) for v in _LEGENDRE[nodes].split()]).reshape(2, nodes // 2)
    x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    return 0.5 * (x + 1.0), 0.5 * w


#: the panel edges of every fixed rule: 0, then ``2^j`` for ``j = -50 .. 52``, past the largest
#: Cauchy quantile (about 2.9e15); a null rescaled by a power of 2 moves its panels by whole edges
_EDGES = np.concatenate([[0.0], np.ldexp(1.0, np.arange(-50, 53))])
#: the widths of :func:`half_line`'s panels, those of :data:`_EDGES` on ``[0, 1]``
_UNIT = np.diff(_EDGES[_EDGES <= 1.0])


def _nodes(lo, width) -> np.ndarray:
    """The 32-point rule's nodes, then the 16-point rule's, on each panel ``[lo, lo + width]``."""
    return lo[:, None] + width[:, None] * np.concatenate([_gauss01(32)[0], _gauss01(16)[0]])


def _panels(y, width) -> tuple[np.ndarray, np.ndarray]:
    """Each panel's 32-point value from ``y`` on its :func:`_nodes`, and the distance to its 16-point one."""
    value = width * np.sum(_gauss01(32)[1] * y[..., :32], axis=-1)
    return value, np.abs(value - width * np.sum(_gauss01(16)[1] * y[..., 32:], axis=-1))


def graded(g: Callable, q):
    """``Integral_0^q g(x) dx`` for each of the limits ``q`` (a 1-D array), and its error estimate.

    The whole :data:`_EDGES` panels below ``q``, summed in order, then the
    partial panel from the last edge to ``q``, so each ``q`` gives the same
    bits on any grid.  ``g`` maps an array of nodes to the integrand there,
    with leading axes of its own if it likes (one per integrand).
    """
    k = np.searchsorted(_EDGES, q, side="right") - 1  # the whole panels below q; all of them for NaN
    whole = k.max(initial=0)
    width = np.concatenate([np.diff(_EDGES[: whole + 1]), q - _EDGES[k]])
    parts = _panels(g(_nodes(np.concatenate([_EDGES[:whole], _EDGES[k]]), width)), width)
    return tuple(np.cumsum(np.insert(part[..., :whole], 0, 0.0, axis=-1), axis=-1)[..., k] + part[..., whole:]
                 for part in parts)


@cache
def _half_line_nodes(model) -> SimpleNamespace:
    """:func:`half_line`'s nodes ``x = -Q(s/2)`` and the null's ``cdf``, ``density`` and
    ``density_derivative`` there; an alternative family adds ``odd_score``, ``h(x) - h(-x)``."""
    null = getattr(model, "base", model)
    if model is not null:
        v = _half_line_nodes(null)
        return SimpleNamespace(**vars(v), odd_score=model.odd_score(v.x))
    x = -null.quantile(0.5 * _nodes(_EDGES[: _UNIT.size], _UNIT))
    return SimpleNamespace(x=x, cdf=null.cdf(x), density=null.density(x),
                           density_derivative=null.density_derivative(x))


def half_line(g: Callable, model) -> tuple[float, float]:
    """``Integral_0^inf g dx`` and its error estimate, for ``g`` that decays like the null.

    ``g`` maps the :func:`_half_line_nodes` of ``model`` (a null, or an
    alternative family over it) to the integrand there.  With ``x =
    -Q(s/2)``, ``Q`` the null quantile, the integral is ``1/2 Integral_0^1
    g(x)/f(x) ds``, summed in order over the panels of :data:`_UNIT`, which
    resolve the tail at ``s -> 0``.
    """
    v = _half_line_nodes(model)
    return tuple(float(np.cumsum(part)[-1]) for part in _panels(0.5 * g(v) / v.density, _UNIT))


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
