"""Symmetric null models and families of local asymmetric alternatives.

The nulls are the standard normal, the unit-scale logistic
(``F(x) = 1/(1+exp(-x))``) and the standard Cauchy.  Each exposes analytic
density, density derivative, CDF, quantile, (partial) moments and an
inverse-CDF sampler.  The partial second moment ``Integral_0^b x^2 f`` sums
the fixed panels of :func:`symlab._quad.graded` below ``b``, with their error
estimates, up to a cut past which it is its limit (the Cauchy's closed form,
which does not cancel there).  The alternative families perturb a null ``f`` into an asymmetric
density ``g(x; theta)`` that is symmetric iff ``theta == 0``:

* two-piece scaling (Fernandez/Steel style): the negative axis is stretched
  by ``1 + theta`` and the positive axis compressed by the same factor;
* contamination: mixture ``(1-theta) f(x) + theta f(x-1)``.

Each family carries the analytic score ``score(x) = d g(x; theta)/d theta``
at ``theta = 0`` and its antiderivative ``score_cumulative``; these drive the
local slope computations elsewhere in the package.

All model objects are immutable and their methods are pure, so they are safe
to share across threads.  Samplers take an explicit seed and are
deterministic; given ``out=``, they draw into the caller's array in place.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import special

from ._quad import graded
from ._rng import stream
from .errors import NotApplicableError

__all__ = [
    "SymmetricNull",
    "Normal",
    "Logistic",
    "Cauchy",
    "AlternativeFamily",
    "FernandezSteel",
    "Contamination",
    "get_null",
    "get_alternative",
    "NULL_NAMES",
    "ALTERNATIVE_NAMES",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX = float(np.finfo(float).max)


def _mass(square: float) -> float:
    """``square / (1 + square)``, or its limit 1 where ``square`` overflowed (inf/inf is NaN)."""
    return square / (1.0 + square) if square < math.inf else 1.0


def _as_float(x):
    """Return a float for scalar input, an ndarray otherwise."""
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _uniforms(n: int, seed: int, rng: np.random.Generator | None, out, count: int) -> list:
    """``count`` rows of ``n`` uniforms from ``rng`` (``stream(seed, 0)`` if None): the first ``count - 1``
    fresh, the last in ``out`` (fresh if None), clipped into ``[2^-53, 1 - 2^-53]`` for an inverse CDF."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    out = np.empty(n) if out is None else out
    if not isinstance(out, np.ndarray) or out.dtype != np.float64:
        raise TypeError(f"out must be a float64 array, not {getattr(out, 'dtype', type(out))}")
    if out.shape != (n,) or not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous array of shape ({n},)")
    rng = stream(seed, 0) if rng is None else rng
    rows = [rng.random(n, out=np.empty(n)) for _ in range(count - 1)] + [rng.random(n, out=out)]
    np.clip(out, 2.0**-53, 1.0 - 2.0**-53, out=out)
    return rows


class SymmetricNull:
    """A symmetric absolutely continuous model centered at zero; stateless, so equal by class."""

    name: str = ""
    #: largest ``|x|`` at which the density's arithmetic stays finite
    _x_max: float = _MAX

    def __eq__(self, other) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    # -- functional accessors -------------------------------------------
    def density(self, x):
        raise NotImplementedError

    def density_derivative(self, x):
        raise NotImplementedError

    def _x_density(self, x):
        """``x f(x)`` for ``x >= 0``, and its limit 0 at ``inf`` (where ``inf * 0`` is NaN)."""
        return np.minimum(x, _MAX) * np.asarray(self.density(x))

    def _x_density_derivative(self, x):
        """``|x| f'(x)``, and its limit 0 at ``+-inf`` (where ``inf * 0`` is NaN)."""
        return np.minimum(np.abs(x), _MAX) * np.asarray(self.density_derivative(x))

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        """Inverse CDF; ``u`` must lie in the open interval (0, 1)."""
        u_arr = np.asarray(u, dtype=float)
        if not ((u_arr > 0.0) & (u_arr < 1.0)).all():  # NaN fails too
            raise ValueError("quantile argument must lie in (0, 1)")
        with np.errstate(over="ignore"):  # a quantile past max float is its exact limit, +-inf
            return self._quantile(u_arr if u_arr.ndim else float(u_arr))

    def _quantile(self, u, out=None):
        """The inverse CDF without the domain check; with ``out``, into it (``out`` may be ``u``)."""
        raise NotImplementedError

    # -- moments ---------------------------------------------------------
    def has_moment(self, k: int) -> bool:
        """Whether ``E|X|^k`` is finite."""
        raise NotImplementedError

    def moment(self, k: int) -> float:
        """Central moment of even order ``k`` (odd orders vanish)."""
        if not self.has_moment(k):
            raise NotApplicableError(f"{self.name} null has no finite moment of order {k}")
        if k % 2 == 1:
            return 0.0
        return self._even_moment(k)

    def _even_moment(self, k: int) -> float:
        raise NotImplementedError

    def abs_mean(self) -> float:
        """``E|X|``."""
        if not self.has_moment(1):
            raise NotApplicableError(f"{self.name} null has no finite first absolute moment")
        return self._abs_mean()

    def _abs_mean(self) -> float:
        raise NotImplementedError

    def partial_first_moment(self, a, b):
        """``Integral_a^b x f(x) dx`` (closed form, finite limits; arrays elementwise); NaN is refused."""
        if np.isnan(a).any() or np.isnan(b).any():
            raise ValueError("integration limits must not be NaN")
        return self._first_moment_primitive(b) - self._first_moment_primitive(a)

    def _first_moment_primitive(self, x):
        """The primitive of ``x f(x)`` that vanishes at 0, so ``(0, b)`` cancels nothing."""
        raise NotImplementedError

    #: ``|b|`` from which :meth:`partial_second_moment` is :meth:`_far_moment`
    _moment_cut: float

    def partial_second_moment(self, b):
        """``Integral_0^b x^2 f(x) dx``, odd in ``b`` (arrays elementwise); NaN is refused."""
        if np.isnan(b).any():
            raise ValueError("integration limits must not be NaN")
        return _as_float(self._second_moment(b)[0])

    def _second_moment(self, b):
        """:meth:`partial_second_moment` and its error estimate, 0 where the rule did not run.

        :func:`~symlab._quad.graded` integrates ``x^2 f`` over ``[0, |b|]`` below the cut
        and :meth:`_far_moment` gives the value from it on.
        """
        b = np.asarray(b, dtype=float)
        size = np.abs(b)
        near = ~(size >= self._moment_cut)  # NaN included
        value, err = np.array(self._far_moment(size)), np.zeros(b.shape)
        value[near], err[near] = graded(lambda x: x * x * self.density(x), size[near])
        return np.copysign(value, b), err

    def _far_moment(self, b):
        """The limit ``sigma^2/2``, which the moment reaches in float64 at the cut."""
        return np.full(b.shape, self.moment(2) / 2.0)

    def _unit_mass(self, x):
        """``F(x) - F(x - 1)``, the mass of ``(x - 1, x]``, from the lower tail alone: by symmetry it
        is ``F(1 - x) - F(-x)`` (``1 - x`` is exact) where ``F(x)`` would near 1 and cancel."""
        x = np.asarray(x, dtype=float)
        y = np.where(x >= 0.5, 1.0 - x, x)
        return np.asarray(self.cdf(y)) - np.asarray(self.cdf(y - 1.0))

    def _unit_difference(self, x):
        """``f(x - 1) - f(x + 1)``, the odd part of the contamination score: its ``f(x)`` terms
        cancel exactly, so they are left out."""
        x = np.asarray(x, dtype=float)
        return np.asarray(self.density(x - 1.0)) - np.asarray(self.density(x + 1.0))

    # -- sampling ---------------------------------------------------------
    def sample(self, n: int, seed: int, rng: np.random.Generator | None = None, *, out=None):
        """``n`` i.i.d. draws by inverse CDF from ``rng`` (``stream(seed, 0)`` if None) into ``out``,
        returned: a writeable C-contiguous float64 array of ``n`` values, fresh if None.  The inverse
        CDF runs on the uniforms in ``out``, so the normal and the logistic allocate nothing else of
        its size, and the Cauchy one temporary."""
        (u,) = _uniforms(n, seed, rng, out, 1)
        return self._quantile(u, out=u)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Normal(SymmetricNull):
    """Standard normal model."""

    name = "normal"
    _x_max = math.sqrt(2.0) * math.sqrt(np.finfo(float).max)  # -0.5 x x

    def density(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # past _x_max, -0.5 x x is -inf and exp its limit 0
            return _as_float(np.exp(-0.5 * x * x) / _SQRT_2PI)

    def density_derivative(self, x):
        x = np.asarray(x, dtype=float)
        c = np.clip(x, -self._x_max, self._x_max)  # -0.5 x x overflows past it; exp is 0 there
        return _as_float(-c * np.exp(-0.5 * c * c) / _SQRT_2PI)  # -c, not -x: -inf * 0 is NaN

    def cdf(self, x):
        return _as_float(special.ndtr(np.asarray(x, dtype=float)))

    def _quantile(self, u, out=None):
        return _as_float(special.ndtri(u, out=out))

    def has_moment(self, k: int) -> bool:
        return True

    def _even_moment(self, k: int) -> float:
        return float(math.prod(range(k - 1, 0, -2)))  # (k-1)!!, exact before the rounding

    def _abs_mean(self) -> float:
        return math.sqrt(2.0 / math.pi)

    def _first_moment_primitive(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # past _x_max, -0.5 x x is -inf and expm1 its limit -1
            return _as_float(-np.expm1(-0.5 * x * x) / _SQRT_2PI)  # f(0) - f(x)

    _moment_cut = 40.0  # the tail past it is below 1e-340


class Logistic(SymmetricNull):
    """Unit-scale logistic model, ``F(x) = 1/(1+exp(-x))``."""

    name = "logistic"

    # F(-|x|) (1 - F(-|x|)): 1 - F(x) loses every digit in the right tail
    def density(self, x):
        F = special.expit(-np.abs(np.asarray(x, dtype=float)))
        return _as_float(F * (1.0 - F))

    def density_derivative(self, x):
        # f' = -f tanh(x/2); 1 - 2 F(x) cancels near the origin
        x = np.asarray(x, dtype=float)
        return _as_float(-np.sign(x) * (self.density(x) * np.tanh(0.5 * np.abs(x))))

    def cdf(self, x):
        return _as_float(special.expit(np.asarray(x, dtype=float)))

    def _quantile(self, u, out=None):
        return _as_float(special.logit(u, out=out))

    def has_moment(self, k: int) -> bool:
        return True

    def _even_moment(self, k: int) -> float:
        # (2^k - 2) |B_k| pi^k, with the Bernoulli numbers from sum_j C(n+1, j) B_j = 0
        bernoulli = [Fraction(1)]
        for n in range(1, k + 1):
            bernoulli.append(-sum(math.comb(n + 1, j) * bernoulli[j] for j in range(n)) / (n + 1))
        c = abs((2**k - 2) * bernoulli[k])
        return c.numerator * math.pi**k / c.denominator

    def _abs_mean(self) -> float:
        return 2.0 * math.log(2.0)

    def _first_moment_primitive(self, x):
        # x F(x) - log(1 + e^x) + log 2 is y tanh(y) - log cosh(y) for y = x/2, with
        # log cosh(y) = log1p(2 sinh(y/2)^2): no O(1) terms cancel near 0.  Past
        # |y| = 40 it is log 2 to double precision, and sinh would overflow
        y = 0.5 * np.clip(np.asarray(x, dtype=float), -80.0, 80.0)
        return _as_float(y * np.tanh(y) - np.log1p(2.0 * np.sinh(0.5 * y) ** 2))

    _moment_cut = 50.0  # the tail past it, e^-b (b^2 + 2b + 2), is below 1e-18


class Cauchy(SymmetricNull):
    """Standard Cauchy model (no finite absolute moments)."""

    name = "cauchy"
    _x_max = math.sqrt(np.finfo(float).max / math.pi)  # pi (1 + x x)
    _d_max = math.sqrt(_x_max)  # pi (1 + x x)^2, of the density derivative

    def density(self, x):
        # past _x_max, pi (1 + x x) overflows: 1/(pi x^2), divided out in turn
        x = np.asarray(x, dtype=float)
        far = np.abs(x) > self._x_max
        if far.any():
            big = np.where(far, x, 1.0)
            return _as_float(np.where(far, 1.0 / math.pi / big / big, self.density(np.where(far, 0.0, x))))
        return _as_float(1.0 / (math.pi * (1.0 + x * x)))

    def density_derivative(self, x):
        # past _d_max, 1 + x x is x x: -2/(pi x^3), divided out in turn so nothing overflows
        x = np.asarray(x, dtype=float)
        far = np.abs(x) > self._d_max
        near = np.where(far, 0.0, x)
        value = -2.0 * near / (math.pi * (1.0 + near * near) ** 2)
        if far.any():
            big = np.where(far, x, 1.0)
            value = np.where(far, -2.0 / math.pi / big / big / big, value)
        return _as_float(value)

    def _x_density(self, x):  # past about 3.8e153 f(x) is subnormal and 1 + x x is x x: x f(x) is 1/(pi x)
        density = np.asarray(self.density(x))
        near = np.minimum(x, _MAX) * density
        return np.where(density < np.finfo(float).tiny, 1.0 / math.pi / np.maximum(x, 1.0), near)

    def _x_density_derivative(self, x):  # past about 6.6e102 f'(x) is subnormal: |x| f'(x) is -2/(pi x |x|)
        derivative, size = np.asarray(self.density_derivative(x)), np.abs(np.asarray(x, dtype=float))
        big = np.where((np.abs(derivative) < np.finfo(float).tiny) & (size > 1.0), size, 1.0)  # not f' near 0
        return np.where(big > 1.0, -2.0 / math.pi / np.copysign(big, x) / big, np.minimum(size, _MAX) * derivative)

    # 1/2 + arctan(x)/pi and tan(pi (u - 1/2)) cancel in the lower tail; arctan2(1, -x)
    # is -arctan(1/x) there, and -1/tan(pi u) is mirrored (1 - u is exact above 1/2)
    def cdf(self, x):
        return _as_float(np.arctan2(1.0, -np.asarray(x, dtype=float)) / math.pi)

    def _quantile(self, u, out=None):
        m = np.subtract(1.0, u)  # the one temporary: out may be u, which the sign reads after
        into = None if out is None else m
        m = np.tan(np.multiply(math.pi, np.minimum(u, m, out=into), out=into), out=into)
        return _as_float(np.divide(np.sign(np.subtract(u, 0.5, out=out), out=out), m, out=out))

    def has_moment(self, k: int) -> bool:
        return k < 1

    def _first_moment_primitive(self, x):
        # past _x_max, x x overflows and log1p(1/x^2) is below an ulp of log|x|
        x = np.abs(np.asarray(x, dtype=float))
        far = x > self._x_max
        near = np.log1p(np.square(np.where(far, 0.0, x))) / (2.0 * math.pi)
        return _as_float(np.where(far, np.log(np.where(far, x, 1.0)) / math.pi, near))

    _moment_cut = 1.0  # below it the primitive's b - arctan(b) cancels

    def _far_moment(self, b):
        return (b - np.arctan(b)) / math.pi

    def _unit_mass(self, x):
        # arctan(x) - arctan(x - 1) cancels in both tails; it is arctan(1 / (1 + x (x - 1))), and
        # 1 + x (x - 1) >= 3/4 (past about 1.3e154 it is inf, and the mass its limit 0)
        x = np.asarray(x, dtype=float)
        return np.arctan(1.0 / (x * (x - 1.0) + 1.0)) / math.pi

    def _unit_difference(self, x):
        # f(x - 1) - f(x + 1) cancels about log10(x) digits; it is 4x / (pi (1 + (x-1)^2) (1 + (x+1)^2)),
        # divided in turn so that no product overflows before the value underflows, and odd in x
        x = np.asarray(x, dtype=float)
        a = np.abs(x)
        return 4.0 * x / (math.pi * (1.0 + (a - 1.0) ** 2)) / (1.0 + (a + 1.0) ** 2)


class AlternativeFamily:
    """A parametric family ``g(x; theta)`` that is symmetric iff ``theta = 0``."""

    kind: str = ""

    def __init__(self, base: SymmetricNull):
        self.base = base

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.base == other.base

    def __hash__(self) -> int:
        return hash((type(self), self.base))

    def _check_theta(self, theta: float) -> float:
        raise NotImplementedError

    def density(self, x, theta: float):
        raise NotImplementedError

    def cdf(self, x, theta: float):
        raise NotImplementedError

    def score(self, x):
        """``d g(x; theta)/d theta`` at ``theta = 0`` (analytic form)."""
        raise NotImplementedError

    def odd_score(self, x):
        """``h(x) - h(-x)`` of the score ``h``, which the estimand derivative and slopes integrate."""
        x = np.asarray(x, dtype=float)
        return _as_float(np.asarray(self.score(x)) - np.asarray(self.score(-x)))

    def score_cumulative(self, x):
        """Antiderivative of the score, vanishing at both infinities."""
        raise NotImplementedError

    def sample(
        self, theta: float, n: int, seed: int, rng: np.random.Generator | None = None, *, out=None
    ) -> np.ndarray:
        """``n`` draws at ``theta`` as in :meth:`SymmetricNull.sample`, holding one more temporary of
        their size for contamination (the picks) and two for the two-piece family (the side and the flip)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(base={self.base.name})"


class FernandezSteel(AlternativeFamily):
    """Two-piece scaling of the base density, skewed by ``theta > -1``.

    For ``gamma = 1 + theta`` the density is
    ``c(gamma) * (f(x/gamma) 1{x<0} + f(gamma x) 1{x>=0})`` with
    ``c = 2/(gamma + 1/gamma)``; the negative piece carries probability mass
    ``gamma^2 / (1 + gamma^2)``.
    """

    kind = "fernandez_steel"

    def _check_theta(self, theta: float) -> float:
        theta = float(theta)
        if not -1.0 < theta < math.inf:  # NaN fails too
            raise ValueError("two-piece skew parameter must be finite and exceed -1")
        return theta

    def density(self, x, theta: float):
        theta = self._check_theta(theta)
        gamma = 1.0 + theta
        c = 2.0 / (gamma + 1.0 / gamma)
        x = np.asarray(x, dtype=float)
        return _as_float(c * np.asarray(self.base.density(self._piece_argument(x, gamma))))

    def cdf(self, x, theta: float):
        theta = self._check_theta(theta)
        gamma = 1.0 + theta
        mass_neg = _mass(gamma * gamma)
        x = np.asarray(x, dtype=float)
        base = np.asarray(self.base.cdf(self._piece_argument(x, gamma)))
        pos = mass_neg + (2.0 / (1.0 + gamma * gamma)) * (base - 0.5)
        return _as_float(np.where(x < 0.0, 2.0 * mass_neg * base, pos))

    @staticmethod
    def _piece_argument(x: np.ndarray, gamma: float) -> np.ndarray:
        """The base argument of ``x``'s own piece alone, ``+-inf`` (its limit) past float64."""
        with np.errstate(over="ignore"):
            return np.where(x < 0.0, x / gamma, gamma * x)

    def score(self, x):
        return _as_float(self.base._x_density_derivative(x))

    def score_cumulative(self, x):
        # F(x) - x f(x) for x <= 0; the score is odd, so this is even and 1 - F never cancels
        size = np.abs(np.asarray(x, dtype=float))
        return _as_float(self.base.cdf(-size) + self.base._x_density(size))

    def sample(
        self, theta: float, n: int, seed: int, rng: np.random.Generator | None = None, *, out=None
    ) -> np.ndarray:
        theta = self._check_theta(theta)
        side, half = _uniforms(n, seed, rng, out, 2)
        gamma = 1.0 + theta
        # every bit set (the sign bit shifted through) where side < mass_neg: the draws mirrored
        negative = np.subtract(side, _mass(gamma * gamma), out=side).view(np.int64)
        negative >>= 63  # onto x < 0
        # 0.5 + 0.5 u rounds to 1 at the top uniform 1 - 2^-53 alone; the cap moves no other draw
        np.minimum(np.add(np.multiply(half, 0.5, out=half), 0.5, out=half), 1.0 - 2.0**-53, out=half)
        self.base._quantile(half, out=half)
        flip = np.multiply(half, -gamma).view(np.int64)  # take the mirrored draws bit
        bits = np.divide(half, gamma, out=half).view(np.int64)  # for bit, with no branch
        bits ^= np.bitwise_and(np.bitwise_xor(flip, bits, out=flip), negative, out=flip)
        return half


class Contamination(AlternativeFamily):
    """Mixture ``(1-theta) f(x) + theta f(x-1)`` with ``theta`` in [0, 1]."""

    kind = "contamination"

    def _check_theta(self, theta: float) -> float:
        theta = float(theta)
        if not 0.0 <= theta <= 1.0:
            raise ValueError("contamination weight must lie in [0, 1]")
        return theta

    def density(self, x, theta: float):
        theta = self._check_theta(theta)
        x = np.asarray(x, dtype=float)
        return _as_float(
            (1.0 - theta) * np.asarray(self.base.density(x))
            + theta * np.asarray(self.base.density(x - 1.0))
        )

    def cdf(self, x, theta: float):
        theta = self._check_theta(theta)
        x = np.asarray(x, dtype=float)
        return _as_float(
            (1.0 - theta) * np.asarray(self.base.cdf(x))
            + theta * np.asarray(self.base.cdf(x - 1.0))
        )

    def score(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(
            np.asarray(self.base.density(x - 1.0)) - np.asarray(self.base.density(x))
        )

    def odd_score(self, x):
        return _as_float(self.base._unit_difference(x))

    def score_cumulative(self, x):
        # F(x - 1) - F(x) loses every digit where F nears 1 (and the Cauchy's tails cancel too)
        return _as_float(-self.base._unit_mass(x))

    def sample(
        self, theta: float, n: int, seed: int, rng: np.random.Generator | None = None, *, out=None
    ) -> np.ndarray:
        theta = self._check_theta(theta)
        picks, draws = _uniforms(n, seed, rng, out, 2)
        shifted = np.less(picks, theta, out=picks)  # 1.0 or 0.0
        self.base._quantile(draws, out=draws)
        return np.add(draws, shifted, out=draws)  # + 0.0 keeps a draw: no quantile is -0.0


_NULLS = {"normal": Normal, "logistic": Logistic, "cauchy": Cauchy}
_ALTERNATIVES = {
    "fs": FernandezSteel,
    "fernandez_steel": FernandezSteel,
    "contam": Contamination,
    "contamination": Contamination,
}

NULL_NAMES = tuple(_NULLS)
ALTERNATIVE_NAMES = ("fs", "contam")


def get_null(name: str) -> SymmetricNull:
    """Look up a null model by name ('normal', 'logistic', 'cauchy')."""
    try:
        return _NULLS[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown null model {name!r}; choose from {sorted(_NULLS)}") from None


def get_alternative(kind: str, base: SymmetricNull | str) -> AlternativeFamily:
    """Look up an alternative family ('fs'/'contam') over a base null."""
    if isinstance(base, str):
        base = get_null(base)
    try:
        return _ALTERNATIVES[kind.lower()](base)
    except KeyError:
        raise ValueError(
            f"unknown alternative family {kind!r}; choose from {sorted(set(_ALTERNATIVES))}"
        ) from None
