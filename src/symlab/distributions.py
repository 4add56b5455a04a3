"""Symmetric null models and families of local asymmetric alternatives.

The nulls are the standard normal, the unit-scale logistic
(``F(x) = 1/(1+exp(-x))``) and the standard Cauchy.  Each exposes analytic
density, density derivative, CDF, quantile, (partial) moments and an
inverse-CDF sampler.  The alternative families perturb a null ``f`` into an
asymmetric density ``g(x; theta)`` that is symmetric iff ``theta == 0``:

* two-piece scaling (Fernandez/Steel style): the negative axis is stretched
  by ``1 + theta`` and the positive axis compressed by the same factor;
* contamination: mixture ``(1-theta) f(x) + theta f(x-1)``.

Each family carries the analytic score ``score(x) = d g(x; theta)/d theta``
at ``theta = 0`` and its antiderivative ``score_cumulative``; these drive the
local slope computations elsewhere in the package.

All model objects are immutable and their methods are pure, so they are safe
to share across threads.  Samplers take an explicit seed and are
deterministic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

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


def _as_float(x):
    """Return a float for scalar input, an ndarray otherwise."""
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _libm(f, *args):
    """``f`` elementwise, so an array gives the bits of a loop of float calls.

    numpy's vector ``pow`` and ``log1p`` round differently from the C library.
    """
    return _as_float(np.frompyfunc(f, len(args), 1)(*args))


class SymmetricNull:
    """A symmetric absolutely continuous model centered at zero; stateless, so equal by class."""

    name: str = ""

    def __eq__(self, other) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    # -- functional accessors -------------------------------------------
    def density(self, x):
        raise NotImplementedError

    def density_derivative(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        """Inverse CDF; ``u`` must lie in the open interval (0, 1)."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
            raise ValueError("quantile argument must lie in (0, 1)")
        return self._quantile(u_arr if u_arr.ndim else float(u_arr))

    def _quantile(self, u):
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
        """``Integral_a^b x f(x) dx`` (closed form, finite limits; arrays elementwise)."""
        return self._first_moment_primitive(b) - self._first_moment_primitive(a)

    def _first_moment_primitive(self, x):
        raise NotImplementedError

    def partial_second_moment(self, b: float) -> float:
        """``Integral_0^b x^2 f(x) dx`` for finite ``b >= 0``."""
        raise NotImplementedError

    # -- sampling ---------------------------------------------------------
    def sample(self, n: int, seed: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """``n`` i.i.d. draws by inverse CDF; deterministic given ``seed``."""
        if n < 1:
            raise ValueError("sample size must be at least 1")
        if rng is None:
            rng = stream(seed, 0)
        u = rng.random(n)
        np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
        return np.asarray(self._quantile(u), dtype=float)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Normal(SymmetricNull):
    """Standard normal model."""

    name = "normal"

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(np.exp(-0.5 * x * x) / _SQRT_2PI)

    def density_derivative(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(-x * np.exp(-0.5 * x * x) / _SQRT_2PI)

    def cdf(self, x):
        return _as_float(special.ndtr(np.asarray(x, dtype=float)))

    def _quantile(self, u):
        return _as_float(special.ndtri(u))

    def has_moment(self, k: int) -> bool:
        return True

    def _even_moment(self, k: int) -> float:
        # (k-1)!! for the standard normal
        return float(np.prod(np.arange(k - 1, 0, -2))) if k > 0 else 1.0

    def _abs_mean(self) -> float:
        return math.sqrt(2.0 / math.pi)

    def _first_moment_primitive(self, x):
        return -self.density(x)

    def partial_second_moment(self, b: float) -> float:
        return float(special.ndtr(b) - 0.5 - b * self.density(b))


class Logistic(SymmetricNull):
    """Unit-scale logistic model, ``F(x) = 1/(1+exp(-x))``."""

    name = "logistic"

    def density(self, x):
        F = special.expit(np.asarray(x, dtype=float))
        return _as_float(F * (1.0 - F))

    def density_derivative(self, x):
        F = special.expit(np.asarray(x, dtype=float))
        return _as_float(F * (1.0 - F) * (1.0 - 2.0 * F))

    def cdf(self, x):
        return _as_float(special.expit(np.asarray(x, dtype=float)))

    def _quantile(self, u):
        return _as_float(special.logit(u))

    def has_moment(self, k: int) -> bool:
        return True

    def _even_moment(self, k: int) -> float:
        # (2^k - 2) |B_k| pi^k for even k
        values = {
            0: 1.0,
            2: math.pi**2 / 3.0,
            4: 7.0 * math.pi**4 / 15.0,
            6: 31.0 * math.pi**6 / 21.0,
        }
        if k not in values:
            raise NotImplementedError(f"logistic central moment of order {k} not tabulated")
        return values[k]

    def _abs_mean(self) -> float:
        return 2.0 * math.log(2.0)

    def _first_moment_primitive(self, x):
        # d/dx [x F(x) - log(1+e^x)] = x f(x)
        x = np.asarray(x, dtype=float)
        return _as_float(x * special.expit(x) - np.logaddexp(0.0, x))

    def partial_second_moment(self, b: float) -> float:
        # x^2 F - 2 [x log(1+e^x) + Li2(-e^x)] primitive, via the dilogarithm
        b = float(b)
        return self._second_moment_primitive(b) - self._second_moment_primitive(0.0)

    @staticmethod
    def _second_moment_primitive(x: float) -> float:
        # primitive of x^2 f(x): x^2 F(x) - 2 x log(1+e^x) - 2 Li2(-e^x)
        # scipy's spence(z) = Li2(1 - z), so Li2(-e^x) = spence(1 + e^x)
        li2 = float(special.spence(1.0 + math.exp(min(x, 700.0))))
        return (
            x * x * float(special.expit(x))
            - 2.0 * x * float(np.logaddexp(0.0, x))
            - 2.0 * li2
        )


class Cauchy(SymmetricNull):
    """Standard Cauchy model (no finite absolute moments)."""

    name = "cauchy"

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(1.0 / (math.pi * (1.0 + x * x)))

    def density_derivative(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(-2.0 * x / (math.pi * (1.0 + x * x) ** 2))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(0.5 + np.arctan(x) / math.pi)

    def _quantile(self, u):
        return _as_float(np.tan(math.pi * (np.asarray(u, dtype=float) - 0.5)))

    def has_moment(self, k: int) -> bool:
        return k < 1

    def _first_moment_primitive(self, x):
        return _libm(lambda v: math.log1p(v**2) / (2.0 * math.pi), x)

    def partial_second_moment(self, b: float) -> float:
        b = float(b)
        return (b - math.atan(b)) / math.pi


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

    def score_cumulative(self, x):
        """Antiderivative of the score, vanishing at both infinities."""
        raise NotImplementedError

    def sample(
        self, theta: float, n: int, seed: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
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
        if theta <= -1.0:
            raise ValueError("two-piece skew parameter must exceed -1")
        return theta

    def density(self, x, theta: float):
        theta = self._check_theta(theta)
        gamma = 1.0 + theta
        c = 2.0 / (gamma + 1.0 / gamma)
        x = np.asarray(x, dtype=float)
        neg = self.base.density(x / gamma)
        pos = self.base.density(gamma * x)
        return _as_float(c * np.where(x < 0.0, neg, pos))

    def cdf(self, x, theta: float):
        theta = self._check_theta(theta)
        gamma = 1.0 + theta
        mass_neg = gamma * gamma / (1.0 + gamma * gamma)
        x = np.asarray(x, dtype=float)
        neg = 2.0 * mass_neg * np.asarray(self.base.cdf(x / gamma))
        pos = mass_neg + (2.0 / (1.0 + gamma * gamma)) * (
            np.asarray(self.base.cdf(gamma * x)) - 0.5
        )
        return _as_float(np.where(x < 0.0, neg, pos))

    def score(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(np.abs(x) * np.asarray(self.base.density_derivative(x)))

    def score_cumulative(self, x):
        x = np.asarray(x, dtype=float)
        F = np.asarray(self.base.cdf(x))
        xf = x * np.asarray(self.base.density(x))
        return _as_float(np.where(x <= 0.0, F - xf, 1.0 - F + xf))

    def sample(
        self, theta: float, n: int, seed: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        theta = self._check_theta(theta)
        if n < 1:
            raise ValueError("sample size must be at least 1")
        gamma = 1.0 + theta
        mass_neg = gamma * gamma / (1.0 + gamma * gamma)
        if rng is None:
            rng = stream(seed, 0)
        side = rng.random(n)
        u = rng.random(n)
        np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
        half = np.asarray(self.base.quantile(0.5 + 0.5 * u), dtype=float)
        return np.where(side < mass_neg, -gamma * half, half / gamma)


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

    def score_cumulative(self, x):
        x = np.asarray(x, dtype=float)
        return _as_float(np.asarray(self.base.cdf(x - 1.0)) - np.asarray(self.base.cdf(x)))

    def sample(
        self, theta: float, n: int, seed: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        theta = self._check_theta(theta)
        if n < 1:
            raise ValueError("sample size must be at least 1")
        if rng is None:
            rng = stream(seed, 0)
        shifted = rng.random(n) < theta
        u = rng.random(n)
        np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
        draws = np.asarray(self.base.quantile(u), dtype=float)
        draws[shifted] += 1.0
        return draws


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
