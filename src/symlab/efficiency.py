"""Local Bahadur efficiency indices over trimming grids.

The local index of a test is the quadratic coefficient of its approximate
slope: inverse limiting variance times squared slope of the limit in
probability.  Integral-type statistics use the plain ratio, supremum-type
statistics the ratio of the suprema over the threshold, and the moment-based
statistics the ratio of a variance and a slope that do not depend on the
trimming level.  The module assembles index curves over trimming grids, finds
zero-efficiency trimming levels, detects equivalence classes, and locates the
trimming level below which the KS and sign tests coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asymptotics as asy
from .asymptotics import IndexCurve
from .distributions import AlternativeFamily
from .location import check_level
from .stats import INTEGRAL, StatisticSpec, parse_statistic

__all__ = [
    "bahadur_index",
    "IndexCurve",
    "index_curves",
    "default_grid",
    "ZeroEfficiencyResult",
    "zero_efficiency_alpha",
    "ks_s_equivalence_crossover",
    "EquivalenceReport",
    "equivalence_report",
    "DEFAULT_TESTS",
]

#: tests shown in the comparison study, plus the equivalence-class members
DEFAULT_TESTS = (
    "S",
    "W",
    "KS",
    "BH_I",
    "BH_K",
    "NA_I_2",
    "NA_I_3",
    "NA_I_4",
    "NA_K_2",
    "NA_K_3",
    "NA_K_4",
    "MO_I_1",
    "MO_I_2",
    "MO_K_1",
    "MO_K_2",
    "CM",
    "GAMMA",
    "MGG",
    "SQRT_B1",
)


def _resolve(test, alpha: float | None) -> StatisticSpec:
    if isinstance(test, StatisticSpec):
        return test if alpha is None else StatisticSpec(test.kind, test.k, alpha)
    return parse_statistic(str(test), alpha=0.0 if alpha is None else alpha)


def _distinct(tests) -> list[StatisticSpec]:
    """``tests`` resolved, refused with ``ValueError`` if a label repeats (one result per test)."""
    specs = [_resolve(test, None) for test in tests]
    labels = [spec.label for spec in specs]
    if repeated := sorted({label for label in labels if labels.count(label) > 1}):
        raise ValueError(f"test requested more than once: {', '.join(repeated)}")
    return specs


def bahadur_index(test, alt: AlternativeFamily, alpha: float | None = None) -> float:
    """Local Bahadur index of ``test`` against ``alt`` at trimming ``alpha``.

    The one-level :func:`index_curves`: NaN when the (variance, slope) pair
    is degenerate (the 0/0 case; the curve carries the per-point flags and
    the variance and slope behind the index).  Raises
    :class:`~symlab.errors.NotApplicableError` for combinations the theory
    excludes, e.g. moment-based tests or untrimmed centering under the
    Cauchy.
    """
    spec = _resolve(test, alpha)
    asy.applicability(spec, alt.base)
    return float(index_curves([spec], alt, [spec.alpha])[0].index[0])


def default_grid(points: int = 101) -> np.ndarray:
    """Equally spaced trimming grid on [0, 1/2], both ends included."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(0.0, 0.5, points)


def index_curves(tests, alt: AlternativeFamily, grid=None) -> list[IndexCurve]:
    """Pointwise Bahadur indices of each of ``tests`` over a trimming grid, in one pass.

    The public reader of every index: each curve carries its test's
    variances, slopes and their argmaxes over ``t``, and is the bits of the
    same test's curve computed alone (``index_curves([test], alt, grid)[0]``).
    """
    grid = default_grid() if grid is None else grid
    return asy._report_curves([_resolve(test, None) for test in tests], alt, grid)


@dataclass(frozen=True)
class ZeroEfficiencyResult:
    """Outcome of the zero-efficiency search (``alpha`` is None if not found)."""

    found: bool
    alpha: float | None = None


def zero_efficiency_alpha(test, alt: AlternativeFamily) -> ZeroEfficiencyResult:
    """Interior trimming level at which an integral-type test's index vanishes.

    Scans the slope of the limit in probability over (0, 1/2), one
    :func:`~symlab.asymptotics.slope_curve` on 64 levels, for a sign change and bisects
    to 1e-6.  The index vanishes exactly where the slope does (the
    variance is positive in the interior).  Returns a not-found
    result when the slope does not change sign; the sign test is the
    structural example, since its slope is proportional to
    ``mu'(alpha) - mu'(1/2)`` and so vanishes only at the median endpoint.
    """
    from scipy import optimize

    spec0 = _resolve(test, None)
    if spec0.family != INTEGRAL:
        raise ValueError("zero-efficiency roots are defined for integral-type tests")

    def slope_at(a: float) -> float:
        return float(asy.slope_curve(spec0, alt, [a])[0][0])

    grid = np.linspace(1e-4, 0.5 - 1e-4, 64)
    signs = np.sign(asy.slope_curve(spec0, alt, grid)[0])
    for i in range(grid.size - 1):
        if signs[i] != 0 and signs[i + 1] != 0 and signs[i] != signs[i + 1]:
            root = float(optimize.brentq(slope_at, grid[i], grid[i + 1], xtol=1e-6))
            return ZeroEfficiencyResult(True, root)
        if signs[i] == 0:
            return ZeroEfficiencyResult(True, float(grid[i]))
    return ZeroEfficiencyResult(False, None)


def _ks_is_s(curve: IndexCurve) -> np.ndarray:
    """Levels of a KS curve where both suprema over ``t`` sit at exactly 0: there KS is the sign
    test, since its family member at threshold zero is (twice) the sign statistic."""
    return (curve.var_argmax == 0.0) & (curve.slope_argmax == 0.0)


def ks_s_equivalence_crossover(alt: AlternativeFamily, grid=None) -> float:
    """Largest trimming level below which the KS and sign indices coincide.

    The grid is scanned from zero and the last trimming level before either
    supremum of KS moves off the origin (:func:`_ks_is_s`) is returned (0.0
    when it moves immediately).  The whole grid must keep
    :func:`symlab.location.check_level`'s rule, increase strictly and start at
    0 (so it has a level below 1/2, which is dropped), else ``ValueError``.
    """
    grid = check_level(np.asarray(default_grid() if grid is None else grid, dtype=float).ravel())
    if np.any(np.diff(grid) <= 0):
        raise ValueError("trimming grid must be strictly increasing")
    if not grid.size or grid[0] != 0.0:
        raise ValueError("the crossover scans its grid from level 0: its first level must be 0")
    grid = grid[grid < 0.5]
    curve = index_curves(["KS"], alt, grid)[0]
    na = curve.not_applicable
    same = np.logical_and.accumulate(_ks_is_s(curve) | na) & ~na
    return float(grid[same][-1]) if same.any() else 0.0


@dataclass(frozen=True)
class EquivalenceReport:
    """Classes of equivalent test ids at one (null, alt, alpha), and each class's index spread."""

    alpha: float
    groups: tuple[tuple[str, ...], ...]
    spread: tuple[float, ...]
    degenerate: tuple[str, ...]
    not_applicable: tuple[str, ...]


def equivalence_report(alt: AlternativeFamily, alpha: float, tests=DEFAULT_TESTS) -> EquivalenceReport:
    """Partition the applicable, non-degenerate ``tests`` into the classes of one index at ``alpha``.

    Tests are equivalent where their first projections are proportional,
    which the theory decides and no index value does: the tests of one exact
    projection shape (:func:`symlab.asymptotics._shape`), KS with S where
    :func:`_ks_is_s`, and at ``alpha = 0`` S with the mean-median tests.
    Each group (names sorted, groups by their smallest index) carries the
    largest relative spread of its indices, the budget of the numerics
    behind them.  A test named twice is refused with ``ValueError``.
    """
    return _equivalence_reports(alt, [alpha], tests)[0]


def _equivalence_reports(alt: AlternativeFamily, grid, tests=DEFAULT_TESTS) -> list[EquivalenceReport]:
    """:func:`equivalence_report` at each level of ``grid``, off one :func:`index_curves` run."""
    specs = _distinct(tests)
    curves = index_curves(specs, alt, grid)
    sign, mean_median = asy._shape(StatisticSpec("S")), asy._shape(StatisticSpec("CM"))
    reports = []
    for i, alpha in enumerate(grid):
        classes: dict[tuple, list[IndexCurve]] = {}
        for spec, curve in zip(specs, curves):
            if not (curve.not_applicable[i] or curve.degenerate[i]):
                shape = sign if spec.kind == "KS" and _ks_is_s(curve)[i] else asy._shape(spec)
                classes.setdefault(mean_median if shape == sign and alpha == 0.0 else shape, []).append(curve)
        groups = sorted(((sorted(c.test for c in members), np.array([c.index[i] for c in members]))
                         for members in classes.values()), key=lambda group: group[1].min())
        reports.append(EquivalenceReport(
            float(alpha),
            tuple(tuple(names) for names, _ in groups),
            tuple(float(np.ptp(v) / v.max()) if v.max() > 0.0 else 0.0 for _, v in groups),
            tuple(sorted(c.test for c in curves if c.degenerate[i])),
            tuple(sorted(c.test for c in curves if c.not_applicable[i])),
        ))
    return reports
