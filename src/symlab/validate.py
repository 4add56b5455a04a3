"""Validation suite: machine-checkable pass/fail for the library's claims.

Each check returns a :class:`CheckResult`; the ``quick`` suite keeps the
simulation grids small enough for a few minutes of runtime, the ``full``
suite runs the complete grids (tens of minutes).  The same registry backs
``symlab validate`` and the acceptance test module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asy
from . import efficiency as eff
from ._oracles import population_slope_fd
from ._quad import quad_split
from ._rng import DEFAULT_SEED, stream
from .distributions import get_alternative, get_null
from .errors import NotApplicableError
from .location import influence_curve, trimmed_mean_derivative
from .montecarlo import McConfig, null_distribution, power
from .stats import INTEGRAL, MOMENT, StatisticSpec, brute_force, evaluate, parse_statistic

__all__ = ["CheckResult", "CHECKS", "run_suite", "DEFAULT_SEED"]

#: the counting tests of the comparison study, and the integral ones among them
_ALL_KINDS = tuple(t for t in eff.DEFAULT_TESTS if parse_statistic(t).family != MOMENT)
_INTEGRAL_TESTS = tuple(t for t in _ALL_KINDS if parse_statistic(t).family == INTEGRAL)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name: str, fn):
    def wrapper(seed: int, full: bool) -> CheckResult:
        start = time.perf_counter()
        passed, detail = fn(seed, full)
        return CheckResult(name, bool(passed), detail, time.perf_counter() - start)

    return wrapper


def _verdict(failures: list[str], detail: str) -> tuple[bool, str]:
    """Passed if nothing failed; the first five failures follow ``detail``."""
    return not failures, detail + ("; failures: " + ", ".join(failures[:5]) if failures else "")


# --------------------------------------------------------------------------
# 1. counting fast path equals literal enumeration
# --------------------------------------------------------------------------


def _check_oracle_equivalence(seed: int, full: bool) -> tuple[bool, str]:
    rng = stream(seed, 101)
    alphas = (0.0, 0.1, 0.25, 0.5)
    mismatches = 0
    checked = 0
    for kind in _ALL_KINDS:
        for n in range(5, 13):
            for rep in range(25):
                sample = rng.normal(size=n) + rng.normal()
                spec = parse_statistic(kind, alpha=alphas[rep % len(alphas)])
                if n < spec.kernel_order:
                    continue
                checked += 1
                fast = evaluate(spec, sample).value
                slow = brute_force(spec, sample).value
                if fast != slow:
                    mismatches += 1
    return mismatches == 0, f"{checked} evaluations, {mismatches} fast/brute mismatches"


# --------------------------------------------------------------------------
# 2. Bahadur equivalence classes
# --------------------------------------------------------------------------

_CLASS_INTEGRAL = ("BH_I", "MO_I_1", "NA_I_2", "NA_I_3")
_CLASS_SUP = ("BH_K", "MO_K_1", "NA_K_2", "NA_K_3")
_CLASS_MOMENT = ("CM", "GAMMA", "MGG")


def _check_equivalence_classes(seed: int, full: bool) -> tuple[bool, str]:
    grid = eff.default_grid(21)
    tests = _CLASS_INTEGRAL + _CLASS_SUP + ("KS", "S")
    tol = eff.EQUIVALENCE_TOL
    worst = 0.0
    failures: list[str] = []
    for null_name in ("normal", "logistic", "cauchy"):
        for alt_name in ("contam", "fs"):
            alt = get_alternative(alt_name, null_name)
            index = {curve.test: curve.index for curve in eff.index_curves(tests, alt, grid)}
            # within-class agreement over the grid, where every member has an index
            for members in (_CLASS_INTEGRAL, _CLASS_SUP):
                for a, value in zip(grid, np.ptp([index[name] for name in members], axis=0)):
                    if not math.isnan(value):
                        worst = max(worst, value)
                        if value > tol:
                            failures.append(f"{members[0]}-class {null_name}/{alt_name} a={a:.3f}")
            # mean-median class ties to the untrimmed sign test
            try:
                vals = [eff.bahadur_index(name, alt, None) for name in _CLASS_MOMENT]
                vals.append(eff.bahadur_index("S", alt, 0.0))
                spread = max(vals) - min(vals)
                worst = max(worst, spread)
                if spread > tol:
                    failures.append(f"CM-class {null_name}/{alt_name}")
            except NotApplicableError:
                pass
            # KS equals S below the crossover (each point is computed from its own level)
            crossover = eff.ks_s_equivalence_crossover(alt, grid)
            below = (grid <= crossover) & (grid < 0.5)
            for a, diff in zip(grid[below], np.abs(index["KS"] - index["S"])[below]):
                if not math.isnan(diff):
                    worst = max(worst, diff)
                    if diff > tol:
                        failures.append(f"KS-vs-S {null_name}/{alt_name} a={a:.3f}")
    detail = f"worst in-class spread {worst:.2e} (tol {tol:g})"
    return _verdict(failures, detail)


# --------------------------------------------------------------------------
# 3. degeneracy of the median-centered sign test; KS endpoint flag
# --------------------------------------------------------------------------


def _check_degeneracy(seed: int, full: bool) -> tuple[bool, str]:
    worst_var = worst_slope = 0.0
    ks_flagged = True
    for null_name in ("normal", "logistic", "cauchy"):
        for alt_name in ("contam", "fs"):
            alt = get_alternative(alt_name, null_name)
            sign, ks = eff.index_curves(["S", "KS"], alt, [0.45, 0.5])
            worst_var = max(worst_var, abs(sign.sigma2[-1]))
            worst_slope = max(worst_slope, abs(sign.slope[-1]))
            if not (ks.degenerate[-1] and math.isnan(ks.index[-1])):
                ks_flagged = False
    passed = worst_var < 1e-8 and worst_slope < 1e-8 and ks_flagged
    return passed, (
        f"sign test at a=1/2: |var|<= {worst_var:.1e}, |slope|<= {worst_slope:.1e}; "
        f"KS endpoint flagged degenerate: {ks_flagged}"
    )


# --------------------------------------------------------------------------
# 4. limiting variances vs Monte Carlo
# --------------------------------------------------------------------------


def _variance_cells(full: bool):
    normal, logistic = get_null("normal"), get_null("logistic")
    if not full:
        return [
            ("W", 0.0, normal, None),
            ("S", 0.25, normal, None),
            ("NA_I_2", 0.1, normal, None),
            ("MO_I_2", 0.25, logistic, None),
            ("KS", 0.4, normal, float(normal.quantile(0.75))),
            ("NA_K_3", 0.5, logistic, float(logistic.quantile(0.75))),
        ]
    cells = []
    for null in (normal, logistic):
        t75 = float(null.quantile(0.75))
        for alpha in (0.0, 0.1, 0.25, 0.4, 0.5):
            for kind in ("S", "W", "BH_I", "NA_I_2", "NA_I_4", "MO_I_2"):
                cells.append((kind, alpha, null, None))
            for kind in ("KS", "BH_K", "NA_K_2", "MO_K_2"):
                cells.append((kind, alpha, null, t75))
    return cells


def _check_variance_mc(seed: int, full: bool) -> tuple[bool, str]:
    cfg = McConfig(n=2000, reps=10_000, seed=seed + 4, level=0.05)
    worst = 0.0
    failures = []
    cells = _variance_cells(full)
    for kind, alpha, null, t in cells:
        spec = parse_statistic(kind, alpha=alpha)
        analytic = (
            asy.variance_function(spec, null, t)
            if t is not None
            else asy.variance_curve(spec, null, [alpha])[0][0]
        )
        values = null_distribution(spec, null, cfg, t=t)
        empirical = cfg.n * float(np.var(values))
        label = f"{kind} a={alpha} {null.name}" + ("" if t is None else f" t={t:.3f}")
        if analytic < 1e-8:
            if empirical > 1e-3:
                failures.append(label)
            continue
        rel = abs(empirical - analytic) / analytic
        worst = max(worst, rel)
        if rel > 0.05:
            failures.append(f"{label}: rel {rel:.3f}")
    detail = f"{len(cells)} cells, worst relative error {worst:.3f} (tol 0.05)"
    return _verdict(failures, detail)


# --------------------------------------------------------------------------
# 5. slope derivatives vs population finite differences
# --------------------------------------------------------------------------


def _check_slope_fd(seed: int, full: bool) -> tuple[bool, str]:
    tol = 1e-4
    alphas = (0.0, 0.25, 0.5) if full else (0.25,)
    integral_tests = _INTEGRAL_TESTS if full else ("S", "W", "NA_I_2", "MO_I_2")
    sup_tests = ("KS", "BH_K", "NA_K_2", "NA_K_4", "MO_K_2") if full else ("KS", "NA_K_2")
    moment_tests = ("CM", "GAMMA", "MGG", "SQRT_B1") if full else ("CM", "SQRT_B1")
    worst = 0.0
    failures = []
    checked = 0

    def record(label: str, analytic: float, fd: float) -> None:
        nonlocal worst, checked
        err = abs(analytic - fd)
        worst, checked = max(worst, err), checked + 1
        if err > tol:
            failures.append(f"{label}: {err:.1e}")

    for alt_name in ("contam", "fs"):
        alt = get_alternative(alt_name, "normal")
        null = alt.base
        for name in integral_tests:
            slopes = asy.slope_curve(parse_statistic(name), alt, alphas)[0]
            for a, slope in zip(alphas, slopes):
                fd = population_slope_fd(parse_statistic(name, alpha=a), alt)
                record(f"{name} a={a} {alt_name}", slope, fd)
        for name in sup_tests:
            t = float(null.quantile(0.8))
            for a in alphas:
                spec = parse_statistic(name, alpha=a)
                fd = population_slope_fd(spec, alt, t=t)
                record(f"{name} a={a} t {alt_name}", asy.slope_function(spec, alt, t), fd)
            # supremum level: |b| expands as theta * sup_t |slope(t)|
            spec = parse_statistic(name, alpha=alphas[-1])
            fd = population_slope_fd(spec, alt, absolute=True)
            sup = asy.slope_curve(spec, alt, [spec.alpha])[0][0]
            record(f"{name} sup {alt_name}", sup, fd)
        for name, curve in zip(moment_tests, eff.index_curves(moment_tests, alt, [0.0])):
            fd = population_slope_fd(parse_statistic(name), alt)
            record(f"{name} {alt_name}", curve.slope[0], fd)
            if name == "SQRT_B1" and curve.sigma2[0] != 6.0:  # exact under the normal null
                failures.append(f"normal skewness variance {curve.sigma2[0]!r} != 6")
    detail = f"{checked} slopes, worst |analytic - fd| {worst:.2e} (tol {tol:g})"
    return _verdict(failures, detail)


# --------------------------------------------------------------------------
# 6. closed-form checkpoints
# --------------------------------------------------------------------------


def _check_closed_forms(seed: int, full: bool) -> tuple[bool, str]:
    normal = get_null("normal")
    contam = get_alternative("contam", normal)
    errors = {}

    sigma2 = asy.variance_curve(StatisticSpec("S"), normal, [0.0])[0][0]
    errors["sign-variance"] = abs(sigma2 - (0.25 - 1.0 / (2.0 * math.pi)))

    # mean-median denominator recomputed by quadrature
    f0 = float(normal.density(0.0))
    var_q = quad_split(lambda x: x * x * normal.density(x), -np.inf, np.inf, points=[0.0])
    tau_q = 2.0 * quad_split(lambda x: x * normal.density(x), 0.0, np.inf)
    denom = var_q + 1.0 / (4.0 * f0 * f0) - tau_q / f0
    errors["mean-median-denominator"] = abs(denom - (math.pi / 2.0 - 1.0))

    slope = asy.slope_curve(StatisticSpec("S"), contam, [0.0])[0][0]
    phi1 = float(normal.cdf(1.0))
    errors["sign-slope"] = abs(slope - (phi1 - 0.5 - f0))

    worst = max(errors.values())
    passed = worst < 1e-9
    detail = ", ".join(f"{k}: {v:.1e}" for k, v in errors.items()) + " (tol 1e-9)"
    return passed, detail


# --------------------------------------------------------------------------
# 7. zero-efficiency trimming levels
# --------------------------------------------------------------------------

# pairs whose slope provably never changes sign inside (0, 1/2): the sign
# test's slope is proportional to mu'(alpha) - mu'(1/2) and vanishes only at
# the median endpoint; the NA_I(4) slope under the two-piece normal
# alternative is bounded away from zero (certified against the population
# finite-difference oracle).
_NO_INTERIOR_ROOT = {("S", "contam"), ("S", "fs"), ("NA_I_4", "fs")}


def _check_zero_roots(seed: int, full: bool) -> tuple[bool, str]:
    failures = []
    found_roots = 0
    excluded = []
    for alt_name in ("contam", "fs"):
        alt = get_alternative(alt_name, "normal")
        for name in _INTEGRAL_TESTS:
            result = eff.zero_efficiency_alpha(name, alt)
            if (name, alt_name) in _NO_INTERIOR_ROOT:
                excluded.append(f"{name}/{alt_name}")
                if result.found:
                    failures.append(f"{name} {alt_name}: unexpected root {result.alpha}")
                continue
            if not result.found:
                failures.append(f"{name} {alt_name}: no interior root found")
                continue
            found_roots += 1
            if not 0.0 < result.alpha < 0.5:
                failures.append(f"{name} {alt_name}: root {result.alpha} not interior")
            index = eff.bahadur_index(name, alt, result.alpha)
            if not abs(index) < 1e-10:
                failures.append(f"{name} {alt_name}: index at root {index:.2e}")
    # boundary zero of the sign test: slope vanishes exactly at a = 1/2
    for alt_name in ("contam", "fs"):
        alt = get_alternative(alt_name, "normal")
        slope_end = asy.slope_curve(StatisticSpec("S"), alt, [0.5])[0][0]
        if abs(slope_end) > 1e-10:
            failures.append(f"S {alt_name}: endpoint slope {slope_end:.2e}")
    detail = (
        f"{found_roots} interior roots with |index| < 1e-10; "
        f"sign-changeless pairs (zero at the boundary or none): {', '.join(excluded)}"
    )
    return _verdict(failures, detail)


# --------------------------------------------------------------------------
# 8. not-applicable wall under the Cauchy null
# --------------------------------------------------------------------------


def _check_not_applicable(seed: int, full: bool) -> tuple[bool, str]:
    cauchy = get_null("cauchy")
    failures = []

    def expect_raise(label: str, fn):
        try:
            fn()
        except NotApplicableError:
            return
        failures.append(label)

    for alt_name in ("contam", "fs"):
        alt = get_alternative(alt_name, cauchy)
        for name in ("CM", "GAMMA", "MGG", "SQRT_B1"):
            expect_raise(f"{name}/{alt_name}", lambda n=name, a=alt: eff.bahadur_index(n, a, None))
        for name in ("S", "W", "KS", "BH_I", "NA_I_2", "MO_K_1"):
            expect_raise(
                f"{name}@0/{alt_name}", lambda n=name, a=alt: eff.bahadur_index(n, a, 0.0)
            )
        expect_raise(f"mu'@0/{alt_name}", lambda a=alt: trimmed_mean_derivative(a, 0.0))
    expect_raise("influence@0", lambda: influence_curve(cauchy, 0.0, 1.0))
    # the rule raises, and the curve reads NaN at the level it refuses
    expect_raise("variance@0", lambda: asy.applicability(StatisticSpec("W"), cauchy))
    if not math.isnan(asy.variance_curve(StatisticSpec("W"), cauchy, [0.0])[0][0]):
        failures.append("variance-curve@0")
    detail = "all moment-based tests and all untrimmed centerings raise under Cauchy"
    if failures:
        detail = "returned numbers instead of raising: " + ", ".join(failures)
    return not failures, detail


# --------------------------------------------------------------------------
# 9. KS variance-function shape
# --------------------------------------------------------------------------


def _check_ks_variance_shape(seed: int, full: bool) -> tuple[bool, str]:
    normal = get_null("normal")
    arg_small, arg_large = asy.variance_curve(StatisticSpec("KS"), normal, [0.1, 0.4])[1]
    passed = arg_small == 0.0 and arg_large > 0.01
    return passed, f"argmax t at a=0.1: {arg_small:.6f}; at a=0.4: {arg_large:.6f}"


# --------------------------------------------------------------------------
# 10. Monte Carlo size calibration
# --------------------------------------------------------------------------


def _size_cells(full: bool):
    if not full:
        return [
            ("S", 0.25, "normal"),
            ("W", 0.25, "normal"),
            ("KS", 0.25, "normal"),
            ("NA_I_2", 0.1, "normal"),
            ("MO_K_1", 0.25, "normal"),
            ("CM", None, "normal"),
        ]
    cells = []
    for null_name in ("normal", "logistic", "cauchy"):
        for kind in _ALL_KINDS:
            cells.append((kind, 0.25, null_name))
        if null_name != "cauchy":
            for kind in ("CM", "GAMMA", "MGG", "SQRT_B1"):
                cells.append((kind, None, null_name))
    return cells


def _check_size_calibration(seed: int, full: bool) -> tuple[bool, str]:
    cells = _size_cells(full)
    cfg = McConfig(n=100, reps=10_000, seed=seed + 10, level=0.05)
    worst = 0.0
    failures = []
    for kind, alpha, null_name in cells:
        alt = get_alternative("contam", null_name)
        spec = parse_statistic(kind, alpha=alpha if alpha is not None else 0.0)
        size = power(spec, alt, 0.0, cfg)
        dev = abs(size - 0.05)
        worst = max(worst, dev)
        if dev > 0.01:
            failures.append(f"{kind}/{null_name}: size {size:.4f}")
    se = math.sqrt(cfg.level * (1.0 - cfg.level) / cfg.reps)  # Monte Carlo error of a size
    detail = f"{len(cells)} tests, worst |size - 0.05| = {worst:.4f} (MC s.e. {se:.4f}, tol 0.01)"
    return _verdict(failures, detail)


_CHECK_FNS = {
    "oracle-equivalence": _check_oracle_equivalence,
    "equivalence-classes": _check_equivalence_classes,
    "degeneracy": _check_degeneracy,
    "variance-vs-simulation": _check_variance_mc,
    "slope-vs-finite-difference": _check_slope_fd,
    "closed-form-checkpoints": _check_closed_forms,
    "zero-efficiency-roots": _check_zero_roots,
    "not-applicable-wall": _check_not_applicable,
    "ks-variance-shape": _check_ks_variance_shape,
    "size-calibration": _check_size_calibration,
}

CHECKS = {name: _timed(name, fn) for name, fn in _CHECK_FNS.items()}


def run_suite(suite: str = "quick", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run all checks; ``suite`` selects the quick or full grids."""
    if suite not in ("quick", "full"):
        raise ValueError("suite must be 'quick' or 'full'")
    return [fn(seed, suite == "full") for fn in CHECKS.values()]
