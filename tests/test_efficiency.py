import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import CURVE_FIELDS, Scaled, curve_digest
from symlab import efficiency as eff
from symlab import asymptotics as asy
from symlab._quad import ABS_TOL
from symlab.distributions import NULL_NAMES, AlternativeFamily, get_alternative, get_null
from symlab.errors import NotApplicableError
from symlab.location import influence_curve, trimmed_mean_derivative
from symlab.montecarlo import McConfig, null_distribution, power
from symlab.stats import parse_statistic
from symlab.validate import _CLASS_INTEGRAL, _CLASS_MOMENT, _CLASS_SUP
from symlab.validate import _SPREAD_BOUND as SPREAD_BOUND


class ScaledScore(AlternativeFamily):
    """Reparameterized family: theta -> c * theta, so the score scales by c."""

    kind = "scaled"

    def __init__(self, inner: AlternativeFamily, factor: float):
        super().__init__(inner.base)
        self.inner = inner
        self.factor = factor

    def score(self, x):
        return self.factor * np.asarray(self.inner.score(x))

    def score_cumulative(self, x):
        return self.factor * np.asarray(self.inner.score_cumulative(x))


class TestBahadurIndex:
    def test_composed_value_sign_contamination(self, normal, contam_normal):
        # slope^2 / variance from the closed sign-test ingredients
        slope = float(normal.cdf(1.0)) - 0.5 - float(normal.density(0.0))
        var = 0.25 - 1.0 / (2.0 * math.pi)
        expected = slope * slope / var
        assert expected == pytest.approx(0.03652, abs=5e-5)
        got = eff.bahadur_index("S", contam_normal, 0.0)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_integral_class_members_agree(self, contam_normal):
        for alpha in (0.0, 0.2, 0.45):
            vals = [
                eff.bahadur_index(name, contam_normal, alpha)
                for name in ("BH_I", "MO_I_1", "NA_I_2", "NA_I_3")
            ]
            assert max(vals) - min(vals) < 1e-6

    def test_na4_outside_the_class(self, contam_normal):
        a = eff.bahadur_index("BH_I", contam_normal, 0.1)
        b = eff.bahadur_index("NA_I_4", contam_normal, 0.1)
        assert abs(a - b) > 1e-4

    def test_mean_median_class_matches_untrimmed_sign(self, contam_normal, fs_normal):
        for alt in (contam_normal, fs_normal):
            s0 = eff.bahadur_index("S", alt, 0.0)
            for name in ("CM", "GAMMA", "MGG"):
                assert eff.bahadur_index(name, alt, None) == pytest.approx(s0, abs=1e-9)

    def test_not_applicable_propagates(self, cauchy):
        alt = get_alternative("contam", cauchy)
        with pytest.raises(NotApplicableError):
            eff.bahadur_index("CM", alt, None)
        with pytest.raises(NotApplicableError):
            eff.bahadur_index("W", alt, 0.0)

    def test_scaling_leaves_index_ratios_invariant(self, contam_normal):
        scaled = ScaledScore(contam_normal, 3.7)
        pairs = [("W", 0.1), ("NA_I_2", 0.1), ("MO_K_2", 0.3), ("SQRT_B1", None)]
        base = [eff.bahadur_index(n, contam_normal, a) for n, a in pairs]
        moved = [eff.bahadur_index(n, scaled, a) for n, a in pairs]
        for b, m in zip(base, moved):
            assert m == pytest.approx(3.7**2 * b, rel=1e-10)
        for i in range(1, len(pairs)):
            assert moved[i] / moved[0] == pytest.approx(base[i] / base[0], abs=1e-8)


class TestIndexCurve:
    def test_grid_contract(self, contam_normal):
        curve = eff.index_curves(["W"], contam_normal, np.linspace(0.0, 0.5, 11))[0]
        assert curve.grid[0] == 0.0 and curve.grid[-1] == 0.5
        assert np.all(np.isfinite(curve.index[~curve.degenerate & ~curve.not_applicable]))
        assert np.all(curve.index[~np.isnan(curve.index)] >= 0.0)

    @pytest.mark.parametrize("grid", [eff.default_grid()[::-1], [0.1, 0.1], [0.0, 0.3, 0.2, 0.5], [0.0, -0.0]])
    def test_grid_order_refused_before_any_work(self, contam_normal, monkeypatch, grid):
        def search(searches):
            raise AssertionError("a supremum search ran")

        monkeypatch.setattr(asy, "_sup_over_t", search)
        for run in (lambda: eff.index_curves(eff.DEFAULT_TESTS, contam_normal, grid),
                    lambda: eff.ks_s_equivalence_crossover(contam_normal, grid)):
            with pytest.raises(ValueError, match="^trimming grid must be strictly increasing$"):
                run()

    @pytest.mark.parametrize("name", ["S", "W", "KS", "BH_I", "NA_K_3", "MO_K_2"])
    def test_curves_take_any_order(self, contam_normal, name):
        # only an index grid is ordered: a variance or slope curve on the reversed default grid is
        # the sorted grid's bits reversed
        spec, grid = parse_statistic(name), eff.default_grid()
        for curve, model in ((asy.variance_curve, contam_normal.base), (asy.slope_curve, contam_normal)):
            for got, want in zip(curve(spec, model, grid[::-1]), curve(spec, model, grid)):
                assert got.view(np.uint64).tolist() == want[::-1].view(np.uint64).tolist(), curve.__name__

    def test_constant_for_moment_statistics(self, contam_normal):
        curve = eff.index_curves(["CM"], contam_normal, np.linspace(0.0, 0.5, 7))[0]
        assert np.ptp(curve.index) == 0.0
        curve = eff.index_curves(["SQRT_B1"], contam_normal, np.linspace(0.0, 0.5, 7))[0]
        assert np.ptp(curve.index) == 0.0

    def test_ks_flagged_degenerate_at_median_endpoint(self, contam_normal):
        curve = eff.index_curves(["KS"], contam_normal, np.asarray([0.3, 0.5]))[0]
        assert not curve.degenerate[0]
        assert curve.degenerate[1] and math.isnan(curve.index[1])

    def test_cauchy_mean_point_not_applicable(self, cauchy):
        alt = get_alternative("fs", cauchy)
        curve = eff.index_curves(["W"], alt, np.asarray([0.0, 0.25]))[0]
        assert curve.not_applicable[0] and not curve.not_applicable[1]
        assert math.isnan(curve.index[0]) and np.isfinite(curve.index[1])


#: each public entry that reads trimming levels, and the levels it is given
ENTRIES = {
    "index_curves": (lambda alt, a: eff.index_curves(eff.DEFAULT_TESTS, alt, a), eff.default_grid(11)),
    "crossover": (eff.ks_s_equivalence_crossover, eff.default_grid(11)),
    "bahadur_index": (lambda alt, a: eff.bahadur_index("NA_K_2", alt, a), 0.1),
    "variance_curve": (lambda alt, a: asy.variance_curve(parse_statistic("KS"), alt.base, a), [0.3, 0.0, 0.5]),
    "slope_curve": (lambda alt, a: asy.slope_curve(parse_statistic("W"), alt, a), [0.3, 0.0, 0.5]),
    "variance_function": (lambda alt, a: asy.variance_function(parse_statistic("KS", a), alt.base, 1.0), 0.2),
    "slope_function": (lambda alt, a: asy.slope_function(parse_statistic("KS", a), alt, 1.0), 0.2),
    "trimmed_mean_derivative": (trimmed_mean_derivative, 0.2),
    "influence_curve": (lambda alt, a: influence_curve(alt.base, a, [0.5, 2.0]), 0.2),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_each_entry_checks_its_levels_once(contam_normal, level_checks, entry):
    run, levels = ENTRIES[entry]
    run(contam_normal, levels)
    assert level_checks == [np.ravel(levels).tolist()]


@pytest.mark.parametrize(
    "null_name, alt_name", [("normal", "contam"), ("cauchy", "fs"), ("logistic", "fs")]
)
@pytest.mark.parametrize("name", eff.DEFAULT_TESTS)
def test_report_is_the_one_index(name, null_name, alt_name):
    # a level's index is the same bits on an 11-point grid, on a 101-point
    # grid and from bahadur_index, also at a level on neither grid
    alt = get_alternative(alt_name, null_name)
    coarse, fine, off_grid = np.linspace(0.0, 0.5, 11), np.linspace(0.0, 0.5, 101), 0.123
    grids = (coarse, fine, np.sort(np.append(coarse, off_grid)))
    curves = [eff.index_curves([name], alt, grid)[0] for grid in grids]
    shared = [float(a) for a in coarse if a in fine]
    assert len(shared) == 9 and off_grid not in coarse and off_grid not in fine
    for a in [*shared, off_grid]:
        spec = parse_statistic(name, alpha=a)
        points = [(c, c.grid == a) for c in curves if a in c.grid]
        assert len(points) == (3 if a in shared else 1)
        rep = eff.index_curves([spec], alt, [a])[0]  # the one-level curve
        if points[0][0].not_applicable[points[0][1]].all():
            assert all(c.not_applicable[at].all() for c, at in points)
            assert rep.not_applicable[0]
            with pytest.raises(NotApplicableError):
                eff.bahadur_index(spec, alt)
            continue
        np.testing.assert_array_equal(rep.index[0], eff.bahadur_index(spec, alt))
        for c, at in points:
            assert not c.not_applicable[at].any()
            assert (c.degenerate[at] == rep.degenerate[0]).all()
            np.testing.assert_array_equal(c.index[at].view(np.int64), rep.index.view(np.int64))

    # the variance and slope curves on each grid give, level by level, the
    # bits of the same curve on that level alone, and NaN exactly where the
    # applicability rule refuses the level
    spec0 = parse_statistic(name)
    if spec0.family == "moment":
        for curve, model in ((asy.variance_curve, alt.base), (asy.slope_curve, alt)):
            with pytest.raises(ValueError):
                curve(spec0, model, coarse)
        return
    levels = np.unique(np.concatenate(grids))
    refused = []
    for a in levels:
        try:
            asy.applicability(parse_statistic(name, alpha=float(a)), alt.base)
            refused.append(False)
        except NotApplicableError:
            refused.append(True)
    assert any(refused) == (null_name == "cauchy")
    for curve, model in ((asy.variance_curve, alt.base), (asy.slope_curve, alt)):
        wanted = {}
        for a, na in zip(levels, refused):
            value, argmax, *_ = curve(spec0, model, [a])
            assert np.isnan(value[0]) == na
            wanted[a] = (value[0], argmax[0])
        for grid in grids:
            values, argmaxes, errs, _ = curve(spec0, model, grid)
            assert errs.max() <= ABS_TOL and (errs[np.isnan(values)] == 0.0).all()
            want = np.array([wanted[a] for a in grid])
            np.testing.assert_array_equal(values.view(np.int64), want[:, 0].view(np.int64))
            np.testing.assert_array_equal(argmaxes.view(np.int64), want[:, 1].view(np.int64))


#: the largest ``sup_err`` over the 19 defaults on the default grid; measured 1.12e-18, 2.73e-18 and
#: 1.16e-17, at most 2.4e-17 of the index
SUP_ERR_MAX = {("normal", "contam"): 1.2e-18, ("logistic", "fs"): 2.8e-18, ("cauchy", "fs"): 1.2e-17}


@pytest.mark.parametrize("null_name, alt_name", sorted(SUP_ERR_MAX))
def test_every_index_carries_the_resolution_of_its_search(null_name, alt_name):
    # sup_err is what the last steps of the searches over t may still move the index by: 0 where
    # nothing was searched or the index is NaN, and within the measured budget elsewhere
    curves = eff.index_curves(eff.DEFAULT_TESTS, get_alternative(alt_name, null_name), eff.default_grid())
    for curve in curves:
        shown = ~np.isnan(curve.index)
        assert (curve.sup_err[~shown] == 0.0).all() and (curve.sup_err >= 0.0).all(), curve.test
        if parse_statistic(curve.test).family == "supremum":
            assert curve.sup_err.max() > 0.0
            assert (curve.sup_err[shown] <= 2.5e-17 * curve.index[shown]).all(), curve.test
        else:
            assert (curve.sup_err == 0.0).all(), curve.test
    assert max(curve.sup_err.max() for curve in curves) <= SUP_ERR_MAX[(null_name, alt_name)]


@pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
@pytest.mark.parametrize("alt_name", ["contam", "fs"])
def test_every_index_is_slope_squared_over_variance(null_name, alt_name):
    # one assembly for every test, moment ones included: the variance and
    # slope are NaN exactly where the test is not applicable, and the index
    # is their ratio, bit for bit, wherever the point is not flagged either
    alt = get_alternative(alt_name, null_name)
    for curve in eff.index_curves(eff.DEFAULT_TESTS, alt, eff.default_grid()):
        na, ok = curve.not_applicable, ~(curve.not_applicable | curve.degenerate)
        assert (np.isnan(curve.sigma2) == na).all() and (np.isnan(curve.slope) == na).all(), curve.test
        assert np.isnan(curve.index[~ok]).all(), curve.test
        want = curve.slope[ok] * curve.slope[ok] / curve.sigma2[ok]
        np.testing.assert_array_equal(curve.index[ok].view(np.int64), want.view(np.int64), curve.test)


def assert_same_curve(got, want):
    """Equal test, grid and all nine array fields, bit for bit (NaNs by their bits)."""
    assert (got.test, got.null, got.alternative) == (want.test, want.null, want.alternative)
    for field in ("grid", *CURVE_FIELDS):
        a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


class TestIndexCurves:
    # the supremum searches of all tests share one loop of Newton steps; each
    # curve must still be the bits of its test computed alone
    @pytest.mark.parametrize(
        "null_name, alt_name, points",
        [("normal", "contam", 11), ("cauchy", "fs", 11), ("logistic", "fs", 101)],
    )
    def test_each_curve_is_its_test_alone(self, null_name, alt_name, points):
        alt = get_alternative(alt_name, null_name)
        grid = eff.default_grid(points)
        curves = eff.index_curves(eff.DEFAULT_TESTS, alt, grid)
        assert [c.test for c in curves] == list(eff.DEFAULT_TESTS)
        for name, curve in zip(eff.DEFAULT_TESTS, curves):
            assert_same_curve(curve, eff.index_curves([name], alt, grid)[0])

    def test_repeated_test(self, contam_normal):
        grid = eff.default_grid(11)
        tests = ["KS", "W", "KS", "NA_K_4", "KS"]
        curves = eff.index_curves(tests, contam_normal, grid)
        for name, curve in zip(tests, curves):
            assert_same_curve(curve, eff.index_curves([name], contam_normal, grid)[0])

    def test_no_supremum_test(self, cauchy):
        # integral-type and moment tests only, under a null that refuses a = 0
        alt = get_alternative("fs", cauchy)
        grid = eff.default_grid(11)
        tests = ["S", "CM", "MO_I_2", "SQRT_B1"]
        for name, curve in zip(tests, eff.index_curves(tests, alt, grid)):
            assert_same_curve(curve, eff.index_curves([name], alt, grid)[0])
        assert eff.index_curves([], alt, grid) == []


_SHARED_PAIRS = (("normal", "contam"), ("cauchy", "fs"))
#: the points each pair's run evaluates again, as measured: cauchy/fs reads f(0) twice, and 2976 of
#: normal/contam's are one density call on points an earlier call read
_REPEATS = {("normal", "contam"): 3081, ("cauchy", "fs"): 1}

# A fresh interpreter counts the points passed to the outermost model-method
# calls of one index run per pair, and those on an input already seen (by
# bytes), and prints both with the digest of the curves.
_COUNT_REPEATS = f"""
import numpy as np
from helpers import curve_digest
from symlab import distributions as dist, efficiency as eff

METHODS = ("cdf", "density", "density_derivative", "quantile", "partial_first_moment",
           "partial_second_moment", "score", "score_cumulative")
depth, seen, count = [0], set(), {{"all": 0, "seen": 0}}

def counted(name, method):
    def outer(self, *args):
        if not depth[0]:
            arrays = [np.asarray(a, dtype=float) for a in args]
            key = (self, name, tuple((a.shape, a.tobytes()) for a in arrays))
            size = np.broadcast(*arrays).size
            count["all"] += size
            count["seen"] += size if key in seen else 0
            seen.add(key)
        depth[0] += 1
        try:
            return method(self, *args)
        finally:
            depth[0] -= 1
    return outer

for cls in vars(dist).values():
    if isinstance(cls, type) and issubclass(cls, (dist.SymmetricNull, dist.AlternativeFamily)):
        for name in METHODS:
            if name in vars(cls):
                setattr(cls, name, counted(name, vars(cls)[name]))

for null, alt in {list(_SHARED_PAIRS)!r}:
    seen.clear()
    count.update(all=0, seen=0)
    curves = eff.index_curves(eff.DEFAULT_TESTS, dist.get_alternative(alt, null), eff.default_grid(11))
    print(null, alt, count["seen"], count["all"], curve_digest(curves))
"""


def test_cold_index_evaluates_each_model_point_once():
    # the asymptotic layer shares the null and alternative values on each
    # point set across tests, parts and refinement rounds; and a process
    # whose shared tables other grids filled first gives the same bits
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]))
    result = subprocess.run([sys.executable, "-c", _COUNT_REPEATS], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    lines = [line.split() for line in result.stdout.splitlines()]
    assert [tuple(line[:2]) for line in lines] == list(_SHARED_PAIRS)
    other = np.linspace(0.03, 0.47, 5)
    for (null_name, alt_name), (*_, seen, points, cold) in zip(_SHARED_PAIRS, lines):
        assert int(seen) <= _REPEATS[null_name, alt_name], (null_name, alt_name, seen, points)
        alt = get_alternative(alt_name, null_name)
        for name in ("W", "KS"):
            asy.variance_curve(parse_statistic(name), alt.base, other)
            asy.slope_curve(parse_statistic(name), alt, other)
        assert curve_digest(eff.index_curves(eff.DEFAULT_TESTS, alt, eff.default_grid(11))) == cold


class TestZeroEfficiency:
    def test_wilcoxon_interior_root(self, contam_normal):
        result = eff.zero_efficiency_alpha("W", contam_normal)
        assert result.found and 0.0 < result.alpha < 0.5
        assert abs(eff.bahadur_index("W", contam_normal, result.alpha)) < 1e-10

    def test_sign_test_has_no_interior_root(self, contam_normal, fs_normal):
        for alt in (contam_normal, fs_normal):
            assert not eff.zero_efficiency_alpha("S", alt).found

    def test_supremum_type_rejected(self, contam_normal):
        with pytest.raises(ValueError):
            eff.zero_efficiency_alpha("KS", contam_normal)


class TestCrossover:
    @pytest.mark.parametrize("grid", [[0.3, 0.4], [0.5], []])
    def test_grid_it_cannot_scan_from_zero_refused_before_any_work(self, contam_normal, monkeypatch, grid):
        # [0.3, 0.4] read 0.0 on normal/fs, where the default grid gives 0.095; [0.5] has no level
        # below the median level, which the crossover drops, and read 0.0 too
        def search(searches):
            raise AssertionError("a supremum search ran")

        monkeypatch.setattr(asy, "_sup_over_t", search)
        with pytest.raises(ValueError, match="^the crossover scans its grid from level 0"):
            eff.ks_s_equivalence_crossover(get_alternative("fs", "normal"), grid)

    def test_equality_below_crossover(self, contam_normal):
        grid = np.linspace(0.0, 0.5, 51)
        crossover = eff.ks_s_equivalence_crossover(contam_normal, grid)
        assert crossover >= 0.0
        below = [a for a in grid if 0.0 <= a <= crossover]
        assert below, "expected a nonempty equivalence region"
        for a in below:
            ks = eff.bahadur_index("KS", contam_normal, float(a))
            s = eff.bahadur_index("S", contam_normal, float(a))
            assert abs(ks - s) <= SPREAD_BOUND * max(ks, s)
            assert eff.equivalence_report(contam_normal, float(a), ("KS", "S")).groups == (("KS", "S"),)

    def test_indices_depart_above_crossover(self, contam_normal):
        crossover = eff.ks_s_equivalence_crossover(contam_normal, np.linspace(0.0, 0.5, 51))
        probe = min(0.45, crossover + 0.15)
        ks = eff.bahadur_index("KS", contam_normal, probe)
        s = eff.bahadur_index("S", contam_normal, probe)
        assert abs(ks - s) > 1e-6


class TestEquivalenceReport:
    def test_reproduces_listed_classes_at_zero_trimming(self, contam_normal):
        report = eff.equivalence_report(contam_normal, 0.0)
        assert report.groups == (
            ("NA_I_4",), ("BH_I", "MO_I_1", "NA_I_2", "NA_I_3"), ("CM", "GAMMA", "KS", "MGG", "S"),
            ("BH_K", "MO_K_1", "NA_K_2", "NA_K_3"), ("NA_K_4",), ("MO_K_2",), ("MO_I_2",), ("W",),
            ("SQRT_B1",),
        )
        assert report.degenerate == report.not_applicable == ()
        assert len(report.spread) == len(report.groups)
        assert all(s == 0.0 for s, g in zip(report.spread, report.groups) if len(g) == 1)

    def test_excludes_inapplicable_members(self, cauchy):
        alt = get_alternative("contam", cauchy)
        report = eff.equivalence_report(alt, 0.25)
        assert report.not_applicable == ("CM", "GAMMA", "MGG", "SQRT_B1")
        assert sorted(report.groups) == [
            ("BH_I", "MO_I_1", "NA_I_2", "NA_I_3"), ("BH_K", "MO_K_1", "NA_K_2", "NA_K_3"), ("KS", "S"),
            ("MO_I_2",), ("MO_K_2",), ("NA_I_4",), ("NA_K_4",), ("W",),
        ]
        report = eff.equivalence_report(alt, 0.5)
        assert report.degenerate == ("KS", "S")
        assert not {"KS", "S"} & {name for g in report.groups for name in g}

    def test_repeated_test_refused(self, contam_normal):
        with pytest.raises(ValueError, match="test requested more than once: W$"):
            eff.equivalence_report(contam_normal, 0.25, tests=("W", "W", "w"))
        with pytest.raises(ValueError, match="test requested more than once: KS, W$"):
            eff.equivalence_report(contam_normal, 0.25, tests=("KS", "W", "S", "ks", "W"))


#: (alpha, tests) of logistic/contam and cauchy/contam where two classes' indices lie within 1e-6
#: of each other, though their curves only cross near the level
_CROSSINGS = {
    ("logistic", "contam"): ((0.09, ("SQRT_B1", "W")), (0.2, ("BH_K", "NA_K_4")), (0.245, ("CM", "KS")),
                             (0.35, ("KS", "MO_I_2")), (0.38, ("BH_I", "BH_K")),
                             (0.445, ("MO_I_2", "MO_K_2")), (0.465, ("MO_I_2", "W"))),
    ("cauchy", "contam"): ((0.3, ("NA_K_4", "S")),),
}


@pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
@pytest.mark.parametrize("alt_name", ["contam", "fs"])
def test_report_is_the_theorem_partition(null_name, alt_name):
    # at every level of the 101-point grid the groups are the paper's classes, KS with S
    # where both KS suprema sit at t = 0 and S with the mean-median class at a = 0, and
    # every other test alone; no index value decides, so curves that cross stay apart
    alt = get_alternative(alt_name, null_name)
    grid = eff.default_grid()
    curves = {c.test: c for c in eff.index_curves(eff.DEFAULT_TESTS, alt, grid)}
    ks = curves["KS"]
    reports = eff._equivalence_reports(alt, grid)
    for i in range(0, len(grid), 20):  # the grid's reports are the one-level reports, field for field
        assert reports[i] == eff.equivalence_report(alt, float(grid[i]))
    for i, (a, report) in enumerate(zip(grid, reports)):
        label = {name: name for name in eff.DEFAULT_TESTS}
        for members in (_CLASS_INTEGRAL, _CLASS_SUP, _CLASS_MOMENT):  # the paper's classes
            label.update(dict.fromkeys(members, members[0]))
        if a == 0.0:
            label["S"] = label["CM"]
        if ks.var_argmax[i] == ks.slope_argmax[i] == 0.0:
            label["KS"] = label["S"]
        left = {name for name, c in curves.items() if c.not_applicable[i] or c.degenerate[i]}
        want = {frozenset(n for n in label if label[n] == tag and n not in left) for tag in label.values()}
        want.discard(frozenset())
        assert {frozenset(g) for g in report.groups} == want, (a, report.groups)
        assert (report.degenerate, report.not_applicable) == (
            tuple(sorted(n for n in left if curves[n].degenerate[i])),
            tuple(sorted(n for n in left if curves[n].not_applicable[i])))
        # the budget: the largest relative spread of each group's indices, pinned as measured
        for group, spread in zip(report.groups, report.spread):
            values = np.array([curves[name].index[i] for name in group])
            assert spread == (np.ptp(values) / values.max() if values.max() > 0.0 else 0.0)
            assert spread <= SPREAD_BOUND and np.ptp(values) <= 2e-14, (a, group)
    for a, pair in _CROSSINGS.get((null_name, alt_name), ()):
        i = round(a * 200)
        assert abs(curves[pair[0]].index[i] - curves[pair[1]].index[i]) <= 1e-6
        assert not any(set(pair) <= set(g) for g in reports[i].groups), (a, pair)


def test_a_null_rescaled_by_a_power_of_two_moves_no_bit():
    # c X has the bits of X times c wherever the arithmetic is equivariant: every statistic but
    # GAMMA, 2 (xbar - med), is scale-free, so its curves, null values and powers must not move,
    # and the supremum kinds' argmaxes over t move by c.  Left out: SQRT_B1 on the normal, whose
    # s**3 by np.power moves 1 of 700 null values by an ulp
    cfg, grid = McConfig(n=60, reps=700, seed=11), eff.default_grid()
    for null in map(get_null, NULL_NAMES):
        alt = get_alternative("fs", null)
        curves = eff.index_curves(eff.DEFAULT_TESTS, alt, grid)
        specs = [parse_statistic(name) for name in eff.DEFAULT_TESTS
                 if (name, null.name) != ("SQRT_B1", "normal")]
        runs = [(null_distribution(spec, null, cfg), power(spec, alt, 0.3, cfg)) for spec in specs]
        for c in (2.0**-2, 2.0**3, 2.0**10):
            scaled = get_alternative("fs", Scaled(null, c))
            for base, curve in zip(curves, eff.index_curves(eff.DEFAULT_TESTS, scaled, grid)):
                k = c if base.test == "GAMMA" else 1.0
                for field, value in (("index", 1.0), ("sigma2", k * k), ("slope", k), ("var_argmax", c),
                                     ("slope_argmax", c), ("sup_err", 1.0)):
                    assert (getattr(curve, field) / value).tobytes() == getattr(base, field).tobytes(), (
                        null.name, c, base.test, field)
            for spec, (values, level) in zip(specs, runs):
                k = c if spec.kind == "GAMMA" else 1.0
                assert (null_distribution(spec, scaled.base, cfg) / k).tobytes() == values.tobytes(), (
                    null.name, c, spec.kind)
                assert power(spec, scaled, 0.3, cfg) == level, (null.name, c, spec.kind)


class TestPowerOrdering:
    def test_index_gap_predicts_power_order(self, normal, contam_normal):
        # local index ratio above two, so the finite-sample powers must rank
        # the same way (one-sided binomial comparison at the 1% level)
        idx_w = eff.bahadur_index("W", contam_normal, 0.0)
        idx_s = eff.bahadur_index("S", contam_normal, 0.0)
        assert idx_w / idx_s > 2.0
        # theta sits inside the contamination family's monotone range (the
        # equal-weight mixture at 1/2 is symmetric, where every power is the
        # size); n = 300 keeps the comparison in the local regime
        cfg = McConfig(n=300, reps=10_000, seed=515, level=0.05)
        p_w = power(parse_statistic("W", alpha=0.0), contam_normal, 0.25, cfg)
        p_s = power(parse_statistic("S", alpha=0.0), contam_normal, 0.25, cfg)
        se = math.sqrt(
            p_w * (1 - p_w) / cfg.reps + p_s * (1 - p_s) / cfg.reps
        )
        assert p_w - p_s > 2.33 * se
