"""The package exports one public reader per quantity."""

import inspect

import pytest

import symlab
from symlab import _oracles, _quad, asymptotics, efficiency, stats

PUBLIC = [
    "AlternativeFamily",
    "Cauchy",
    "Contamination",
    "DegenerateSampleError",
    "FernandezSteel",
    "IndexCurve",
    "InsufficientSampleError",
    "Logistic",
    "McConfig",
    "Normal",
    "NotApplicableError",
    "StatisticSpec",
    "StatisticValue",
    "SymmetricNull",
    "ZeroEfficiencyResult",
    "bahadur_index",
    "brute_force",
    "critical_value",
    "equivalence_report",
    "evaluate",
    "evaluate_many",
    "get_alternative",
    "get_null",
    "index_curves",
    "influence_curve",
    "ks_s_equivalence_crossover",
    "null_distribution",
    "p_value",
    "parse_statistic",
    "population_trimmed_mean",
    "power",
    "projection",
    "slope_curve",
    "slope_function",
    "trim_weights",
    "trimmed_mean",
    "trimmed_mean_derivative",
    "variance_curve",
    "variance_function",
    "zero_efficiency_alpha",
]

# one level of a curve, one test of index_curves, one row of evaluate_many; and the tolerances
# that equivalence and degeneracy by theorem replaced
RETIRED = (
    "evaluate_family_member",
    "asymptotic_variance",
    "sup_variance",
    "slope_derivative",
    "sup_slope",
    "report_curve",
    "report_curves",
    "index_curve",
    "EQUIVALENCE_TOL",
    "DEGENERACY_TOL",
    "sqrtb1_slope",
)
#: the second formula of each supremum member, retired for :func:`symlab.asymptotics._members`, and
#: the second copy of a member's pieces: KS's sign table and the weight's derivative, now :func:`_weight`'s
RETIRED_MEMBER_FORMULAS = ("_member_variance", "_member_slope", "_variance_scan", "_slope_scan",
                           "_SUP_SIGN", "_weight_derivative")
#: retired parameters, the private ones that every caller left at one value too
RETIRED_PARAMETERS = {
    efficiency.equivalence_report: ("tol",),
    efficiency.zero_efficiency_alpha: ("scan_points",),
    asymptotics._sup_over_t: ("tol",),
    asymptotics._thresholds: ("derivative",),
    asymptotics._by_test: ("derivative",),
    asymptotics._cross: ("derivative",),
    asymptotics._free_variance: ("derivative",),
    asymptotics._free_slope: ("derivative",),
    _quad.graded: ("nodes",),
    _oracles.population_slope_fd: ("theta",),
}
#: retired members of the public classes, which nothing but their own tests called
RETIRED_MEMBERS = {efficiency.IndexCurve: ("to_json",), asymptotics.Projection: ("order",)}


def test_package_exports_exactly_the_public_readers():
    assert len(PUBLIC) == 40
    assert symlab.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(symlab, name) is not None


@pytest.mark.parametrize("module", [symlab, stats, asymptotics, efficiency])
def test_retired_readers_are_gone(module):
    for name in RETIRED:
        assert not hasattr(module, name), name
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), name


def test_retired_member_formulas_are_gone():
    for name in RETIRED_MEMBER_FORMULAS:
        assert not hasattr(asymptotics, name), name


def test_retired_parameters_are_gone():
    for function, names in RETIRED_PARAMETERS.items():
        assert not set(names) & set(inspect.signature(function).parameters), function.__name__


def test_retired_members_are_gone():
    for cls, names in RETIRED_MEMBERS.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_moment_slopes_are_not_exported():
    # the moment tests' variance and slope are read from their IndexCurve, like every other test's
    for name in ("cm_family_slope", "sqrtb1_slope"):
        assert name not in asymptotics.__all__
        assert not hasattr(symlab, name)
