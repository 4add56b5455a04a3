"""Symmetry tests around a trimmed-mean center.

Exact finite-sample test statistics, their limiting variances and local
slopes under close asymmetric alternatives, local Bahadur efficiency index
curves over the trimming coefficient, and a seeded Monte Carlo harness.
"""

from .asymptotics import (
    projection,
    slope_curve,
    slope_function,
    variance_curve,
    variance_function,
)
from .distributions import (
    AlternativeFamily,
    Cauchy,
    Contamination,
    FernandezSteel,
    Logistic,
    Normal,
    SymmetricNull,
    get_alternative,
    get_null,
)
from .efficiency import (
    IndexCurve,
    ZeroEfficiencyResult,
    bahadur_index,
    equivalence_report,
    index_curves,
    ks_s_equivalence_crossover,
    zero_efficiency_alpha,
)
from .errors import DegenerateSampleError, InsufficientSampleError, NotApplicableError
from .location import (
    influence_curve,
    population_trimmed_mean,
    trim_weights,
    trimmed_mean,
    trimmed_mean_derivative,
)
from .montecarlo import McConfig, critical_value, null_distribution, p_value, power
from .stats import (
    StatisticSpec,
    StatisticValue,
    brute_force,
    evaluate,
    evaluate_many,
    parse_statistic,
)

__all__ = [
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
