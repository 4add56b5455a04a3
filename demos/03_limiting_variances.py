"""Limiting variances of the centered statistics.

Tabulates the variance of a root-n scaled integral statistic across the three
null models as the trimming coefficient varies (the curves come close
together for moderate trimming), checks one value by simulation, and traces
the KS variance function over the threshold: its maximum sits at the origin
for light trimming and moves into the interior for heavy trimming.
"""

import numpy as np

from symlab import (
    McConfig,
    get_null,
    null_distribution,
    parse_statistic,
    variance_curve,
    variance_function,
)

nulls = [get_null(name) for name in ("normal", "logistic", "cauchy")]

print("limiting variance of the Wilcoxon-type statistic (W):")
print(f"{'alpha':<7}" + "".join(f"{null.name:>12}" for null in nulls))
alphas = (0.05, 0.15, 0.25, 0.35, 0.45)
columns = [variance_curve(parse_statistic("W"), null, alphas)[0] for null in nulls]  # one pass each
for i, alpha in enumerate(alphas):
    print(f"{alpha:<7}" + "".join(f"{column[i]:12.5f}" for column in columns))

print("\nsimulation check (normal, alpha = 0.25, n = 2000, 4000 replications):")
spec = parse_statistic("W", alpha=0.25)
values = null_distribution(spec, get_null("normal"), McConfig(n=2000, reps=4000, seed=5))
print(f"  theory    {variance_curve(spec, get_null('normal'), [0.25])[0][0]:.5f}")
print(f"  simulated {2000 * values.var():.5f}")

print("\nKS variance function over the threshold t (normal null):")
normal = get_null("normal")
levels = (0.1, 0.4)
sups, argmaxes, *_ = variance_curve(parse_statistic("KS"), normal, levels)  # both levels at once
for alpha, sup_val, argmax in zip(levels, sups, argmaxes):
    spec = parse_statistic("KS", alpha=alpha)
    ts = np.round(np.linspace(0.0, 2.0, 6), 2)
    member = variance_function(spec, normal, ts)  # one call for the whole grid
    vals = ", ".join(f"{t}:{v:.3f}" for t, v in zip(ts, member))
    print(f"  alpha={alpha}: sup={sup_val:.4f} at t={argmax:.4f}   [{vals}]")
