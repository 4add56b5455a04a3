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
    asymptotic_variance,
    get_null,
    null_distribution,
    parse_statistic,
    sup_variance,
    variance_function,
)

nulls = [get_null(name) for name in ("normal", "logistic", "cauchy")]

print("limiting variance of the Wilcoxon-type statistic (W):")
print(f"{'alpha':<7}" + "".join(f"{null.name:>12}" for null in nulls))
for alpha in (0.05, 0.15, 0.25, 0.35, 0.45):
    spec = parse_statistic("W", alpha=alpha)
    row = [f"{alpha:<7}"]
    for null in nulls:
        row.append(f"{asymptotic_variance(spec, null):12.5f}")
    print("".join(row))

print("\nsimulation check (normal, alpha = 0.25, n = 2000, 4000 replications):")
spec = parse_statistic("W", alpha=0.25)
values = null_distribution(spec, get_null("normal"), McConfig(n=2000, reps=4000, seed=5))
print(f"  theory    {asymptotic_variance(spec, get_null('normal')):.5f}")
print(f"  simulated {2000 * values.var():.5f}")

print("\nKS variance function over the threshold t (normal null):")
normal = get_null("normal")
for alpha in (0.1, 0.4):
    spec = parse_statistic("KS", alpha=alpha)
    sup_val, argmax = sup_variance(spec, normal)
    ts = np.round(np.linspace(0.0, 2.0, 6), 2)
    member = variance_function(spec, normal, ts)  # one call for the whole grid
    vals = ", ".join(f"{t}:{v:.3f}" for t, v in zip(ts, member))
    print(f"  alpha={alpha}: sup={sup_val:.4f} at t={argmax:.4f}   [{vals}]")
