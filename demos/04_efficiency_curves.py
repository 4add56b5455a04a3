"""Local Bahadur index curves over the trimming coefficient.

Reproduces the content of the comparison study as machine-readable tables:
index curves per test, the equivalence classes, zero-efficiency trimming
levels of the integral-type tests, and the trimming region on which the KS
and sign tests coincide.  Writes a long-format CSV next to this script.
"""

import csv
from pathlib import Path

import numpy as np

from symlab import (
    bahadur_index,
    equivalence_report,
    get_alternative,
    index_curves,
    ks_s_equivalence_crossover,
    zero_efficiency_alpha,
)

alt = get_alternative("contam", "normal")
tests = ["S", "W", "KS", "BH_I", "BH_K", "NA_I_4", "NA_K_4", "MO_I_2", "MO_K_2", "CM", "SQRT_B1"]
grid = np.linspace(0.0, 0.5, 26)

print("Bahadur indices, normal null vs contamination (selected trimming levels):")
show = (0.0, 0.1, 0.25, 0.4, 0.5)
print(f"{'test':<9}" + "".join(f"  a={a:<6}" for a in show))
curves = dict(zip(tests, index_curves(tests, alt, grid)))  # one pass for all tests
for name in tests:
    row = [f"{name:<9}"]
    for a in show:
        i = int(np.argmin(np.abs(grid - a)))
        value = curves[name].index[i]
        row.append("   degen " if curves[name].degenerate[i] else f"  {value:.5f}")
    print("".join(row))

out = Path(__file__).with_name("efficiency_curves_normal_contam.csv")
with open(out, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["test", "alpha", "index", "degenerate"])
    for name, curve in curves.items():
        for a, value, degen, na in curve.rows():
            writer.writerow([name, f"{a:.12g}", f"{value:.12g}", str(degen or na).lower()])
print(f"\nwrote {out}")

print("\nequivalence classes at alpha = 0 (proportional first projections):")
for group in equivalence_report(alt, 0.0).groups:
    if len(group) > 1:
        print("  ~ ".join(group))

print("\nzero-efficiency trimming levels (integral-type tests):")
for name in ("S", "W", "BH_I", "NA_I_4", "MO_I_2"):
    result = zero_efficiency_alpha(name, alt)
    if result.found:
        print(f"  {name:<8} index vanishes at alpha = {result.alpha:.4f}")
    else:
        print(f"  {name:<8} no interior zero (the sign test's zero sits at alpha = 1/2)")

crossover = ks_s_equivalence_crossover(alt)
print(f"\nKS equals S for trimming below {crossover:.3f}:")
for a in (0.0, crossover):
    print(f"  alpha={a:.3f}: KS={bahadur_index('KS', alt, a):.6f}  S={bahadur_index('S', alt, a):.6f}")
