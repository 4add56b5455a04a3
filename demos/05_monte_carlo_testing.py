"""Monte Carlo calibration: critical values, p-values, size and power.

No statistic here is distribution free once the center is estimated, so
critical values are simulated per null model.  The harness is deterministic
given the seed and splits calibration from evaluation streams.  Size and
power print with their Monte Carlo standard errors.
"""

import math

from symlab import (
    McConfig,
    critical_value,
    get_alternative,
    get_null,
    p_value,
    parse_statistic,
    power,
)

normal = get_null("normal")
fs = get_alternative("fs", normal)
spec = parse_statistic("W", alpha=0.25)
cfg = McConfig(n=100, reps=5000, seed=11, level=0.05)

print(f"critical value of |{spec.label}| at level {cfg.level}: "
      f"{critical_value(spec, normal, cfg):.5f}")

sample = fs.sample(theta=0.7, n=100, seed=3)
print(f"skewed sample of n=100: p-value = {p_value(spec, normal, sample, cfg):.4f}")

sym = normal.sample(100, 4)
print(f"symmetric sample of n=100: p-value = {p_value(spec, normal, sym, cfg):.4f}")


def with_se(p):
    """A rejection rate with its Monte Carlo standard error sqrt(p(1 - p)/reps)."""
    return f"{p:.3f} +- {math.sqrt(p * (1.0 - p) / cfg.reps):.3f}"


print("\nsize and power against the two-piece family (theta = 0.4):")
for name in ("S", "W", "KS", "NA_I_4", "MO_K_2", "SQRT_B1"):
    sp = parse_statistic(name, alpha=0.25)
    size = power(sp, fs, 0.0, cfg)
    pw = power(sp, fs, 0.4, cfg)
    print(f"  {name:<8} size={with_se(size)}  power={with_se(pw)}")
