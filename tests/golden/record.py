"""Golden digests of the samplers and the Monte Carlo drivers.

Each group is one call with fixed arguments: a sampler's draws, or
``null_distribution``, ``p_value``, ``critical_value`` and ``power`` for one
statistic, run inline (one kept chunk) and on two worker threads.  Its
digest is the sha256 of the output's dtype, shape and bytes (a float's
``repr``); ``digests.json`` keeps it with the output's count and first
values, and with the numpy and scipy versions the file was recorded under,
since another version may move a quantile by an ulp.

    PYTHONPATH=src python tests/golden/record.py          # name every group that moved
    PYTHONPATH=src python tests/golden/record.py --write  # record the file anew

A change that moves a group records the file anew and says which group moved
and why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import scipy

import symlab.montecarlo as montecarlo
from symlab import critical_value, get_alternative, get_null, null_distribution, p_value, power
from symlab._rng import stream
from symlab.stats import SUPREMUM, parse_statistic

DIGESTS = Path(__file__).with_name("digests.json")

STATISTICS = ("S", "W", "KS", "BH_K", "NA_I_3", "NA_K_2", "MO_I_2", "MO_K_2", "CM", "GAMMA", "MGG",
              "SQRT_B1")
#: inline: one chunk, kept across the calls; pooled: two full chunks and a tail on two workers
RUNS = {"inline": (1, 300), "pooled": (2, 1100)}
NULLS = ("normal", "logistic", "cauchy")
N, ALPHA, T = 20, 0.25, 0.7


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _groups():
    """``(name, call)`` for every group, in the order they run."""
    for name in NULLS:
        null = get_null(name)
        fs, contam = get_alternative("fs", null), get_alternative("contam", null)
        yield f"sample/{name}", lambda: null.sample(1000, 11)
        yield f"sample/{name}/rng", lambda: null.sample(1000, 0, rng=stream(11, 3, 1))
        for theta in (0.3, -0.5):
            yield f"sample/fs/{name}/{theta}", lambda: fs.sample(theta, 1000, 11)
        yield f"sample/contam/{name}/0.3", lambda: contam.sample(0.3, 1000, 11)
    x = np.random.default_rng(5).standard_t(5, size=N)
    for (run, (_, reps)), null_name in itertools.product(RUNS.items(), NULLS):
        null = get_null(null_name)
        fs, contam = get_alternative("fs", null), get_alternative("contam", null)
        cfg = montecarlo.McConfig(n=N, reps=reps, seed=reps)
        for name in STATISTICS:
            spec = parse_statistic(name, alpha=ALPHA)
            tag = f"{null_name}/{run}/{name}"
            yield f"null_distribution/{tag}", lambda: null_distribution(spec, null, cfg)
            if spec.family == SUPREMUM:
                yield f"member/{tag}", lambda: null_distribution(spec, null, cfg, t=T)
            yield f"p_value/{tag}", lambda: p_value(spec, null, x, cfg)
            yield f"critical_value/{tag}", lambda: critical_value(spec, null, cfg)
            yield f"power/fs/{tag}", lambda: power(spec, fs, 0.4, cfg)
            yield f"power/contam/{tag}", lambda: power(spec, contam, 0.3, cfg)


def _record(value) -> dict:
    if isinstance(value, np.ndarray):
        data = f"{value.dtype}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
        return {"sha256": hashlib.sha256(data).hexdigest(), "count": int(value.size),
                "head": [repr(float(v)) for v in value.ravel()[:3]]}
    return {"sha256": hashlib.sha256(repr(value).encode()).hexdigest(), "count": 1, "head": [repr(value)]}


def digests() -> dict:
    """Every group's record, run in one process from a cold null cache."""
    usable = montecarlo._usable_cpus
    montecarlo._sorted_null.cache_clear()
    records = {}
    try:
        for name, call in _groups():
            cpus = RUNS["pooled"][0] if "/pooled/" in name else 1
            montecarlo._usable_cpus = lambda: cpus
            records[name] = _record(call())
    finally:
        montecarlo._usable_cpus = usable
    return records


def moved(recorded: dict, current: dict) -> list[str]:
    """The groups whose digest differs, or that only one side has."""
    return sorted(name for name in recorded.keys() | current.keys()
                  if recorded.get(name, {}).get("sha256") != current.get(name, {}).get("sha256"))


def main(argv: list[str]) -> int:
    current = digests()
    if "--write" in argv:
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(record)}" for name, record in current.items())
        DIGESTS.write_text(f'{{"versions": {json.dumps(versions())},\n "groups": {{\n{rows}\n}}}}\n')
        print(f"recorded {len(current)} groups under {versions()}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    if recorded["versions"] != versions():
        print(f"recorded under {recorded['versions']}, running {versions()}: digests may differ")
    names = moved(recorded["groups"], current)
    for name in names:
        print(f"moved: {name}")
    print(f"{len(names)} of {len(current)} groups moved")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
