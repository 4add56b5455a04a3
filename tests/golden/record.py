"""Golden digests of the samplers, ``evaluate`` and the Monte Carlo drivers.

Each group is one call with fixed arguments: a sampler's draws, ``evaluate``
over a battery of statistics on one sample at one trimming level (refusals
recorded as the error's type and message), ``evaluate_many`` over the
counting battery and its supremum members at ``t`` on one chunk of rows (the
values of every statistic the row length admits, one after another), or
``null_distribution``, ``p_value``, ``critical_value`` and ``power`` for one
statistic, run inline (one kept chunk) and on two worker threads.  Its
digest is the sha256 of the output's dtype, shape and bytes (a float's
``repr``); ``digests.json`` keeps it with the output's count and first
values, and with the numpy and scipy versions the file was recorded under,
since another version may move a quantile by an ulp.  Under other versions
each group's count and first values are compared instead: numbers to 1e-12
relative, any other token exactly.

    PYTHONPATH=src python tests/golden/record.py          # name every group that moved
    PYTHONPATH=src python tests/golden/record.py --write  # record the file anew

A change that moves a group records the file anew and says which group moved
and why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

import symlab.montecarlo as montecarlo
from symlab import (critical_value, evaluate, evaluate_many, get_alternative, get_null, null_distribution,
                    p_value, power)
from symlab._rng import stream
from symlab.efficiency import DEFAULT_TESTS
from symlab.stats import MOMENT, SUPREMUM, parse_statistic

DIGESTS = Path(__file__).with_name("digests.json")

STATISTICS = ("S", "W", "KS", "BH_K", "NA_I_3", "NA_K_2", "MO_I_2", "MO_K_2", "CM", "GAMMA", "MGG",
              "SQRT_B1")
#: inline: one chunk, kept across the calls; pooled: two full chunks and a tail on two workers
RUNS = {"inline": (1, 300), "pooled": (2, 1100)}
NULLS = ("normal", "logistic", "cauchy")
N, ALPHA, T = 20, 0.25, 0.7
#: ``evaluate`` groups: one battery per data kind, size and level, in this order, so that the
#: statistics after the first read the sample's kept entry
BATTERY = (*DEFAULT_TESTS, "NA_K_10", "MO_K_3", "NA_I_5")
EVALUATE_DATA = ("normal", "tied", "signed-zero")
EVALUATE_SIZES = (7, 14, 100, 1000, 20000)
EVALUATE_ALPHAS = (0.0, 0.25, 0.5)
#: ``evaluate_many`` groups: the counting statistics of ``BATTERY`` on chunks of ``(rows, n)``, then
#: every supremum kind's member at ``T``
CHUNK_BATTERY = tuple(name for name in (*DEFAULT_TESTS, "NA_K_10", "MO_K_3")
                      if parse_statistic(name).family != MOMENT)
CHUNK_SHAPES = ((88, 7), (88, 14), (88, 100), (512, 7), (512, 14), (512, 100), (100, 2000))
#: values put at one place of a normal sample of 100: refused by every statistic, then by the
#: counting ones, by the moment ones, and by SQRT_B1 alone
REFUSED_VALUES = (np.nan, np.inf, -np.inf, 1e308, 1e153, 1e102)


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def evaluate_data(kind: str, n: int) -> np.ndarray:
    """A sample of ``n``: normal, small integers, or halves in exact +-v pairs with zeros of both signs."""
    rng = np.random.default_rng([n, EVALUATE_DATA.index(kind)])
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "tied":
        return rng.integers(-3, 4, size=n).astype(float)
    v = rng.integers(-4, 5, size=n // 2) / 2.0
    x = rng.permutation(np.concatenate([v, -v, np.zeros(n % 2)]))
    zero = x == 0.0
    x[zero] = rng.choice([0.0, -0.0], size=np.count_nonzero(zero))
    return x


def _outcome(call) -> str:
    try:
        value = call()
    except ValueError as error:
        return f"{type(error).__name__}: {error}"
    return f"{value.value!r} {value.sup_argument!r}"


def _battery(x: np.ndarray, alpha: float) -> list[str]:
    return [_outcome(lambda: evaluate(parse_statistic(name, alpha=alpha), x)) for name in BATTERY]


def _chunk(x: np.ndarray, alpha: float) -> np.ndarray:
    specs = [parse_statistic(name, alpha=alpha) for name in CHUNK_BATTERY]
    calls = [(spec, None) for spec in specs] + [(spec, T) for spec in specs if spec.family == SUPREMUM]
    return np.concatenate([evaluate_many(spec, x, t) for spec, t in calls if spec.kernel_order <= x.shape[1]])


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
    for kind, n in itertools.product(EVALUATE_DATA, EVALUATE_SIZES):
        sample = evaluate_data(kind, n)
        for alpha in EVALUATE_ALPHAS:
            yield f"evaluate/{kind}/{n}/{alpha}", lambda: _battery(sample, alpha)
    for kind, (rows, n) in itertools.product(EVALUATE_DATA, CHUNK_SHAPES):
        chunk = evaluate_data(kind, rows * n).reshape(rows, n)
        for alpha in EVALUATE_ALPHAS:
            yield f"evaluate_many/{kind}/{rows}x{n}/{alpha}", lambda: _chunk(chunk, alpha)
    for bad in REFUSED_VALUES:
        sample = evaluate_data("normal", 100)
        sample[37] = bad
        yield f"evaluate/refused/{bad!r}", lambda: _battery(sample, ALPHA)
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
    if isinstance(value, list):
        return {"sha256": hashlib.sha256(repr(value).encode()).hexdigest(), "count": len(value),
                "head": value[:3]}
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


def _near(old: str, new: str) -> bool:
    """Two recorded values alike token by token: numbers to 1e-12 relative, other tokens exactly."""
    def token_near(a, b):
        try:
            return a == b or math.isclose(float(a), float(b), rel_tol=1e-12)
        except ValueError:
            return False
    return len(old.split()) == len(new.split()) and all(map(token_near, old.split(), new.split()))


def drifted(recorded: dict, current: dict) -> list[str]:
    """The groups whose count or first values differ (:func:`_near`), or that only one side has."""
    def alike(old, new):
        return (old is not None and new is not None and old["count"] == new["count"]
                and len(old["head"]) == len(new["head"]) and all(map(_near, old["head"], new["head"])))
    return sorted(name for name in recorded.keys() | current.keys()
                  if not alike(recorded.get(name), current.get(name)))


def changed(recorded: dict, current: dict) -> list[str]:
    """The groups that moved: by digest under the recorded numpy and scipy, else by :func:`drifted`."""
    if recorded["versions"] == versions():
        return moved(recorded["groups"], current)
    return drifted(recorded["groups"], current)


def main(argv: list[str]) -> int:
    current = digests()
    if "--write" in argv:
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(record)}" for name, record in current.items())
        DIGESTS.write_text(f'{{"versions": {json.dumps(versions())},\n "groups": {{\n{rows}\n}}}}\n')
        print(f"recorded {len(current)} groups under {versions()}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    if recorded["versions"] != versions():
        print(f"recorded under {recorded['versions']}, running {versions()}: "
              "comparing counts and first values")
    names = changed(recorded, current)
    for name in names:
        print(f"moved: {name}")
    print(f"{len(names)} of {len(current)} groups moved")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
