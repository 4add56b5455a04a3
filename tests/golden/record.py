"""Golden digests of the samplers, ``evaluate`` and the Monte Carlo drivers.

Each group is one call with fixed arguments: a sampler's draws, ``evaluate``
over a battery of statistics on one sample at one trimming level (refusals
recorded as the error's type and message), ``evaluate_many`` over the
counting battery and its supremum members at ``t`` on one chunk of rows (the
values of every statistic the row length admits, one after another), or
``null_distribution``, ``p_value``, ``critical_value`` and ``power`` for one
statistic, run inline (one kept chunk) and on two worker threads, and the
supremum defaults' members on one kept 100 x 700 draw, whose 70,000 values a
second CPU would split by rows.  The
asymptotic layer adds every array field of the ``IndexCurve`` but ``sup_err`` of
each of the 19 defaults on each model pair, ``variance_curve`` of each non-moment
default on each null and ``slope_curve`` on each model pair on their own
trimming grid (value, argmax and error estimate in one group, not the resolution
of the search over ``t``, which any change to the search moves), and
``variance_function`` and ``slope_function`` of each supremum default on a
fixed ``t`` grid, and ``influence_curve`` of each null at four trimming levels
on a fixed ``x`` grid; the
command line adds the bytes ``symlab index``, ``symlab variance`` and
``symlab test --json`` print and write (one group per stream or file, as
lines with their ends, the output directory and the tool version
normalised).  Its digest is the sha256 of the output's dtype, shape and
bytes (a float's ``repr``); ``digests.json`` keeps it with the output's count
and first values, and with the numpy and scipy versions the file was
recorded under, since another version may move a quantile by an ulp.  Under
other versions each group's count and first values are compared instead:
numbers to 1e-12 relative, any other token exactly.

``digests.json`` also keeps the detail string of each ``symlab validate
--suite quick`` check.  ``tests/test_acceptance.py`` runs those checks anyway
and compares each detail with :func:`detail_alike`; this script reruns the
suite (about 8 s) to name the checks whose detail moved.

    PYTHONPATH=src python tests/golden/record.py          # name every group that moved
    PYTHONPATH=src python tests/golden/record.py --write  # record the file anew

A change that moves a group records the file anew and says which group moved
and why.  After naming the moved groups the script counts them per family (the
name's first part, and the command for ``cli`` groups) with the largest
relative move of a recorded first value, and the largest over all of them,
apart for the values and for the ``quad_err`` groups: an error estimate may
move by a large part of itself where the values it bounds move by an ulp.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import symlab.montecarlo as montecarlo
from symlab import (critical_value, evaluate, evaluate_many, get_alternative, get_null, null_distribution,
                    p_value, power)
from symlab import _threads, cli
from symlab._rng import stream
from symlab.asymptotics import slope_curve, slope_function, variance_curve, variance_function
from symlab.efficiency import DEFAULT_TESTS, index_curves
from symlab.location import influence_curve
from symlab.stats import MOMENT, SUPREMUM, parse_statistic

DIGESTS = Path(__file__).with_name("digests.json")

STATISTICS = ("S", "W", "KS", "BH_K", "NA_I_3", "NA_K_2", "MO_I_2", "MO_K_2", "CM", "GAMMA", "MGG",
              "SQRT_B1")
#: inline: one chunk, kept across the calls; pooled: two full chunks and a tail on two workers
RUNS = {"inline": (1, 300), "pooled": (2, 1100)}
#: ``(reps, n)`` of the one-chunk member group whose draw has more than 2**16 values
LONG_DRAW = (100, 700)
LONG_MEMBERS = f"member/normal/{LONG_DRAW[0]}x{LONG_DRAW[1]}"
NULLS = ("normal", "logistic", "cauchy")
N, ALPHA, T = 20, 0.25, 0.7
#: ``evaluate`` groups: one battery per data kind, size and level, in this order, so that the
#: statistics after the first read the sample's kept entry
BATTERY = (*DEFAULT_TESTS, "NA_K_10", "MO_K_3", "NA_I_5")
EVALUATE_DATA = ("normal", "tied", "signed-zero")
EVALUATE_SIZES = (7, 14, 100, 1000, 20000)
EVALUATE_ALPHAS = (0.0, 0.25, 0.5)
#: ``evaluate`` groups past the int64 tables: at this n the p = 4 band tables hold Python ints
LONG_N, LONG_BATTERY = 102_572, (*DEFAULT_TESTS, "NA_K_10", "MO_K_3")
#: ``evaluate_many`` groups: the counting statistics of ``BATTERY`` on chunks of ``(rows, n)``, then
#: every supremum kind's member at ``T``
CHUNK_BATTERY = tuple(name for name in (*DEFAULT_TESTS, "NA_K_10", "MO_K_3")
                      if parse_statistic(name).family != MOMENT)
CHUNK_SHAPES = ((88, 7), (88, 14), (88, 100), (512, 7), (512, 14), (512, 100), (100, 2000))
#: values put at one place of a normal sample of 100: refused by every statistic, then by the
#: counting ones, by the moment ones, and by SQRT_B1 alone
REFUSED_VALUES = (np.nan, np.inf, -np.inf, 1e308, 1e153, 1e102)
ALTERNATIVES = ("contam", "fs")
#: the array fields of an ``IndexCurve`` past its grid, one group each per test and model pair
CURVE_FIELDS = ("index", "degenerate", "not_applicable", "sigma2", "slope", "var_argmax", "slope_argmax",
                "quad_err")
#: ``variance_curve`` and ``slope_curve`` groups: each non-moment default on this grid, whose
#: interior levels are off the ``IndexCurve`` groups' 101-point grid
CURVE_TESTS = tuple(name for name in DEFAULT_TESTS if parse_statistic(name).family != MOMENT)
CURVE_LEVELS = np.linspace(0.0, 0.5, 22)
#: ``variance_function`` and ``slope_function`` groups: each supremum default at ``ALPHA`` on this grid
MEMBER_TESTS = tuple(name for name in DEFAULT_TESTS if parse_statistic(name).family == SUPREMUM)
MEMBER_T = np.linspace(0.0, 6.0, 61)
#: ``influence_curve`` groups: each null at each of these levels on this ``x`` grid (or its refusal)
INFLUENCE_LEVELS = (0.0, 0.1, 0.25, 0.5)
INFLUENCE_X = np.array([-np.inf, -10.0, -2.5, -1.0, -0.3, -0.0, 0.0, 0.3, 1.0, 2.5, 10.0, np.inf])
#: command-line groups: ``(tag, argv, files)``, ``{dir}`` the output directory; each run's exit code
#: and console output make one group, and each of ``files`` one more
CLI_RUNS = (
    *((f"index/{null}/{alt}", ["index", "--null", null, "--alt", alt, "-o", "{dir}/idx.csv"],
       ("idx.csv", "idx_NA_I_3.csv", "idx.csv.manifest.json"))
      for null, alt in (("normal", "contam"), ("cauchy", "fs"))),
    ("variance/grid", ["variance", "--null", ",".join(NULLS), "--stat", "NA_I_4", "-o", "{dir}/var.csv"],
     ("var.csv", "var.csv.manifest.json")),
    ("variance/over_t", ["variance", "--null", ",".join(NULLS), "--stat", "KS", "--over-t", "--alpha",
                         str(ALPHA), "-o", "{dir}/var.csv"], ("var.csv", "var.csv.manifest.json")),
    *((f"test/{name}", ["test", "{dir}/data.txt", "--stat", name, "--alpha", str(ALPHA), "--reps", "600",
                        "--json"], ()) for name in ("W", "NA_I_3", "KS")),
)


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


def _or_refusal(call):
    """``call()``, or the type and message of the ``ValueError`` it raised."""
    try:
        return call()
    except ValueError as error:
        return f"{type(error).__name__}: {error}"


def _outcome(call) -> str:
    value = _or_refusal(call)
    return value if isinstance(value, str) else f"{value.value!r} {value.sup_argument!r}"


def _battery(x: np.ndarray, alpha: float, names=BATTERY) -> list[str]:
    return [_outcome(lambda: evaluate(parse_statistic(name, alpha=alpha), x)) for name in names]


def _chunk(x: np.ndarray, alpha: float) -> np.ndarray:
    specs = [parse_statistic(name, alpha=alpha) for name in CHUNK_BATTERY]
    calls = [(spec, None) for spec in specs] + [(spec, T) for spec in specs if spec.family == SUPREMUM]
    return np.concatenate([evaluate_many(spec, x, t) for spec, t in calls if spec.kernel_order <= x.shape[1]])


def _cli(argv: list[str]) -> dict[str, list[str]]:
    """``symlab argv`` in a fresh directory holding a sample of 40: its exit code, stdout and stderr
    under ``"console"``, and every file it wrote, as lines with their ends, ``{dir}`` and the version
    normalised."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "data.txt").write_text("\n".join(map(repr, evaluate_data("normal", 40).tolist())) + "\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([arg.replace("{dir}", tmp) for arg in argv])
        texts = {"console": f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"}
        texts |= {path.name: path.read_bytes().decode() for path in Path(tmp).iterdir() if path.name != "data.txt"}
    version = f'"tool_version": {json.dumps(cli._version())}'
    return {name: text.replace(tmp, "{dir}").replace(version, '"tool_version": "{version}"').splitlines(True)
            for name, text in texts.items()}


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
    for kind in EVALUATE_DATA[:2]:
        sample = evaluate_data(kind, LONG_N)
        yield f"evaluate/{kind}/{LONG_N}/{ALPHA}", lambda: _battery(sample, ALPHA, LONG_BATTERY)
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
    long_draw = montecarlo.McConfig(n=LONG_DRAW[1], reps=LONG_DRAW[0], seed=LONG_DRAW[1])
    yield LONG_MEMBERS, lambda: np.concatenate([
        null_distribution(parse_statistic(name, alpha=ALPHA), get_null("normal"), long_draw, t=T)
        for name in MEMBER_TESTS])
    for null_name, alt_name in itertools.product(NULLS, ALTERNATIVES):
        alt = get_alternative(alt_name, get_null(null_name))
        curves = functools.cache(lambda: index_curves(DEFAULT_TESTS, alt))
        for i, field in itertools.product(range(len(DEFAULT_TESTS)), CURVE_FIELDS):
            yield (f"index_curve/{null_name}/{alt_name}/{DEFAULT_TESTS[i]}/{field}",
                   lambda: getattr(curves()[i], field))
    for null_name, name in itertools.product(NULLS, CURVE_TESTS):
        null, spec = get_null(null_name), parse_statistic(name)
        yield f"variance_curve/{null_name}/{name}", lambda: np.stack(variance_curve(spec, null, CURVE_LEVELS)[:3])
        for alt_name in ALTERNATIVES:
            alt = get_alternative(alt_name, null)
            yield (f"slope_curve/{null_name}/{alt_name}/{name}",
                   lambda: np.stack(slope_curve(spec, alt, CURVE_LEVELS)[:3]))
    for null_name, name in itertools.product(NULLS, MEMBER_TESTS):
        null, spec = get_null(null_name), parse_statistic(name, alpha=ALPHA)
        yield f"variance_function/{null_name}/{name}", lambda: variance_function(spec, null, MEMBER_T)
        for alt_name in ALTERNATIVES:
            alt = get_alternative(alt_name, null)
            yield f"slope_function/{null_name}/{alt_name}/{name}", lambda: slope_function(spec, alt, MEMBER_T)
    for null_name, alpha in itertools.product(NULLS, INFLUENCE_LEVELS):
        null = get_null(null_name)
        yield (f"influence_curve/{null_name}/{alpha}",
               lambda: _or_refusal(lambda: influence_curve(null, alpha, INFLUENCE_X)))
    for tag, argv, files in CLI_RUNS:
        run = functools.cache(lambda: _cli(argv))
        for part in ("console", *files):
            yield f"cli/{tag}/{part}", lambda: run()[part]


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
    usable = _threads._usable_cpus
    montecarlo._sorted_null.cache_clear()
    records = {}
    try:
        for name, call in _groups():
            cpus = RUNS["pooled"][0] if "/pooled/" in name else 1
            _threads._usable_cpus = lambda: cpus
            records[name] = _record(call())
    finally:
        _threads._usable_cpus = usable
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


def validate_details() -> dict:
    """The detail string of each ``symlab validate --suite quick`` check, by name."""
    from symlab.validate import DEFAULT_SEED, run_suite

    return {result.name: result.detail for result in run_suite("quick", DEFAULT_SEED)}


def detail_alike(recorded: dict, name: str, detail: str) -> bool:
    """Whether check ``name`` printed its recorded detail: exactly under the recorded numpy and scipy,
    else by :func:`_near`."""
    old = recorded["validate"].get(name)
    if recorded["versions"] == versions():
        return old == detail
    return old is not None and detail is not None and _near(old, detail)


def changed(recorded: dict, current: dict) -> list[str]:
    """The groups that moved: by digest under the recorded numpy and scipy, else by :func:`drifted`."""
    if recorded["versions"] == versions():
        return moved(recorded["groups"], current)
    return drifted(recorded["groups"], current)


def family(name: str) -> str:
    """A group's family: the first part of its name, with the command for ``cli`` groups."""
    parts = name.split("/")
    return "/".join(parts[:2]) if parts[0] == "cli" else parts[0]


def first_value_move(old: dict | None, new: dict | None) -> float:
    """The largest relative move among the numeric tokens of two records' first values (0.0 if none
    moved, inf where a zero moved or where the two do not line up token for token)."""
    if old is None or new is None:
        return math.inf
    split = [[re.split(r"[\s,]+", str(value)) for value in record["head"]] for record in (old, new)]
    pairs = [(a, b) for x, y in zip(*split) for a, b in itertools.zip_longest(x, y)]
    if len(split[0]) != len(split[1]) or any(a is None or b is None for a, b in pairs):
        return math.inf
    largest = 0.0
    for a, b in pairs:
        try:
            a, b = float(a), float(b)
        except ValueError:
            largest = largest if a == b else math.inf
            continue
        if a != b and not (math.isnan(a) and math.isnan(b)):
            largest = max(largest, abs(b - a) / abs(a) if a else math.inf)
    return largest


def is_estimate(name: str) -> bool:
    """Whether group ``name`` holds quadrature error estimates, not values."""
    return name.endswith("/quad_err")


def summary(recorded: dict, current: dict, names: list[str]) -> list[str]:
    """Per family of the moved ``names``: the count and largest first-value move of its value groups,
    then of its ``quad_err`` groups (:func:`is_estimate`), each line where it has any."""
    lines, by_family = [], {}
    for name in names:
        by_family.setdefault((family(name), is_estimate(name)), []).append(name)
    for (tag, estimate), members in sorted(by_family.items()):
        move = max(first_value_move(recorded.get(name), current.get(name)) for name in members)
        lines.append(f"{tag} {'quad_err' if estimate else 'values'}: {len(members)} moved, "
                     f"largest relative move of a first value {move:.3g}")
    return lines


def _rows(mapping: dict) -> str:
    return ",\n".join(f"  {json.dumps(name)}: {json.dumps(value)}" for name, value in mapping.items())


def main(argv: list[str]) -> int:
    current, details = digests(), validate_details()
    if "--write" in argv:
        DIGESTS.write_text(f'{{"versions": {json.dumps(versions())},\n "validate": {{\n{_rows(details)}\n}},\n'
                           f' "groups": {{\n{_rows(current)}\n}}}}\n')
        print(f"recorded {len(current)} groups and {len(details)} validate details under {versions()}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    if recorded["versions"] != versions():
        print(f"recorded under {recorded['versions']}, running {versions()}: "
              "comparing counts and first values")
    names = changed(recorded, current) + sorted(
        f"validate/{name}" for name in recorded["validate"].keys() | details.keys()
        if not detail_alike(recorded, name, details.get(name)))
    for name in names:
        print(f"moved: {name}")
    groups = [name for name in names if not name.startswith("validate/")]
    for line in summary(recorded["groups"], current, groups):
        print(line)
    if checks := [name for name in names if name.startswith("validate/")]:
        print(f"validate: {len(checks)} details moved")
    largest = {False: 0.0, True: 0.0}  # values, quad_err estimates
    for name in groups:
        move = first_value_move(recorded["groups"].get(name), current.get(name))
        largest[is_estimate(name)] = max(largest[is_estimate(name)], move)
    print(f"{len(names)} of {len(current) + len(details)} groups moved; largest relative move of a first "
          f"value {largest[False]:.3g}, of a quad_err estimate {largest[True]:.3g}")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
