"""Command-line front end.

Subcommands
-----------
``symlab test``      evaluate a statistic on a data file, with Monte Carlo
                     p-value and critical value
``symlab index``     emit Bahadur index curves over a trimming grid as CSV
``symlab variance``  emit limiting-variance curves (over the trimming grid,
                     or over the threshold with ``--over-t``)
``symlab validate``  run the validation suite and report pass/fail

Exit codes: 0 success, 1 validation failure, 2 input error, 3 not-applicable
request.  Every output file is accompanied by ``<file>.manifest.json``
recording the command, parameters, seed and tool version.  Numbers are
written with 12 significant digits so CSV outputs round-trip.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from . import asymptotics as asy
from . import efficiency as eff
from . import montecarlo as mc
from ._rng import DEFAULT_SEED
from .distributions import ALTERNATIVE_NAMES, NULL_NAMES, get_alternative, get_null
from .errors import NotApplicableError
from .stats import MOMENT, SUPREMUM, evaluate, parse_statistic

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3


def _version() -> str:
    try:
        return metadata.version("symlab")
    except metadata.PackageNotFoundError:  # pragma: no cover - dev tree
        return "0.0.0"


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".12g")


def _write_manifest(out_path: Path, command: str, params: dict, seed: int | None, outputs):
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "tool_version": _version(),
        "outputs": [str(p) for p in outputs],
    }
    path = out_path.with_name(out_path.name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _read_data(path: str, col: str | None) -> np.ndarray:
    text_path = Path(path)
    if not text_path.exists():
        raise OSError(f"data file not found: {path}")
    if col is not None:
        with open(text_path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or col not in reader.fieldnames:
                raise ValueError(f"column {col!r} not found in {path}")
            values = [row[col] for row in reader]
    else:
        values = []
        for line in text_path.read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                values.append(line)
    try:
        data = np.asarray([float(v) for v in values])
    except ValueError as exc:
        raise ValueError(f"non-numeric entry in {path}: {exc}") from None
    if data.size == 0:
        raise ValueError(f"no numeric data in {path}")
    return data


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_test(args) -> int:
    try:
        data = _read_data(args.data, args.col)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    null = get_null(args.null)
    try:
        spec = parse_statistic(args.stat, alpha=args.alpha)
        asy.applicability(spec, null)
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        cfg = mc.McConfig(n=data.size, reps=args.reps, seed=args.seed, level=args.level)
        result = evaluate(spec, data)
        pval = mc.p_value(spec, null, data, cfg)
        crit = mc.critical_value(spec, null, cfg)
    except ValueError as exc:  # bad --reps/--level; too short, degenerate or non-finite sample
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = {
        "statistic": spec.label,
        "alpha": spec.alpha,
        "null": null.name,
        "n": int(data.size),
        "value": result.value,
        "sup_argument": result.sup_argument,
        "p_value": pval,
        "critical_value": crit,
        "level": args.level,
        "reps": args.reps,
        "seed": args.seed,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"statistic      {spec.label} (alpha={_fmt(spec.alpha)}, null={null.name})")
        print(f"value          {_fmt(result.value)}")
        if result.sup_argument is not None:
            print(f"sup argument   {_fmt(result.sup_argument)}")
        print(f"p-value        {_fmt(pval)}   ({args.reps} replications, seed {args.seed})")
        print(f"critical value {_fmt(crit)}   (level {_fmt(args.level)})")
    return EXIT_OK


def _grid_from_arg(points: int) -> np.ndarray:
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(0.0, 0.5, points)


def _cmd_index(args) -> int:
    try:
        null = get_null(args.null)
        alt = get_alternative(args.alt, null)
        tests = [t.strip() for t in args.tests.split(",") if t.strip()]
        if not tests:
            raise ValueError("no tests requested")
        grid = _grid_from_arg(args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    curves = []
    all_na = True
    for name in tests:
        curve = eff.index_curve(name, alt, grid)
        curves.append(curve)
        if not curve.not_applicable.all():
            all_na = False

    outputs = []
    for curve in curves:
        per_test = out.with_name(f"{out.stem}_{curve.test}{out.suffix or '.csv'}")
        with open(per_test, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "index", "degenerate"])
            for a, v, degen, na in curve.rows():
                writer.writerow([_fmt(a), _fmt(v), str(degen or na).lower()])
        outputs.append(per_test)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test", "alpha", "index", "degenerate"])
        for curve in curves:
            for a, v, degen, na in curve.rows():
                writer.writerow([curve.test, _fmt(a), _fmt(v), str(degen or na).lower()])
    outputs.append(out)
    _write_manifest(
        out,
        "index",
        {
            "null": null.name,
            "alt": alt.kind,
            "tests": tests,
            "grid_points": args.grid,
            "not_applicable": [c.test for c in curves if c.not_applicable.all()],
        },
        args.seed,
        outputs,
    )
    for path in outputs:
        print(f"wrote {path}")
    return EXIT_NOT_APPLICABLE if all_na else EXIT_OK


def _variance_at(spec, null) -> float:
    if spec.family == SUPREMUM:
        value, _ = asy.sup_variance(spec, null)
        return value
    return asy.asymptotic_variance(spec, null)


def _cmd_variance(args) -> int:
    try:
        nulls = [get_null(name.strip()) for name in args.null.split(",") if name.strip()]
        if not nulls:
            raise ValueError("no null models requested")
        spec0 = parse_statistic(args.stat, alpha=args.alpha if args.over_t else 0.0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if spec0.family == MOMENT:
        print("error: moment-based statistics have no trimming-variance curve", file=sys.stderr)
        return EXIT_INPUT

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)

    if args.over_t:
        if spec0.family != SUPREMUM:
            print("error: --over-t applies to supremum-type statistics", file=sys.stderr)
            return EXIT_INPUT
        t_max = max(float(null.quantile(0.999)) for null in nulls)
        ts = np.linspace(0.0, t_max, args.grid)
        columns = [asy.variance_function(spec0, null, ts) for null in nulls]
        rows = np.column_stack([ts, *columns]).tolist()
        header = ["t"] + [f"sigma2_{null.name}" for null in nulls]
        params = {"stat": spec0.label, "alpha": args.alpha, "over_t": True}
    else:
        grid = _grid_from_arg(args.grid)
        rows = []
        for a in grid:
            row = [a]
            for null in nulls:
                spec = parse_statistic(args.stat, alpha=float(a))
                try:
                    row.append(_variance_at(spec, null))
                except NotApplicableError:
                    row.append(math.nan)
            rows.append(row)
        header = ["alpha"] + [f"sigma2_{null.name}" for null in nulls]
        params = {"stat": spec0.label, "grid_points": args.grid, "over_t": False}

    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    _write_manifest(out, "variance", params | {"nulls": [n.name for n in nulls]}, None, [out])
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .validate import run_suite

    results = run_suite(args.suite, seed=args.seed)
    payload = [
        {"check": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 2)}
        for r in results
    ]
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        _write_manifest(out, "validate", {"suite": args.suite}, args.seed, [out])
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VALIDATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlab",
        description="Symmetry tests around a trimmed-mean center and their local efficiencies.",
    )
    parser.add_argument("--version", action="version", version=f"symlab {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="evaluate a statistic on a data file")
    p_test.add_argument("data", help="file with one value per line ('#' comments) or a CSV")
    p_test.add_argument("--stat", required=True, help="statistic id, e.g. W or NA_I_4")
    p_test.add_argument("--alpha", type=float, default=0.0, help="trimming coefficient")
    p_test.add_argument("--null", default="normal", choices=NULL_NAMES)
    p_test.add_argument("--reps", type=int, default=10_000, help="Monte Carlo replications")
    p_test.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_test.add_argument("--level", type=float, default=0.05)
    p_test.add_argument("--col", default=None, help="CSV column to read")
    p_test.add_argument("--json", action="store_true", help="machine-readable output")
    p_test.set_defaults(func=_cmd_test)

    p_index = sub.add_parser("index", help="Bahadur index curves over the trimming grid")
    p_index.add_argument("--null", required=True, choices=NULL_NAMES)
    p_index.add_argument("--alt", required=True, choices=ALTERNATIVE_NAMES)
    p_index.add_argument("--tests", default=",".join(eff.DEFAULT_TESTS))
    p_index.add_argument("--grid", type=int, default=101, help="number of grid points")
    p_index.add_argument("-o", "--output", required=True, help="combined long-format CSV path")
    p_index.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_index.set_defaults(func=_cmd_index)

    p_var = sub.add_parser("variance", help="limiting-variance curves")
    p_var.add_argument("--null", required=True, help="comma-separated null names")
    p_var.add_argument("--stat", required=True)
    p_var.add_argument("--grid", type=int, default=101)
    p_var.add_argument("--over-t", action="store_true", help="variance function over the threshold")
    p_var.add_argument("--alpha", type=float, default=0.0, help="trimming level for --over-t")
    p_var.add_argument("-o", "--output", required=True)
    p_var.set_defaults(func=_cmd_variance)

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--suite", choices=["quick", "full"], default="quick")
    p_val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_val.add_argument("-o", "--output", default=None, help="JSON report path")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE


if __name__ == "__main__":
    sys.exit(main())
