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
request.  :func:`main` alone turns an exception into an exit code: an
unreadable input, an ``-o`` that cannot be written, a bad option and an
unusable sample all exit 2 (``error: ...``), and a request the theory does not
cover exits 3 (``not applicable: ...``).  One writer makes ``-o``'s directory
before any work, then writes every output file and ``<file>.manifest.json``
with the command, parameters, seed, tool version and files.  Numbers are
written with 12 significant digits so CSV outputs round-trip.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from . import asymptotics as asy
from . import efficiency as eff
from . import montecarlo as mc
from ._rng import DEFAULT_SEED, check_seed
from .distributions import ALTERNATIVE_NAMES, NULL_NAMES, get_alternative, get_null
from .errors import NotApplicableError
from .stats import evaluate, parse_statistic

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3


@functools.cache  # the installed version does not change within a process
def _version() -> str:
    try:
        return metadata.version("symlab")
    except metadata.PackageNotFoundError:  # pragma: no cover - dev tree
        return "0.0.0"


def _seed(text: str) -> int:
    return check_seed(int(text))  # argparse turns a refusal into a usage error, exit 2


def _fmt(x: float) -> str:
    return format(float(x), ".12g")  # a NaN of either sign prints as nan


class _Writer:
    """Every command's way to disk: ``-o``'s directory is made when the writer is, so an ``-o``
    that cannot be written is refused before any work; :meth:`write` writes the outputs."""

    def __init__(self, output: str, command: str, seed: int | None):
        self.out = Path(output)
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.command, self.seed = command, seed

    def write(self, params: dict, files: list) -> list[Path]:
        """Write each ``(path, content)``, CSV rows or text, then the manifest naming them."""
        for path, content in files:
            if isinstance(content, str):
                path.write_text(content)
            else:
                with open(path, "w", newline="") as fh:
                    csv.writer(fh).writerows(content)
        manifest = {"command": self.command, "parameters": params, "seed": self.seed,
                    "tool_version": _version(), "outputs": [str(path) for path, _ in files]}
        self.out.with_name(self.out.name + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        return [path for path, _ in files]


def _read_data(path: str, col: str | None) -> np.ndarray:
    text_path = Path(path)
    if not text_path.exists():
        raise OSError(f"data file not found: {path}")
    if col is not None:
        with open(text_path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row's missing cells are empty entries
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
    data = _read_data(args.data, args.col)
    null = get_null(args.null)
    spec = parse_statistic(args.stat, alpha=args.alpha)
    asy.applicability(spec, null)
    cfg = mc.McConfig(n=data.size, reps=args.reps, seed=args.seed, level=args.level)
    result = evaluate(spec, data)
    pval = mc.p_value(spec, null, data, cfg)
    crit = mc.critical_value(spec, null, cfg)  # reads the null p_value simulated
    pval_se = math.sqrt(pval * (1.0 - pval) / args.reps)  # Monte Carlo standard error
    report = {"statistic": spec.label, "alpha": spec.alpha, "null": null.name, "n": int(data.size),
              "value": result.value, "sup_argument": result.sup_argument, "p_value": pval,
              "p_value_se": pval_se, "critical_value": crit, "level": args.level, "reps": args.reps,
              "seed": args.seed}
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"statistic      {spec.label} (alpha={_fmt(spec.alpha)}, null={null.name})")
        print(f"value          {_fmt(result.value)}")
        if result.sup_argument is not None:
            print(f"sup argument   {_fmt(result.sup_argument)}")
        runs = f"{args.reps} replications, seed {args.seed}"
        print(f"p-value        {_fmt(pval)} +- {_fmt(pval_se)}   ({runs})")
        print(f"critical value {_fmt(crit)}   (level {_fmt(args.level)})")
    return EXIT_OK


def _cmd_index(args) -> int:
    null = get_null(args.null)
    alt = get_alternative(args.alt, null)
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    if not tests:
        raise ValueError("no tests requested")
    specs = eff._distinct(tests)  # one file per test
    grid = eff.default_grid(args.grid)
    writer = _Writer(args.output, "index", args.seed)
    out = writer.out
    curves = eff.index_curves(specs, alt, grid)
    not_applicable = [c.test for c in curves if c.not_applicable.all()]
    rows = {c.test: [[_fmt(a), _fmt(v), str(degen or na).lower()] for a, v, degen, na in c.rows()]
            for c in curves}
    files = [(out.with_name(f"{out.stem}_{c.test}{out.suffix or '.csv'}"),
              [["alpha", "index", "degenerate"], *rows[c.test]]) for c in curves]
    files.append((out, [["test", "alpha", "index", "degenerate"],
                        *([c.test, *row] for c in curves for row in rows[c.test])]))
    params = {"null": null.name, "alt": alt.kind, "tests": tests, "grid_points": args.grid}
    results = {"not_applicable": not_applicable,
               "quad_err_max": max(float(c.quad_err.max()) for c in curves),
               "sup_err_max": max(float(c.sup_err.max()) for c in curves)}
    for path in writer.write(params | results, files):
        print(f"wrote {path}")
    return EXIT_NOT_APPLICABLE if len(not_applicable) == len(curves) else EXIT_OK


def _cmd_variance(args) -> int:
    nulls = [get_null(name.strip()) for name in args.null.split(",") if name.strip()]
    if not nulls:
        raise ValueError("no null models requested")
    names = [null.name for null in nulls]  # one column each
    if repeated := sorted({name for name in names if names.count(name) > 1}):
        raise ValueError(f"null requested more than once: {', '.join(repeated)}")
    if args.alpha is not None and not args.over_t:
        raise ValueError("--alpha sets the trimming level of --over-t; the grid spans every level")
    alpha = 0.0 if args.alpha is None else args.alpha
    spec0 = parse_statistic(args.stat, alpha=alpha)
    grid = eff.default_grid(args.grid)
    if args.over_t:
        axis = "t"
        xs = np.linspace(0.0, max(float(null.quantile(0.999)) for null in nulls), args.grid)
        columns = [asy.variance_function(spec0, null, xs) for null in nulls]
        # a member variance integrates only the trimmed mean's Int_0^Q x^2 f
        err = max(float(asy._levels(null, np.array([alpha]))[1][0]) for null in nulls)
        # and searches nothing
        params = {"stat": spec0.label, "alpha": alpha, "over_t": True, "quad_err_max": err, "sup_err_max": 0.0}
    else:
        axis, xs = "alpha", grid
        curves = [asy.variance_curve(spec0, null, grid) for null in nulls]
        columns = [value for value, *_ in curves]
        params = {"stat": spec0.label, "grid_points": args.grid, "over_t": False,
                  "quad_err_max": max(float(err.max()) for _, _, err, _ in curves),
                  "sup_err_max": max(float(resolution.max()) for *_, resolution in curves)}

    # every refusal above comes before the writer, which leaves no directory behind
    writer = _Writer(args.output, "variance", None)
    table = [[axis] + [f"sigma2_{name}" for name in names]]
    table += [[_fmt(v) for v in row] for row in np.column_stack([xs, *columns]).tolist()]
    for path in writer.write(params | {"nulls": names}, [(writer.out, table)]):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .validate import run_suite

    writer = _Writer(args.output, "validate", args.seed) if args.output else None
    results = run_suite(args.suite, seed=args.seed)
    if writer:
        payload = [{"check": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 2)}
                   for r in results]
        writer.write({"suite": args.suite}, [(writer.out, json.dumps(payload, indent=2) + "\n")])
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


@functools.cache  # parsing leaves the parser unchanged, so each process builds it once
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
    p_test.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
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
    p_index.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_index.set_defaults(func=_cmd_index)

    p_var = sub.add_parser("variance", help="limiting-variance curves")
    p_var.add_argument("--null", required=True, help="comma-separated null names")
    p_var.add_argument("--stat", required=True)
    p_var.add_argument("--grid", type=int, default=101)
    p_var.add_argument("--over-t", action="store_true", help="variance function over the threshold")
    p_var.add_argument("--alpha", type=float, help="trimming level for --over-t (default 0)")
    p_var.add_argument("-o", "--output", required=True)
    p_var.set_defaults(func=_cmd_variance)

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--suite", choices=["quick", "full"], default="quick")
    p_val.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
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
    except (OSError, ValueError) as exc:  # unreadable data, unwritable -o, bad options, unusable sample
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
