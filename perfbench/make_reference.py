"""Regenerate the recorded references under ``perfbench/reference``.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py mc-short-rows index-curves eval-long-rows

``mc-short-rows`` and ``index-curves`` record the program's own outputs for
every input set, so they must be made from a commit whose outputs are
trusted; a change that alters those numbers on purpose re-records them and
says which numbers moved and why.  ``eval-long-rows`` is computed by
:mod:`exact` alone (Python integers, no ``symlab`` code) and takes a few
minutes, most of it in the n = 10^5 battery.  Besides the exact values it
records, under ``wrapped``, the value an int64 kernel returns for each
integral statistic whose numerator does not fit in 64 bits.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from checkout import TMP, load_symlab

load_symlab()

import exact  # noqa: E402
import workloads  # noqa: E402


def _write(name: str, payload: dict) -> None:
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def mc_reference(tmp) -> dict:
    workload = workloads.McShortRows()
    sets = {str(i): workload.run_round(i, tmp).outputs for i in range(workloads.SETS)}
    return {"n": workload.N, "reps": workload.REPS, "alpha": workloads.ALPHA,
            "alt": workload.ALT, "theta": workload.THETA, "sets": sets}


def index_reference(tmp) -> dict:
    workload = workloads.IndexCurves()
    return {"grid": workload.GRID, "pairs": workload.run_round(0, tmp).outputs}


def eval_reference(_tmp) -> dict:
    wl = workloads.EvalLongRows
    sup = [t for t in workloads.TESTS if exact.split_label(t)[0] in ("KS", "BH_K", "NA_K", "MO_K")]
    sets = {}
    for i in range(workloads.SETS):
        samples, member_seed = wl.inputs(i)
        battery = {
            str(n): {t: exact.reference_value(t, samples[n], workloads.ALPHA) for t in workloads.TESTS}
            for n in wl.SIZES
        }
        wrapped = {}
        for n in wl.SIZES:
            y = exact.centered_sorted(samples[n], workloads.ALPHA)
            values = {t: exact.int64_wrapped_value(t, y) for t in workloads.TESTS}
            if any(v is not None for v in values.values()):
                wrapped[str(n)] = {t: v for t, v in values.items() if v is not None}
        rows = workloads.member_draws(member_seed, wl.MEMBER_REPS, wl.MEMBER_N)
        centered = [exact.centered_sorted(row, workloads.ALPHA) for row in rows]
        member = {t: [exact.member_value(t, y, wl.MEMBER_T) for y in centered] for t in sup}
        sets[str(i)] = {"battery": battery, "member": member, "wrapped": wrapped}
        print(f"eval-long-rows set {i} done", flush=True)
    return {"alpha": workloads.ALPHA, "member_t": wl.MEMBER_T, "sets": sets}


BUILDERS = {
    "mc-short-rows": mc_reference,
    "index-curves": index_reference,
    "eval-long-rows": eval_reference,
}


def main(names) -> int:
    os.environ.pop("SYMLAB_THREADS", None)
    tmp = TMP / f"reference-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or BUILDERS:
            _write(name, BUILDERS[name](tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
