"""The symlab benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-short-rows --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run imports ``symlab`` from the checkout's ``src`` (never an installed
copy), times the set-up of fresh processes, then repeats the workload's
round of jobs (see :mod:`workloads`) a fixed number of times, as many as
fill ``--seconds`` on the reference host (:func:`rounds_for`), checking
every output against its reference.  The number of rounds does not depend
on how fast the program is, so every commit runs the same jobs on the same
inputs and takes its tail percentile at the same rank.  It prints a table
of every metric with its unit, one ``# meta`` line (versions, threads,
host-speed probe, percentiles and sample counts), and as its last line one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the outputs checked and ``failed`` those that disagree
with the reference (``failed_frac`` in the table is their ratio), and
``correct`` is true when none does.  Outputs that show the known int64
wraparound of ``eval-long-rows`` exactly as recorded are counted apart, as
``int64_wrapped_frac`` in the table and ``int64_wrapped_outputs`` in the
metadata (see :mod:`workloads`).

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced:

``setup_s``      median of seven fresh interpreters, spawn to ``symlab``
                 imported and the workload's models and specs built (spread
                 between the rounds, one before each)
``wall_s``       median over rounds of the round's summed job times
``job_p50_ms``   median over the job list of each job's median across rounds
``job_tail_ms``  over the same per-job medians, the value at the highest
                 percentile with ten jobs beyond it, or the 90th when the
                 job list has fewer than 100 jobs
``work_per_s``   work per second of job time: Monte Carlo rows, index grid
                 points, or observations x statistics, per workload
``peak_rss_mb``  peak resident memory of the process running the jobs

All job times are host-calibrated (see :class:`workloads.Clock`): each
job's duration is scaled by the speed of the host measured just before and
after it, because this host's speed drifts by up to 2x between runs.  The
raw times are in the metadata.  A spawn is too short to sample the host
around it reliably, so set-up is scaled by the median host speed of the
whole run.

The loop is closed: one caller issues the jobs back to back.
With ``--trace 1`` the run does a warm-up round, an untraced round and a
traced round, all on the seed's input set, and reports the per-layer
metrics of :mod:`tracing`, whose counts repeat exactly from run to run,
plus the tracing overhead (traced minus untraced time of the round).

``--smoke`` runs every workload at minimal size, checks its outputs, checks
that one flipped output makes the gate fail, and checks that two traced
rounds give the same counts.  It takes a few seconds.

The Monte Carlo path runs sequentially: ``SYMLAB_THREADS`` is removed from
the environment (its original value is recorded in the metadata).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, SRC, TMP, MissingProgram, load_symlab

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metric -> unit (``work_per_s`` is named per workload in the table)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
WORK_NAMES = {
    "mc-short-rows": ("mc_rows_per_s", "Monte Carlo rows (calibration and evaluation) per second"),
    "index-curves": ("index_points_per_s", "(test, alpha) grid points per second"),
    "eval-long-rows": ("eval_obs_per_s", "observations x statistics evaluated per second"),
}


# ---------------------------------------------------------------------------
# measurements around the workload
# ---------------------------------------------------------------------------


def measure_setup(name: str, repeats: int) -> list[float]:
    """Time ``repeats`` fresh interpreters, from spawn to ``symlab`` and the workload built."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), name],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed with exit code {code}")
        times.append(elapsed)
    return times


def metadata(seed: int, symlab_threads: str | None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "symlab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "SYMLAB_THREADS": symlab_threads,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _remove(tmp: Path) -> None:
    """Delete a run's scratch directory, and the scratch root once it is empty."""
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        TMP.rmdir()
    except OSError:
        pass


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond it.

    Below 100 samples that percentile would fall under the 90th, which is no
    longer a tail, so such runs report the 90th percentile (nearest rank).
    """
    ordered = sorted(values)
    rank = max(len(ordered) - 10, math.ceil(0.9 * len(ordered)))
    return ordered[rank - 1], 100.0 * rank / len(ordered)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def rounds_for(workload, seconds: float) -> int:
    """Rounds that fill ``seconds`` on the reference host; at least one."""
    return max(1, round(seconds / workload.ROUND_S))


def measured_run(workload, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict, object]:
    """:func:`rounds_for` rounds, with the set-up samples spread between them.

    The host's speed drifts over tens of seconds, so set-up is timed once
    before each round (up to ``SETUP_REPEATS``) rather than all at once.
    """
    import workloads

    rounds, gate, setup = [], workloads.Gate(), []
    start = time.perf_counter()
    for round_index in range(rounds_for(workload, seconds)):
        if len(setup) < SETUP_REPEATS:
            setup += measure_setup(workload.name, 1)
        set_index = workloads.set_for(seed, round_index)
        rnd = workload.run_round(set_index, tmp)
        gate.merge(workload.check(set_index, rnd.outputs))
        rounds.append(rnd)
    setup += measure_setup(workload.name, SETUP_REPEATS - len(setup))
    calibrated = [rnd.clock.calibrated() for rnd in rounds]
    probes = [p for rnd in rounds for p in rnd.clock.probes]
    busy = sum(t for times in calibrated for t in times)
    child_rss = max(rnd.child_rss_kb for rnd in rounds)
    rss_kb = child_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # p50 and tail are taken over the job list of each job's median across
    # rounds: a plain order statistic over all jobs jumps between
    # neighbouring job kinds from one run to the next
    per_job = [statistics.median(times) for times in zip(*calibrated)]
    tail_value, tail_pct = tail(per_job)
    metrics = {
        "setup_s": statistics.median(setup) * workloads.PROBE_REF_S / statistics.median(probes),
        "wall_s": statistics.median(sum(times) for times in calibrated),
        "job_p50_ms": 1e3 * statistics.median(per_job),
        "job_tail_ms": 1e3 * tail_value,
        "work_per_s": sum(rnd.items for rnd in rounds) / busy,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    info = {
        "rounds": len(rounds),
        "jobs_per_round": len(per_job),
        "job_tail_percentile": round(tail_pct, 2),
        "measured_s": time.perf_counter() - start,
        "raw_round_wall_s": [sum(rnd.clock.latencies) for rnd in rounds],
        "host_probe_s": _summary(probes),
        "setup_samples_s": setup,
    }
    return metrics, info, gate


def traced_run(workload, seed: int, tmp: Path) -> tuple[dict, dict, object]:
    import tracing
    import workloads

    # all three rounds use one input set, so the overhead compares the same
    # jobs; the warm-up round pays any first-use costs of the process
    gate, set_index = workloads.Gate(), workloads.set_for(seed, 0)
    walls = []
    for traced in (False, False, True):
        rnd = workload.run_round(set_index, tmp, traced=traced)
        gate.merge(workload.check(set_index, rnd.outputs))
        walls.append(sum(rnd.clock.calibrated()))
    snapshot = tracing.merge(rnd.traces)
    metrics = tracing.per_layer_metrics(snapshot, overhead_s=walls[2] - walls[1])
    info = {
        "warmup_round_s": walls[0],
        "untraced_round_s": walls[1],
        "traced_round_s": walls[2],
        "unwrapped": snapshot["missing"],
    }
    return {k: v["value"] for k, v in metrics.items()}, info, gate


def report(name, metrics: dict, units: dict, notes: dict, gate, meta: dict) -> None:
    """Human-readable table; ``notes`` holds, per metric, what it should move."""
    print(f"symlab benchmark  workload={name}  seed={meta['seed']}")
    for key, value in metrics.items():
        label = key
        if key == "work_per_s":
            label = f"{WORK_NAMES[name][0]} (work_per_s)"
        note = f"  -> {notes[key]}" if key in notes else ""
        print(f"  {label:<44} {value:>16.6g} {units[key]:<6}{note}")
    frac = gate.failed / gate.checked if gate.checked else float("nan")
    print(f"  {'failed_frac':<44} {frac:>16.6g} ({gate.failed} of {gate.checked} outputs)")
    if gate.known:
        known = gate.known / gate.checked
        print(f"  {'int64_wrapped_frac':<44} {known:>16.6g} ({gate.known} of {gate.checked} outputs"
              " equal the exact value wrapped to int64: known defect, not counted as failed)")
    for problem in gate.problems:
        print(f"    mismatch: {problem}")
    print("# meta " + json.dumps(meta, sort_keys=True))


def run(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    meta = metadata(args.seed, args.symlab_threads)
    meta["work_per_s"] = dict(zip(("name", "meaning"), WORK_NAMES[args.workload]))
    tmp = TMP / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, info, gate = traced_run(workload, args.seed, tmp)
            import tracing

            units = {name: spec[0] for name, spec in tracing.PER_LAYER.items()}
            notes = {name: spec[1] for name, spec in tracing.PER_LAYER.items()}
        else:
            metrics, info, gate = measured_run(workload, args.seed, args.seconds, tmp)
            units, notes = END_TO_END, {}
    finally:
        _remove(tmp)
    meta.update(info)
    meta["trace"] = args.trace
    meta["int64_wrapped_outputs"] = gate.known
    report(args.workload, metrics, units, notes, gate, meta)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.checked,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


# ---------------------------------------------------------------------------
# smoke run and gate self-test
# ---------------------------------------------------------------------------


def smoke_workload(name: str, tmp: Path) -> dict:
    """Minimal run of one workload: gate passes, a flipped output fails it, counts repeat."""
    import tracing
    import workloads

    workload = workloads.SMOKE[name]()
    rnd = workload.run_round(0, tmp)
    clean = workload.check(0, rnd.outputs)
    corrupted = workload.check(0, workload.corrupt(rnd.outputs))
    counts = []
    for _ in range(2):
        traced = workload.run_round(1, tmp, traced=True)
        snapshot = tracing.merge(traced.traces)
        metrics = tracing.per_layer_metrics(snapshot, overhead_s=0.0)
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")})
    return {"clean": clean, "corrupted": corrupted, "counts": counts}


def smoke() -> int:
    import workloads

    tmp = TMP / f"smoke-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name in workloads.WORKLOADS:
            start = time.perf_counter()
            result = smoke_workload(name, tmp)
            clean, corrupted, counts = result["clean"], result["corrupted"], result["counts"]
            checks = {
                "gate passes": clean.failed == 0 and clean.checked > 0,
                "flipped output fails": corrupted.failed > clean.failed,
                "traced counts repeat": counts[0] == counts[1],
                "layers traced": any(v for v in counts[0].values()),
            }
            ok &= all(checks.values())
            status = ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
            print(f"{name:<16} {time.perf_counter() - start:6.1f} s  {status}")
            for problem in clean.problems:
                print(f"    mismatch: {problem}")
    finally:
        _remove(tmp)
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("mc-short-rows", "index-curves", "eval-long-rows"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal run of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        load_symlab()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.symlab_threads = os.environ.pop("SYMLAB_THREADS", None)
    return smoke() if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
