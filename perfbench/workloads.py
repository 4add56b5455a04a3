"""The three benchmark workloads, their inputs and their correctness gates.

Every workload is a closed loop: one caller issues a fixed list of jobs (a
*round*) back to back and times each job.  The inputs of a round come from
one of :data:`SETS` input sets, generated from the set index alone; a run
with seed ``s`` uses sets ``s, s+1, ...`` (mod :data:`SETS`) for its
successive rounds, so the same seed always gives the same inputs and no
round of a run repeats the inputs of an earlier one.  Recorded references
exist for every set, which is what lets the gates demand byte-identical
Monte Carlo output for any seed.  Each workload's ``ROUND_S`` is the
calibrated time of one round on the reference host; a run's number of
rounds follows from it and ``--seconds`` alone (``run.rounds_for``), so
every commit runs the same jobs on the same inputs.

``mc-short-rows``
    ``symlab test`` through :func:`symlab.cli.main` plus one
    :func:`symlab.power` job per statistic: many 100-long rows in 512-row
    chunks, 600 rows per simulation so that every one runs a full chunk 0
    and a partial chunk 1 (the stream of a later chunk and the assembly of
    a partial one are timed and checked too).  Gate: value, p-value,
    critical value and power byte-identical to the recorded reference.
``index-curves``
    ``symlab index`` for the default tests on a coarse trimming grid, for
    normal/contam and cauchy/fs.  Each job runs in a child forked from a
    process that has imported ``symlab`` and run nothing, so the module-level
    caches start empty as in a fresh ``symlab index`` process, without paying
    the import again (``setup_s`` measures that).  Gate: index values within
    the quadrature/search tolerance of the recorded reference; flags, the
    not-applicable list and the exit code exactly equal.
``eval-long-rows``
    :func:`symlab.evaluate` over the battery at n = 10^3, 10^4 and 10^5,
    plus the fixed-threshold member path of the supremum tests at n = 2000.
    Gate: the exact Python-integer values of :mod:`exact`; nothing here is
    a recording of the program's own output.  At n = 10^5 the program's
    int64 subset counts wrap for NA_I_4 and MO_I_2 (a known defect).  An
    output that equals the exact value reduced to 64 bits, as recorded under
    ``wrapped``, is counted as that defect (``Gate.known``) and reported on
    every run; any other departure from the exact value is a failure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

import symlab
from symlab import cli, efficiency, montecarlo

import exact
from tracing import Tracer

#: number of input sets; references are recorded for each
SETS = 8
SEED_ROOT = 1710_10261
ALPHA = 0.25
TESTS = tuple(efficiency.DEFAULT_TESTS)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def set_for(seed: int, round_index: int) -> int:
    """Input set used by round ``round_index`` of a run with ``seed``."""
    return (seed + round_index) % SETS


#: seconds :func:`probe_speed` takes on the reference host (a 2-vCPU x86-64
#: VM at 2.0 GHz, otherwise idle); calibrated times read as seconds on it
PROBE_REF_S = 0.010
_PROBE_ROWS = np.random.default_rng(0).standard_normal((400, 100))


def probe_speed() -> float:
    """Seconds for a fixed task shaped like the program's per-row work.

    Small numpy calls in a Python loop.  On a shared 2-vCPU VM the host's
    speed changes by up to 2x over seconds to minutes (other tenants; CPU
    time tracks wall time, so it is not scheduling), which no affordable run
    length averages away.  Timing this probe between jobs measures the
    host's speed around each job, and :class:`Clock` divides it out.
    """
    start = time.perf_counter()
    acc = 0
    for row in _PROBE_ROWS:
        ordered = np.sort(row)
        acc += int(np.searchsorted(ordered, -ordered, side="right").sum())
        for v in ordered[:50]:
            acc += v > 0.0
    return time.perf_counter() - start


class Clock:
    """Job timer that also records the host speed around each job.

    The probe is timed before the first job and after every job, never while
    a job runs, so nothing the program does during a job can slow the probe
    and be divided out of the job's time.  A job's host speed is the median
    probe time sampled within :data:`WINDOW_S` of it, so short jobs borrow
    their neighbours' samples and long jobs use the samples that bracket
    them.  ``calibrated()`` gives each latency scaled by ``PROBE_REF_S`` over
    that median: the job's duration on a host running at reference speed.
    """

    WINDOW_S = 0.5

    def __init__(self):
        self.latencies: list[float] = []
        self._jobs: list[tuple[float, float, float | None]] = []  # start, end, fixed probe
        self._samples: list[tuple[float, float]] = []  # when taken, probe seconds
        self._sample()

    def _sample(self) -> None:
        self._samples.append((time.perf_counter(), probe_speed()))

    @contextlib.contextmanager
    def job(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
        self._sample()
        self.latencies.append(end - start)
        self._jobs.append((start, end, None))

    def add(self, seconds: float, probe: float) -> None:
        """Record a job timed elsewhere, with the host speed measured for it."""
        self.latencies.append(seconds)
        self._jobs.append((0.0, 0.0, probe))

    @property
    def probes(self) -> list[float]:
        """Probe seconds that stand for the host speed during each job."""
        out = []
        for start, end, fixed in self._jobs:
            if fixed is None:
                lo, hi = start - self.WINDOW_S, end + self.WINDOW_S
                fixed = statistics.median(p for t, p in self._samples if lo <= t <= hi)
            out.append(fixed)
        return out

    def calibrated(self) -> list[float]:
        return [t * PROBE_REF_S / p for t, p in zip(self.latencies, self.probes)]


@dataclass
class Round:
    """Timings and outputs of one round of a workload's job list."""

    clock: Clock
    outputs: dict
    items: int
    child_rss_kb: int = 0
    traces: list[dict] = field(default_factory=list)


@dataclass
class Gate:
    """Outcome of checking one round's outputs against its reference."""

    checked: int = 0
    failed: int = 0
    known: int = 0  # outputs that show a known defect exactly as recorded
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def expect_known(self) -> None:
        """Count an output that equals the recorded value of a known defect."""
        self.checked += 1
        self.known += 1

    def merge(self, other: "Gate") -> None:
        self.checked += other.checked
        self.failed += other.failed
        self.known += other.known
        self.problems.extend(other.problems[: 20 - len(self.problems)])


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _cli(argv) -> tuple[int, str]:
    """Run one CLI command, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_forked(job):
    """Run ``job()`` in a forked child; return (its JSON-able result, child max RSS in KB)."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(job()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked job exited with status {status}")
    return json.loads(data), usage.ru_maxrss


class _InProcess:
    """Round runner for the workloads whose jobs run in the benchmark process."""

    def run_round(self, set_index: int, tmp: Path, traced: bool = False) -> Round:
        if not traced:
            return self._round(set_index, tmp)
        tracer = Tracer()
        with tracer.installed():
            rnd = self._round(set_index, tmp)
        rnd.traces.append(tracer.snapshot())
        return rnd


class McShortRows(_InProcess):
    name = "mc-short-rows"
    # 600 is not a multiple of montecarlo's 512-row chunk: one full chunk and
    # one partial chunk per simulation
    N, REPS, LEVEL = 100, 600, 0.05
    ROUND_S = 10.0
    # fs at theta = 0.5 puts power between 0.1 and 0.55 for every default test
    # at n = 100; contam gives power within a few points of the level at
    # every theta, so it would not exercise a power away from the size
    ALT, THETA = "fs", 0.5

    def __init__(self, tests=TESTS):
        self.tests = tuple(tests)
        self.null = symlab.get_null("normal")
        self.alt = symlab.get_alternative(self.ALT, self.null)
        self.specs = {t: symlab.parse_statistic(t, alpha=ALPHA) for t in self.tests}
        self._reference = None

    @staticmethod
    def inputs(set_index: int):
        rng = np.random.default_rng([SEED_ROOT, 1, set_index])
        data = {t: rng.standard_normal(McShortRows.N) for t in TESTS}
        return data, 7000 + set_index

    def _round(self, set_index: int, tmp: Path) -> Round:
        data, mc_seed = self.inputs(set_index)
        paths = {}
        for t in self.tests:
            paths[t] = tmp / f"mc_{set_index}_{t}.txt"
            paths[t].write_text("".join(f"{float(v)!r}\n" for v in data[t]))
        cfg = montecarlo.McConfig(n=self.N, reps=self.REPS, seed=mc_seed, level=self.LEVEL)
        clock, outputs = Clock(), {}
        for t in self.tests:
            argv = ["test", str(paths[t]), "--stat", t, "--alpha", str(ALPHA), "--null", "normal",
                    "--reps", str(self.REPS), "--seed", str(mc_seed), "--level", str(self.LEVEL),
                    "--json"]
            with clock.job():
                code, text = _cli(argv)
            report = json.loads(text) if code == 0 else {}
            with clock.job():
                power = symlab.power(self.specs[t], self.alt, self.THETA, cfg)
            outputs[t] = {
                "value": report.get("value"),
                "p_value": report.get("p_value"),
                "critical_value": report.get("critical_value"),
                "power": power,
            }
        # calibration and evaluation rows: p-value and critical value each
        # simulate the null, power simulates the null and the alternative
        return Round(clock, outputs, items=len(self.tests) * 4 * self.REPS)

    def check(self, set_index: int, outputs: dict) -> Gate:
        if self._reference is None:
            self._reference = load_reference(self.name)
        ref = self._reference["sets"][str(set_index)]
        gate = Gate()
        for t, out in outputs.items():
            for key in ("value", "p_value", "critical_value", "power"):
                got, want = out.get(key), ref[t][key]
                gate.expect(
                    isinstance(got, float) and repr(got) == repr(want),
                    f"set {set_index} {t} {key}: {got!r} != {want!r}",
                )
        return gate

    @staticmethod
    def corrupt(outputs: dict) -> dict:
        bad = json.loads(json.dumps(outputs))
        first = next(iter(bad))
        bad[first]["p_value"] = float(np.nextafter(bad[first]["p_value"], 1.0))
        return bad


class IndexCurves:
    name = "index-curves"
    PAIRS = (("normal", "contam"), ("cauchy", "fs"))
    GRID = 11
    ROUND_S = 6.2
    # golden-section resolution of the supremum search is 1e-6 in t, which
    # moves a supremum attained at a kink by up to ~1e-6 relative; the CSV
    # keeps 12 significant digits
    RTOL, ATOL = 1e-5, 1e-10

    def __init__(self, tests=TESTS):
        self.tests = tuple(tests)
        self._reference = None

    def run_round(self, set_index: int, tmp: Path, traced: bool = False) -> Round:
        clock, outputs, traces, rss = Clock(), {}, [], 0
        for null, alt in self.PAIRS:
            out = tmp / f"index_{set_index}_{null}_{alt}.csv"
            argv = ["index", "--null", null, "--alt", alt, "--tests", ",".join(self.tests),
                    "--grid", str(self.GRID), "-o", str(out), "--seed", str(set_index)]
            payload, child_rss = run_forked(lambda: _cold_cli_job(argv, traced))
            clock.add(payload["seconds"], payload["probe"])
            rss = max(rss, child_rss)
            if payload["trace"] is not None:
                traces.append(payload["trace"])
            outputs[f"{null}/{alt}"] = _read_index_output(out, payload["exit"])
        items = len(self.tests) * self.GRID * len(self.PAIRS)
        return Round(clock, outputs, items=items, child_rss_kb=rss, traces=traces)

    def check(self, set_index: int, outputs: dict) -> Gate:
        if self._reference is None:
            self._reference = load_reference(self.name)
        gate = Gate()
        for pair, out in outputs.items():
            ref = self._reference["pairs"][pair]
            gate.expect(out["exit"] == ref["exit"], f"{pair} exit {out['exit']} != {ref['exit']}")
            want_na = [t for t in ref["not_applicable"] if t in self.tests]
            gate.expect(
                out["not_applicable"] == want_na,
                f"{pair} not-applicable {out['not_applicable']} != {want_na}",
            )
            for test in self.tests:
                got, want = out["curves"].get(test), ref["curves"][test]
                for i in range(self.GRID):
                    g_val = got["index"][i] if got else "missing"
                    g_flag = got["flag"][i] if got else "missing"
                    w_val, w_flag = want["index"][i], want["flag"][i]
                    ok = (g_val is None) == (w_val is None) and (
                        w_val is None
                        or (isinstance(g_val, float)
                            and math.isclose(g_val, w_val, rel_tol=self.RTOL, abs_tol=self.ATOL))
                    )
                    gate.expect(ok, f"{pair} {test} point {i}: index {g_val} != {w_val}")
                    gate.expect(g_flag == w_flag, f"{pair} {test} point {i}: flag {g_flag} != {w_flag}")
        return gate

    @staticmethod
    def corrupt(outputs: dict) -> dict:
        bad = json.loads(json.dumps(outputs))
        curve = next(iter(next(iter(bad.values()))["curves"].values()))
        curve["flag"][0] = "false" if curve["flag"][0] == "true" else "true"
        return bad


def _cold_cli_job(argv, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    clock = Clock()
    with clock.job():
        code, _ = _cli(argv)
    return {"seconds": clock.latencies[0], "probe": clock.probes[0], "exit": code,
            "trace": tracer.snapshot() if tracer is not None else None}


def _read_index_output(path: Path, exit_code: int) -> dict:
    curves: dict[str, dict] = {}
    if path.is_file():
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                curve = curves.setdefault(row["test"], {"index": [], "flag": []})
                value = float(row["index"])
                curve["index"].append(None if math.isnan(value) else value)
                curve["flag"].append(row["degenerate"])
    manifest = path.with_name(path.name + ".manifest.json")
    not_applicable = (
        json.loads(manifest.read_text())["parameters"]["not_applicable"]
        if manifest.is_file() else None
    )
    return {"exit": exit_code, "not_applicable": not_applicable, "curves": curves}


class EvalLongRows(_InProcess):
    name = "eval-long-rows"
    SIZES = (1000, 10000, 100000)
    MEMBER_N, MEMBER_REPS = 2000, 100
    ROUND_S = 6.1
    MEMBER_T = float(special.ndtri(0.75))  # upper quartile of the normal null

    def __init__(self, tests=TESTS, sizes=SIZES):
        self.tests = tuple(tests)
        self.sizes = tuple(sizes)
        self.null = symlab.get_null("normal")
        self.specs = {t: symlab.parse_statistic(t, alpha=ALPHA) for t in self.tests}
        self.member_specs = {t: s for t, s in self.specs.items() if s.family == "supremum"}
        self._reference = None

    @staticmethod
    def inputs(set_index: int):
        rng = np.random.default_rng([SEED_ROOT, 3, set_index])
        samples = {n: rng.standard_normal(n) for n in EvalLongRows.SIZES}
        return samples, 9000 + set_index

    def _round(self, set_index: int, tmp: Path) -> Round:
        samples, member_seed = self.inputs(set_index)
        clock = Clock()
        battery: dict[str, dict] = {}
        for n in self.sizes:
            x = samples[n]
            battery[str(n)] = {}
            for t, spec in self.specs.items():
                with clock.job():
                    value = symlab.evaluate(spec, x).value
                battery[str(n)][t] = value
        cfg = montecarlo.McConfig(n=self.MEMBER_N, reps=self.MEMBER_REPS, seed=member_seed)
        members = {}
        for t, spec in self.member_specs.items():
            with clock.job():
                values = symlab.null_distribution(spec, self.null, cfg, t=self.MEMBER_T)
            members[t] = [float(v) for v in values]
        items = sum(self.sizes) * len(self.specs) + (
            self.MEMBER_N * self.MEMBER_REPS * len(self.member_specs)
        )
        return Round(clock, {"battery": battery, "member": members}, items=items)

    def check(self, set_index: int, outputs: dict) -> Gate:
        if self._reference is None:
            self._reference = load_reference(self.name)
        ref = self._reference["sets"][str(set_index)]
        gate = Gate()
        for n, values in outputs["battery"].items():
            wrapped = ref["wrapped"].get(n, {})
            for t, got in values.items():
                want = ref["battery"][n][t]
                if t in wrapped and got == wrapped[t]:
                    gate.expect_known()
                else:
                    gate.expect(exact.agrees(t, got, want), f"set {set_index} n={n} {t}: {got!r} != {want!r}")
        for t, got in outputs["member"].items():
            want = ref["member"][t]
            for i, (g, w) in enumerate(zip(got, want)):
                gate.expect(g == w, f"set {set_index} member {t} row {i}: {g!r} != {w!r}")
            gate.expect(len(got) == len(want), f"set {set_index} member {t}: {len(got)} rows")
        return gate

    @staticmethod
    def corrupt(outputs: dict) -> dict:
        bad = json.loads(json.dumps(outputs))
        first = next(iter(bad["battery"].values()))
        first["S"] = float(np.nextafter(first["S"], 1.0))
        return bad


def member_draws(seed: int, rows: int, n: int) -> np.ndarray:
    """Null rows of the member path, drawn the way ``symlab`` documents it.

    One chunk (``rows <= 512``) of the calibration stream ``(seed, 0, 0)``: a
    Philox generator over ``SeedSequence(seed, spawn_key=(0, 0))``, uniforms
    clipped away from 0 and 1 and mapped through the normal quantile.
    """
    if rows > 512:
        raise ValueError("member references cover a single 512-row chunk")
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)))
    )
    u = gen.random(rows * n)
    np.clip(u, 2.0**-53, 1.0 - 2.0**-53, out=u)
    return special.ndtri(u).reshape(rows, n)


WORKLOADS = {cls.name: cls for cls in (McShortRows, IndexCurves, EvalLongRows)}

#: the smallest job list of each workload that still runs every layer it
#: measures; the smoke run and the gate test use these
SMOKE = {
    "mc-short-rows": lambda: McShortRows(tests=("S", "NA_K_2", "CM")),
    "index-curves": lambda: IndexCurves(tests=("S", "KS", "NA_I_2", "CM", "SQRT_B1")),
    "eval-long-rows": lambda: EvalLongRows(tests=("S", "W", "KS", "NA_I_4", "MO_I_2", "CM"),
                                           sizes=(1000,)),
}
