import dataclasses
import math
import os
import select
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import symlab._threads
import symlab.montecarlo
from helpers import run_in_threads
from symlab import stats
from symlab._rng import Piece, stream
from symlab.cli import main
from symlab.distributions import get_alternative, get_null
from symlab.efficiency import DEFAULT_TESTS
from symlab.montecarlo import (
    _CAL,
    _EVAL,
    McConfig,
    _simulate,
    critical_value,
    null_distribution,
    p_value,
    power,
)
from symlab.stats import StatisticSpec, evaluate, evaluate_many, parse_statistic


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(n=0, reps=1000, seed=1)
        with pytest.raises(ValueError):
            McConfig(n=10, reps=50, seed=1)
        with pytest.raises(ValueError):
            McConfig(n=10, reps=1000, seed=1, level=1.5)
        # float counts would only fail later, inside numpy's sampler
        with pytest.raises(ValueError, match="integers"):
            McConfig(n=50, reps=1e3, seed=1)
        with pytest.raises(ValueError, match="integers"):
            McConfig(n=50.0, reps=1000, seed=1)
        # a float seed would alias its truncation; a negative one fails mid-run
        with pytest.raises(ValueError, match="non-negative integer"):
            McConfig(n=50, reps=1000, seed=1.5)
        with pytest.raises(ValueError, match="non-negative integer"):
            McConfig(n=50, reps=1000, seed=True)
        with pytest.raises(ValueError, match="non-negative integer"):
            McConfig(n=50, reps=1000, seed=-1)
        # a bool is an Integral, but not a count
        with pytest.raises(ValueError, match="integers"):
            McConfig(n=True, reps=100, seed=1)
        with pytest.raises(ValueError, match="integers"):
            McConfig(n=50, reps=True, seed=1)
        assert McConfig(n=np.int64(50), reps=np.int64(1000), seed=np.int64(1)).reps == 1000


class TestNullDistribution:
    def test_deterministic(self, normal, streams):
        cfg = McConfig(n=40, reps=600, seed=31)
        spec = StatisticSpec("W", alpha=0.1)
        a = null_distribution(spec, normal, cfg)
        b = null_distribution(spec, normal, cfg)
        np.testing.assert_array_equal(a, b)
        # one chunk: the second call reuses the draws, the third redraws them
        # after an evaluation of another sample dropped the thread's entry
        cfg = McConfig(n=40, reps=300, seed=31)
        want = _fresh(spec, normal, _CAL, cfg)
        streams.clear()
        runs = [null_distribution(spec, normal, cfg) for _ in range(2)]
        assert streams == [(31, _CAL, 0)]
        evaluate(spec, np.arange(7.0))
        runs.append(null_distribution(spec, normal, cfg))
        assert streams == [(31, _CAL, 0)] * 2
        for run in runs:
            np.testing.assert_array_equal(run, want)

    def test_nan_threshold_refused(self, normal):
        cfg = McConfig(n=20, reps=600, seed=1)
        for name in ("KS", "NA_K_2", "MO_K_2"):
            with pytest.raises(ValueError, match="must not be NaN"):
                null_distribution(parse_statistic(name, alpha=0.25), normal, cfg, t=math.nan)

    def test_centered_statistic_has_zero_mean(self, normal):
        cfg = McConfig(n=60, reps=4000, seed=33)
        values = null_distribution(StatisticSpec("S", alpha=0.2), normal, cfg)
        se = values.std() / math.sqrt(cfg.reps)
        assert abs(values.mean()) < 3.0 * se + 1e-3


def _chunk_by_chunk(reps, job):
    # the reference assembly: 512-row chunk i draws from its own stream i
    return np.concatenate(
        [job(i, min(512, reps - start)) for i, start in enumerate(range(0, reps, 512))]
    )


def _fresh(spec, model, purpose, cfg, *theta, t=None):
    # the reference simulation: every chunk drawn anew into fresh memory
    def job(i, rows):
        draws = model.sample(*theta, rows * cfg.n, 0, rng=stream(cfg.seed, purpose, i))
        return evaluate_many(spec, draws.reshape(rows, cfg.n), t=t)

    return _chunk_by_chunk(cfg.reps, job)


def _fresh_power(spec, alt, theta, cfg):
    # the reference randomized-tie rejection rate, on chunk-by-chunk draws and tie uniforms
    calib, values = _fresh(spec, alt.base, 0, cfg), _fresh(spec, alt, 1, cfg, theta)
    if spec.family != "supremum":
        calib, values = np.abs(calib), np.abs(values)
    calib = np.sort(calib)
    u = _chunk_by_chunk(cfg.reps, lambda i, rows: stream(cfg.seed, 2, i).random(rows))
    at_most = np.searchsorted(calib, values, side="right")
    ties = at_most - np.searchsorted(calib, values, side="left")
    p_rand = (cfg.reps - at_most + u * (1.0 + ties)) / (cfg.reps + 1.0)
    return float(np.mean(p_rand <= cfg.level))


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(symlab._threads, "_usable_cpus", lambda: cpus)


def _worker_entries(workers):
    # what each of the first ``workers`` worker threads keeps
    return [symlab._threads._worker(k).submit(lambda: getattr(stats._pool, "entry", None)).result()
            for k in range(1, workers + 1)]


class TestDrawSlot:
    # the calling thread keeps the read-only draws of a one-chunk simulation in its entry, keyed by
    # (model, theta, seed, purpose, reps, n); a piece of a simulation of several chunks is kept by
    # no thread; the kept-state machine in test_stats.py checks the values of any order of calls
    SPECS = [parse_statistic(name, alpha=0.25) for name in ("W", "NA_K_2", "KS", "CM")]
    MEMBERS = [parse_statistic(name, alpha=0.25) for name in DEFAULT_TESTS
               if parse_statistic(name).family == "supremum"]
    CHUNKS = [parse_statistic(name, alpha=0.25) for name in ("KS", "BH_I", "CM")]
    T = 0.6

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_a_hit_equals_a_fresh_draw(self, streams, null_name):
        null = get_null(null_name)
        cfg = McConfig(n=30, reps=300, seed=61)
        models = [(null, _CAL, ())] + [
            (get_alternative(kind, null), _EVAL, (theta,))
            for kind in ("fs", "contam") for theta in (0.0, 0.3)
        ]
        for model, purpose, theta in models:
            want = [_fresh(spec, model, purpose, cfg, *theta) for spec in self.SPECS]
            streams.clear()
            for _ in range(2):
                for spec, values in zip(self.SPECS, want):
                    got = _simulate(spec, model, *(theta or (None,)), cfg, purpose)
                    np.testing.assert_array_equal(got, values)
            assert streams == [(cfg.seed, purpose, 0)]

    def test_every_part_of_the_key_misses(self, streams, monkeypatch, normal, logistic):
        _cpus(monkeypatch, 2)
        spec = parse_statistic("NA_K_2", alpha=0.25)
        fs = get_alternative("fs", normal)
        cfg = McConfig(n=30, reps=300, seed=62)
        others = [
            (fs, 0.3, dataclasses.replace(cfg, seed=63), _EVAL),
            (fs, 0.2, cfg, _EVAL),
            (get_alternative("contam", normal), 0.3, cfg, _EVAL),
            (get_alternative("fs", logistic), 0.3, cfg, _EVAL),
            (fs, 0.3, cfg, _CAL),
            (fs, 0.3, dataclasses.replace(cfg, n=31), _EVAL),
            (fs, 0.3, dataclasses.replace(cfg, reps=301), _EVAL),
            (fs, 0.3, dataclasses.replace(cfg, reps=513), _EVAL),  # a 1-row tail chunk
        ]
        for other in others:
            for i, (model, theta, run, purpose) in enumerate([(fs, 0.3, cfg, _EVAL), other] * 2):
                streams.clear()
                got = _simulate(spec, model, theta, run, purpose)
                np.testing.assert_array_equal(got, _fresh(spec, model, purpose, run, theta))
                # every piece is drawn: 513 splits into chunk 0's rows [0, 256) on the worker and
                # chunk 0's [256, 512) and chunk 1's one row on the calling thread, none kept
                chunks = [0] if run.reps <= 512 else [0, 0, 1]
                assert sorted(streams) == [(run.seed, purpose, chunk) for chunk in chunks]

    def test_null_distribution_and_power_draw_apart(self, streams, normal):
        # a null model's calibration draws and its evaluation draws share
        # everything but the stream purpose
        spec = parse_statistic("W", alpha=0.1)
        cfg = McConfig(n=40, reps=300, seed=64)
        for purpose in (_CAL, _EVAL, _CAL):
            got = _simulate(spec, normal, None, cfg, purpose)
            np.testing.assert_array_equal(got, _fresh(spec, normal, purpose, cfg))
        assert streams == [(64, _CAL, 0), (64, _EVAL, 0), (64, _CAL, 0)]

    def test_an_evaluation_at_another_n_drops_the_key(self, normal):
        # a single row is a sample of its own: it replaces the kept draws (as p_value's does)
        cfg = McConfig(n=30, reps=300, seed=65)
        null_distribution(StatisticSpec("S"), normal, cfg)
        assert stats._pool.entry["key"][2:] == (65, _CAL, 300, 30)
        row = np.arange(31.0)
        evaluate(StatisticSpec("S"), row)
        assert "draws" not in stats._pool.entry and stats._pool.entry["key"].tobytes() == row.tobytes()

    def test_kept_draws_outlive_a_chunk_at_another_n(self, streams, normal):
        spec = parse_statistic("NA_K_2", alpha=0.25)
        cfg = McConfig(n=30, reps=300, seed=68)
        want = null_distribution(spec, normal, cfg)
        streams.clear()
        evaluate_many(spec, np.random.default_rng(68).normal(size=(4, 31)))
        np.testing.assert_array_equal(null_distribution(spec, normal, cfg), want)
        assert streams == []

    def test_a_refused_theta_leaves_the_next_call_correct(self, streams, normal):
        spec = parse_statistic("KS", alpha=0.25)
        cfg = McConfig(n=30, reps=300, seed=66)
        fs, contam = get_alternative("fs", normal), get_alternative("contam", normal)
        for model, bad in [(fs, -1.5), (contam, 1.5)]:
            want = _fresh(spec, model, _EVAL, cfg, 0.3)
            np.testing.assert_array_equal(_simulate(spec, model, 0.3, cfg, _EVAL), want)
            with pytest.raises(ValueError):
                _simulate(spec, model, bad, cfg, _EVAL)
            assert "draws" not in stats._pool.entry and stats._pool.entry["key"] is None
            np.testing.assert_array_equal(_simulate(spec, model, 0.3, cfg, _EVAL), want)

    @pytest.mark.parametrize("name, t", [("W", 0.5), ("KS", math.nan), ("BH_K", -0.7),
                                         ("KS", np.array([0.5, 0.7]))])
    def test_a_refused_threshold_draws_nothing(self, streams, normal, name, t):
        # the threshold is refused before the draw, so the thread keeps the draws it kept before
        kept = McConfig(n=30, reps=300, seed=4)
        null_distribution(StatisticSpec("KS"), normal, kept)
        entry = stats._pool.entry
        streams.clear()
        with pytest.raises(ValueError, match="threshold"):
            null_distribution(StatisticSpec(name), normal, McConfig(n=2000, reps=300, seed=3), t=t)
        assert streams == [] and stats._pool.entry is entry and entry["key"][2:] == (4, _CAL, 300, 30)

    def test_members_in_any_order_equal_fresh_draws(self, centerings, normal, rng):
        cfg = McConfig(n=60, reps=300, seed=81)
        other = dataclasses.replace(self.MEMBERS[2], alpha=0.1)
        calls = [(spec, self.T) for spec in self.MEMBERS + [other]]
        calls += [(spec, None) for spec in self.CHUNKS]
        want = [_fresh(spec, normal, _CAL, cfg, t=t) for spec, t in calls]
        centerings.clear()
        # all 7 members on one centering; then another alpha right after a member
        # and a member right after each chunk
        order = list(range(7)) + [7, 0, 8, 1, 9, 3, 10, 4]
        for _ in range(4):
            for i in order:
                np.testing.assert_array_equal(null_distribution(calls[i][0], normal, cfg, t=calls[i][1]),
                                              want[i])
            order = rng.permutation(len(calls))
        assert centerings[:2] == [(60, 0.25), (60, 0.1)]  # the first 7 members, then the other alpha
        assert len(centerings) < 4 * len(calls)

    def test_two_chunks_never_reuse(self, centerings, monkeypatch, normal):
        # on one CPU the one range [0, 513) runs as two blocks, [0, 256) and [256, 513), each
        # centered once for every member and kept by no one
        _cpus(monkeypatch, 1)
        cfg = McConfig(n=40, reps=513, seed=82)  # a full chunk and a 1-row tail
        want = [_fresh(spec, normal, _CAL, cfg, t=self.T) for spec in self.MEMBERS]
        centerings.clear()
        entry = stats._pool.entry  # the reference's last row
        for _ in range(2):
            for spec, values in zip(self.MEMBERS, want):
                np.testing.assert_array_equal(null_distribution(spec, normal, cfg, t=self.T), values)
        assert len(centerings) == 2 * 2 * len(self.MEMBERS)
        assert stats._pool.entry is entry  # the 1-row tail is evaluated inside a block: no sample is kept

    def test_two_threads_keep_no_piece(self, centerings, monkeypatch, normal):
        # split on two CPUs, the worker's block (chunk 0's rows [0, 256)) and the calling thread's
        # (chunk 0's [256, 512) and chunk 1's one row) are drawn and centered once for every member
        _cpus(monkeypatch, 2)
        cfg = McConfig(n=40, reps=513, seed=82)
        want = [_fresh(spec, normal, _CAL, cfg, t=self.T) for spec in self.MEMBERS]
        centerings.clear()
        entry = stats._pool.entry
        for _ in range(2):
            for spec, values in zip(self.MEMBERS, want):
                np.testing.assert_array_equal(null_distribution(spec, normal, cfg, t=self.T), values)
        assert len(centerings) == 2 * 2 * len(self.MEMBERS)
        assert stats._pool.entry is entry and _worker_entries(1) == [None]

    @pytest.mark.parametrize("t", [None, T])
    def test_a_range_one_row_before_a_chunk_boundary(self, monkeypatch, normal, t):
        # 1022 replications on two CPUs: the calling thread's range [511, 1022) starts at chunk 0's
        # last row, which it evaluates in one block with chunk 1's first 510, not as a lone row
        _cpus(monkeypatch, 2)
        cfg = McConfig(n=40, reps=1022, seed=85)
        spec = self.MEMBERS[1] if t is not None else self.CHUNKS[1]
        want = _fresh(spec, normal, _CAL, cfg, t=t)
        blocks = []

        def counted(spec, samples, t=None):
            blocks.append((threading.get_ident(), len(samples)))
            return evaluate_many(spec, samples, t=t)

        monkeypatch.setattr(symlab.montecarlo, "evaluate_many", counted)
        entry = stats._pool.entry
        np.testing.assert_array_equal(null_distribution(spec, normal, cfg, t=t), want)
        assert sorted(rows for _, rows in blocks) == [511, 511]
        assert len({thread for thread, _ in blocks}) == 2
        assert stats._pool.entry is entry and _worker_entries(1) == [None]

    def test_the_kept_draws_are_read_only(self, contam_normal):
        cfg = McConfig(n=30, reps=300, seed=67)
        power(StatisticSpec("W"), contam_normal, 0.3, cfg)
        draws = stats._pool.entry["draws"]
        assert draws.shape == (300, 30) and not draws.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            draws[0, 0] = 0.0

    def test_threads_keep_their_own_draws(self, fs_normal):
        spec = parse_statistic("NA_K_2", alpha=0.25)
        cfgs = [McConfig(n=40, reps=300, seed=70 + i) for i in range(4)]
        want = [_fresh(spec, fs_normal, _EVAL, cfg, 0.3) for cfg in cfgs]

        def simulate(i):
            got = [_simulate(spec, fs_normal, 0.3, cfgs[i], _EVAL) for _ in range(5)]
            return got, stats._pool.entry["key"]

        for i, (got, key) in enumerate(run_in_threads(simulate, len(cfgs))):
            for values in got:
                np.testing.assert_array_equal(values, want[i])
            assert key == (fs_normal, (0.3,), cfgs[i].seed, _EVAL, 300, 40)

    def test_threads_keep_their_own_members(self, fs_normal):
        alphas = (0.1, 0.25, 0.4, 0.0)
        cfgs = [McConfig(n=40, reps=300, seed=90 + i) for i in range(4)]
        specs = [[dataclasses.replace(spec, alpha=alpha) for spec in self.MEMBERS] for alpha in alphas]
        want = [[_fresh(spec, fs_normal, _EVAL, cfg, 0.3, t=self.T) for spec in row]
                for row, cfg in zip(specs, cfgs)]

        def simulate(i):
            got = [[_simulate(spec, fs_normal, 0.3, cfgs[i], _EVAL, t=self.T) for spec in specs[i]]
                   for _ in range(3)]
            entry = stats._pool.entry
            return got, entry["members"][0], entry["key"][2]

        for i, (got, tag, seed) in enumerate(run_in_threads(simulate, len(cfgs))):
            for run in got:
                for values, reference in zip(run, want[i]):
                    np.testing.assert_array_equal(values, reference)
            assert (tag, seed) == ((alphas[i], self.T), cfgs[i].seed)

    def test_pooled_members_equal_the_inline_ones(self, monkeypatch, normal):
        cfg = McConfig(n=40, reps=2048, seed=83)
        calls = [(spec, self.T) for spec in self.MEMBERS] + [(self.CHUNKS[0], None), (self.MEMBERS[3], self.T)]
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            runs.append([null_distribution(spec, normal, cfg, t=t) for spec, t in calls])
        for (spec, t), inline, pooled in zip(calls, *runs):
            np.testing.assert_array_equal(inline, pooled)
            np.testing.assert_array_equal(inline, _fresh(spec, normal, _CAL, cfg, t=t))

    def test_a_reused_member_allocates_no_rows(self, centerings, normal):
        cfg = McConfig(n=2000, reps=100, seed=84)
        null_distribution(self.MEMBERS[0], normal, cfg, t=self.T)
        centerings.clear()
        tracemalloc.start()
        try:
            null_distribution(self.MEMBERS[3], normal, cfg, t=self.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert centerings == [] and peak < cfg.reps * cfg.n * 8


class TestChunkRunner:
    # with four usable CPUs 600 and 1024 replications split over two threads
    # and 1500 over three; 600 and 1500 end in a partial chunk
    @pytest.mark.parametrize("reps", [600, 1024, 1500])
    @pytest.mark.parametrize("name", ["W", "NA_K_2"])
    def test_cpu_count_does_not_change_results(self, normal, monkeypatch, name, reps):
        contam = get_alternative("contam", normal)
        spec = parse_statistic(name, alpha=0.25)
        cfg = McConfig(n=30, reps=reps, seed=32)
        runs = []
        for cpus in (1, 4):
            symlab.montecarlo._sorted_null.cache_clear()  # each power simulates its calibration
            _cpus(monkeypatch, cpus)
            runs.append(
                (null_distribution(spec, normal, cfg), power(spec, contam, 0.2, cfg))
            )
        (null_inline, power_inline), (null_pooled, power_pooled) = runs
        np.testing.assert_array_equal(null_inline, null_pooled)
        assert power_inline == power_pooled
        np.testing.assert_array_equal(null_pooled, _fresh(spec, normal, _CAL, cfg))
        assert power_pooled == _fresh_power(spec, contam, 0.2, cfg)

    @pytest.mark.parametrize("null_name", ["normal", "logistic", "cauchy"])
    def test_pooled_working_sets_equal_the_inline_one(self, monkeypatch, null_name):
        # two worker threads draw and evaluate 2048 replications in their own
        # reused arrays; the one inline thread runs every chunk in its arrays
        null = get_null(null_name)
        cfg = McConfig(n=40, reps=2048, seed=9)
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            run = []
            for name in ("S", "W", "KS", "NA_K_2", "MO_I_2", "CM", "SQRT_B1"):
                spec = parse_statistic(name, alpha=0.25)
                symlab.montecarlo._sorted_null.cache_clear()
                run.append(null_distribution(spec, null, cfg))
                run += [power(spec, get_alternative(k, null), 0.2, cfg) for k in ("fs", "contam")]
            runs.append(run)
        for inline, pooled in zip(*runs):
            np.testing.assert_array_equal(inline, pooled)


class TestSplitRuns:
    # a simulation's replications split into one equal range per worker thread, min(usable
    # CPUs, chunks) of them; each draws its ranges' pieces of every chunk from the chunk's
    # stream in place, so the values are those of the chunk-by-chunk reference for any count
    def test_a_piece_reads_slices_of_the_stream(self):
        full = stream(5, 1, 3).random(400)
        for offset, stride, n in [(0, 3, 2), (0, 7, 7), (1, 9, 3), (2, 13, 11), (3, 17, 5), (5, 6, 1), (6, 30, 2)]:
            piece = Piece(stream(5, 1, 3), offset, stride)
            for i in range(4):
                start = i * stride + offset
                np.testing.assert_array_equal(piece.random(n, out=np.empty(n)), full[start:start + n])

    @pytest.mark.parametrize("reps", [100, 512, 513, 600, 1024, 1500])
    def test_every_cpu_count_gives_the_reference_bytes(self, monkeypatch, all_nulls, reps):
        spec, member = parse_statistic("NA_K_2", alpha=0.25), parse_statistic("KS", alpha=0.25)
        cfg = McConfig(n=12, reps=reps, seed=36)
        alts = [get_alternative(kind, null) for null in all_nulls for kind in ("fs", "contam")]
        want = [_fresh(s, null, _CAL, cfg, t=t) for null in all_nulls for s, t in ((spec, None), (member, 0.6))]
        want += [_fresh(spec, alt, _EVAL, cfg, 0.4) for alt in alts]  # fs and contam draw two arrays
        want += [_fresh_power(spec, alt, 0.4, cfg) for alt in alts[:2]]
        for cpus in (1, 2, 3, 4):
            _cpus(monkeypatch, cpus)
            symlab.montecarlo._sorted_null.cache_clear()
            got = [null_distribution(s, null, cfg, t=t) for null in all_nulls for s, t in ((spec, None), (member, 0.6))]
            got += [_simulate(spec, alt, 0.4, cfg, _EVAL) for alt in alts]
            got += [power(spec, alt, 0.4, cfg) for alt in alts[:2]]
            for values, reference in zip(got, want, strict=True):
                np.testing.assert_array_equal(values, reference)

    def test_identical_runs_open_the_same_streams_on_the_same_threads(self, monkeypatch, normal):
        # 3000 replications on three threads: ranges [0, 1000), [1000, 2000) and [2000, 3000), each
        # of two 500-row blocks read from one or two chunks (a chunk two blocks share is opened by
        # each), so no thread keeps draws from one run to the next
        _cpus(monkeypatch, 3)
        opened = []

        def counted(seed, *key):
            opened.append((threading.current_thread(), seed, *key))
            return stream(seed, *key)

        monkeypatch.setattr(symlab.montecarlo, "stream", counted)
        spec, cfg = parse_statistic("W", alpha=0.25), McConfig(n=10, reps=3000, seed=37)
        runs = []
        for _ in range(2):
            opened.clear()
            np.testing.assert_array_equal(null_distribution(spec, normal, cfg), _fresh(spec, normal, _CAL, cfg))
            by_thread = {}
            for thread, *key in opened:
                by_thread.setdefault(thread, []).append(tuple(key))
            runs.append(by_thread)
        assert runs[0] == runs[1]
        workers = [symlab._threads._worker(k).submit(threading.current_thread).result() for k in (1, 2)]
        assert runs[0] == {
            workers[0]: [(37, _CAL, 0), (37, _CAL, 0), (37, _CAL, 1)],
            workers[1]: [(37, _CAL, 1), (37, _CAL, 2), (37, _CAL, 2), (37, _CAL, 3)],
            threading.current_thread(): [(37, _CAL, 3), (37, _CAL, 4), (37, _CAL, 4), (37, _CAL, 5)],
        }

    def test_a_fresh_import_starts_no_thread(self):
        script = "import threading, symlab.cli; print(threading.active_count(), symlab._threads._workers)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "[]"]

    def test_a_forked_child_runs_its_own_split_simulation(self, monkeypatch, normal):
        _cpus(monkeypatch, 2)
        spec, cfg = parse_statistic("NA_K_2", alpha=0.25), McConfig(n=20, reps=1500, seed=38)
        want = null_distribution(spec, normal, cfg)  # the parent's worker is alive and idle now

        def child():  # whether it started without workers, then its values
            inherited = len(symlab._threads._workers)
            values = null_distribution(spec, normal, cfg)
            return bytes([inherited, len(symlab._threads._workers)]) + values.tobytes()

        data = _in_forked_child(child)
        assert data[:2] == bytes([0, 1])
        np.testing.assert_array_equal(np.frombuffer(data[2:]), want)

    # a one-chunk simulation whose draw has 2**16 values or more draws it by rows, one range per
    # usable CPU, and a SQRT_B1 cube that long splits by elements; the calling thread keeps the
    # assembled draws and evaluates them alone
    @pytest.mark.parametrize("n, reps", [(655, 100), (656, 100), (32, 2000), (2000, 100)])
    def test_a_long_one_chunk_draw_gives_the_reference_bytes(self, monkeypatch, normal, n, reps):
        # 65,500 values draw on one thread and 65,600 split; 2000 replications of 32 run four chunks
        specs = [(parse_statistic(name, alpha=0.25), t) for name, t in (("NA_K_2", None), ("KS", 0.6),
                                                                        ("SQRT_B1", None))]
        cfg = McConfig(n=n, reps=reps, seed=39)
        runs = [(spec, normal, (), _CAL, t) for spec, t in specs]
        runs += [(spec, get_alternative(kind, normal), (0.4,), _EVAL, t) for kind in ("fs", "contam")
                 for spec, t in specs]
        want = [_fresh(spec, model, purpose, cfg, *theta, t=t) for spec, model, theta, purpose, t in runs]
        for cpus in (1, 2, 3, 4):
            _cpus(monkeypatch, cpus)
            stats._pool.entry = None  # each CPU count draws anew
            for (spec, model, theta, purpose, t), values in zip(runs, want):
                got = _simulate(spec, model, *(theta or (None,)), cfg, purpose, t)
                np.testing.assert_array_equal(got, values)

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 100_003])
    def test_a_long_cube_is_the_whole_cube(self, monkeypatch, n):
        x = np.random.default_rng(n).normal(size=(1, n))
        centered = x - x.mean(axis=1)[:, None]
        cubes = np.power(centered, 3)
        want = np.mean(cubes, axis=1)[0] / np.sqrt(np.mean(np.square(centered), axis=1)[0]) ** 3
        for cpus in (1, 2, 3, 4):  # split points 21,845 and 50,001, say: not multiples of 8
            _cpus(monkeypatch, cpus)
            assert evaluate(StatisticSpec("SQRT_B1"), x[0]).value == want
        flat = centered.ravel()
        for cut in (1, 3, 7, 9, 13, 4095, 21845, 32769, 50001, n - 9, n - 1):  # what the split rests on
            pieces = [np.power(flat[:cut], 3), np.power(flat[cut:], 3)]
            np.testing.assert_array_equal(np.concatenate(pieces), cubes.ravel())

    def test_long_pieces_on_busy_threads_run_inline(self, monkeypatch, normal):
        # each of two threads evaluates a 512 x 2000 piece, whose SQRT_B1 cube runs inline: a worker
        # splitting again would wait on itself, so the run is made in a child under a timeout
        spec, cfg = StatisticSpec("SQRT_B1"), McConfig(n=2000, reps=1024, seed=40)
        _cpus(monkeypatch, 1)
        want = null_distribution(spec, normal, cfg)
        _cpus(monkeypatch, 2)
        data = _in_forked_child(lambda: null_distribution(spec, normal, cfg).tobytes())
        np.testing.assert_array_equal(np.frombuffer(data), want)

    def test_user_threads_split_on_the_same_workers(self, monkeypatch, normal):
        _cpus(monkeypatch, 3)
        spec = StatisticSpec("SQRT_B1")
        cfgs = [McConfig(n=700, reps=100, seed=41 + i) for i in range(4)]
        want = [_fresh(spec, normal, _CAL, cfg) for cfg in cfgs]
        got = run_in_threads(lambda i: null_distribution(spec, normal, cfgs[i]), len(cfgs))
        for values, reference in zip(got, want):
            np.testing.assert_array_equal(values, reference)

    def test_workers_keep_no_entry_of_a_split_draw(self, monkeypatch, normal):
        _cpus(monkeypatch, 4)
        cfg = McConfig(n=2000, reps=100, seed=84)
        null_distribution(parse_statistic("NA_K_2", alpha=0.25), normal, cfg, t=0.6)
        assert stats._pool.entry["key"][4:] == (100, 2000)
        assert _worker_entries(3) == [None] * 3

    @pytest.mark.parametrize("reps", [600, 1025, 1026, 1539, 2048])
    def test_no_thread_keeps_a_piece_of_several_chunks(self, monkeypatch, normal, reps):
        # 1025 ends in a 1-row chunk on the calling thread; 1026 on two CPUs and 1539 on three end
        # the first worker's range with chunk 1's first row
        spec, cfg = parse_statistic("NA_K_2", alpha=0.25), McConfig(n=20, reps=reps, seed=42)
        want = [_fresh(spec, normal, _CAL, cfg, t=t) for t in (None, 0.6)]
        row = np.random.default_rng(reps).normal(size=20)
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            evaluate(spec, row)
            entry = stats._pool.entry
            for t, values in zip((None, 0.6), want):
                np.testing.assert_array_equal(null_distribution(spec, normal, cfg, t=t), values)
            assert stats._pool.entry is entry and entry["key"].tobytes() == row.tobytes()
            assert _worker_entries(2) == [None, None]


def _in_forked_child(run, timeout=60):
    """The bytes ``run()`` returns in a forked child, which fails the test if it does not finish in time."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            data = run()
            with os.fdopen(write, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    try:
        ready = select.select([read], [], [], timeout)[0]
        if not ready:
            os.kill(pid, signal.SIGKILL)
        with os.fdopen(read, "rb") as fh:
            data = fh.read() if ready else b""
    finally:
        status = os.waitpid(pid, 0)[1]
    assert ready and status == 0, "the forked child's run did not finish"
    return data


class TestPValues:
    def test_central_value_has_p_near_one(self, normal):
        cfg = McConfig(n=50, reps=2000, seed=34)
        # an exactly symmetric sample puts the mean-median statistic at the
        # very center of its null cloud, so every draw is at least as extreme
        sample = np.concatenate([np.linspace(0.1, 2, 25), -np.linspace(0.1, 2, 25)])
        assert p_value(StatisticSpec("CM"), normal, sample, cfg) == 1.0

    def test_monotone_in_statistic(self, normal, rng):
        cfg = McConfig(n=50, reps=2000, seed=35)
        spec = StatisticSpec("W", alpha=0.0)
        base = rng.normal(size=50)
        shifts = [0.0, 0.5, 1.5, 4.0]
        pvals = [p_value(spec, normal, base + s * np.abs(base), cfg) for s in shifts]
        assert all(a >= b - 1e-12 for a, b in zip(pvals, pvals[1:]))

    def test_a_sample_of_another_size_is_refused_before_simulating(self, normal, simulations):
        cfg = McConfig(n=100, reps=600, seed=36)
        sample = np.random.default_rng(36).normal(size=101)
        for size in (30, 99, 101):
            with pytest.raises(ValueError, match=f"sample has {size} values.*n = 100"):
                p_value(StatisticSpec("W"), normal, sample[:size], cfg)
        assert simulations == []
        assert 0.0 < p_value(StatisticSpec("W"), normal, sample[:100], cfg) <= 1.0
        assert simulations == [_CAL]

    def test_plus_one_correction(self, normal):
        cfg = McConfig(n=30, reps=500, seed=36)
        # skewness beyond anything the null produces at this sample size
        extreme = np.exp(np.linspace(0.0, 10.0, 30))
        assert p_value(StatisticSpec("SQRT_B1"), normal, extreme, cfg) == pytest.approx(
            1.0 / 501.0
        )

    def test_size_from_p_values_continuous_statistic(self, normal):
        # conservative (non-randomized) p-values calibrate finely discrete
        # statistics well; W moves in steps of 1/C(n,2)
        cfg = McConfig(n=100, reps=4000, seed=37)
        spec = StatisticSpec("W", alpha=0.0)
        calib = np.abs(null_distribution(spec, normal, cfg))
        fresh_cfg = McConfig(n=100, reps=4000, seed=38)
        fresh = np.abs(null_distribution(spec, normal, fresh_cfg))
        calib.sort()
        exceed = cfg.reps - np.searchsorted(calib, fresh, side="left")
        rejections = (1.0 + exceed) / (cfg.reps + 1.0) <= 0.05
        assert rejections.mean() == pytest.approx(0.05, abs=0.015)


class TestCriticalValue:
    def test_matches_empirical_quantile(self, normal):
        cfg = McConfig(n=40, reps=999, seed=39, level=0.05)
        spec = parse_statistic("NA_K_2", alpha=0.1)
        crit = critical_value(spec, normal, cfg)
        values = null_distribution(spec, normal, cfg)
        assert np.sum(values > crit) <= math.floor(cfg.level * (cfg.reps + 1))


class TestPower:
    def test_size_at_theta_zero(self, normal):
        contam = get_alternative("contam", normal)
        cfg = McConfig(n=100, reps=5000, seed=40, level=0.05)
        size = power(parse_statistic("W", alpha=0.1), contam, 0.0, cfg)
        se = math.sqrt(0.05 * 0.95 / cfg.reps)
        assert abs(size - 0.05) < 3.0 * se + 0.005

    def test_monotone_in_theta(self, normal):
        # the equal-weight mixture (theta = 1/2) is symmetric again, so the
        # monotone range of the contamination family ends near theta = 0.21
        contam = get_alternative("contam", normal)
        cfg = McConfig(n=100, reps=5000, seed=41, level=0.05)
        spec = parse_statistic("W", alpha=0.0)
        powers = [power(spec, contam, th, cfg) for th in (0.0, 0.1, 0.2)]
        for lo, hi in zip(powers, powers[1:]):
            se = math.sqrt(lo * (1 - lo) / cfg.reps + hi * (1 - hi) / cfg.reps) + 1e-9
            assert hi > lo - 2.0 * se

    def test_consistency_in_n(self, normal):
        # two-piece skew stays asymmetric at theta = 0.5, so power must reach
        # one as the sample grows
        fs = get_alternative("fs", normal)
        spec = parse_statistic("W", alpha=0.0)
        small = power(spec, fs, 0.5, McConfig(n=100, reps=3000, seed=42))
        large = power(spec, fs, 0.5, McConfig(n=800, reps=3000, seed=42))
        assert large > small
        assert large > 0.95

    def test_discrete_statistic_calibrates_via_randomization(self, normal):
        # the sign statistic moves in steps of 1/n; the randomized-tie rule
        # still meets the nominal level
        contam = get_alternative("contam", normal)
        cfg = McConfig(n=100, reps=10_000, seed=43, level=0.05)
        size = power(parse_statistic("S", alpha=0.0), contam, 0.0, cfg)
        assert abs(size - 0.05) < 0.01


class TestNullCache:
    # critical values, p-values and power read one cached sorted null per
    # (statistic, null, n, reps, seed); 1024 replications run two chunks
    @pytest.mark.parametrize("reps", [600, 1024])
    @pytest.mark.parametrize("stat", ["S", "W", "KS", "NA_K_4", "CM", "SQRT_B1"])
    def test_cold_and_warm_cache_agree(self, normal, fs_normal, stat, reps):
        spec = parse_statistic(stat, alpha=0.1)
        cfg = McConfig(n=60, reps=reps, seed=51)
        sample = np.random.default_rng(reps).normal(size=60) + 0.2
        calls = {
            "critical_value": lambda: critical_value(spec, normal, cfg),
            "p_value": lambda: p_value(spec, normal, sample, cfg),
            "power": lambda: power(spec, fs_normal, 0.3, cfg),
        }
        cold = {}
        for name, call in calls.items():
            symlab.montecarlo._sorted_null.cache_clear()
            cold[name] = repr(call())
        warm = {name: repr(call()) for name, call in calls.items()}
        assert warm == cold
        info = symlab.montecarlo._sorted_null.cache_info()
        assert (info.hits, info.misses) == (3, 1)

    def test_power_after_symlab_test_simulates_the_null_once(
        self, tmp_path, fs_normal, simulations
    ):
        data = tmp_path / "d.txt"
        data.write_text("\n".join(map(repr, np.linspace(-1.0, 2.0, 60).tolist())) + "\n")
        argv = ["test", str(data), "--stat", "W", "--alpha", "0.1", "--reps", "600", "--seed", "52"]
        assert main(argv) == 0
        power(parse_statistic("W", alpha=0.1), fs_normal, 0.3, McConfig(n=60, reps=600, seed=52))
        assert simulations == [_CAL, _EVAL]

    def test_key_leaves_out_the_level_only(self, normal, logistic):
        spec = parse_statistic("W", alpha=0.1)
        cfg = McConfig(n=40, reps=300, seed=53)
        critical_value(spec, normal, cfg)
        critical_value(spec, normal, dataclasses.replace(cfg, level=0.1))
        assert symlab.montecarlo._sorted_null.cache_info().hits == 1
        others = [
            (parse_statistic("W", alpha=0.2), normal, cfg),
            (parse_statistic("S", alpha=0.1), normal, cfg),
            (spec, logistic, cfg),
            (spec, normal, dataclasses.replace(cfg, n=41)),
            (spec, normal, dataclasses.replace(cfg, reps=301)),
            (spec, normal, dataclasses.replace(cfg, seed=54)),
        ]
        for args in others:
            misses = symlab.montecarlo._sorted_null.cache_info().misses
            critical_value(*args)
            assert symlab.montecarlo._sorted_null.cache_info().misses == misses + 1

    def test_cached_values_are_read_only(self, normal):
        values = symlab.montecarlo._sorted_null(StatisticSpec("W", alpha=0.1), normal, 40, 300, 53)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_null_distribution_stays_private(self, normal, fs_normal):
        spec = StatisticSpec("W", alpha=0.1)
        cfg = McConfig(n=40, reps=300, seed=55)
        before = power(spec, fs_normal, 0.3, cfg)
        values = null_distribution(spec, normal, cfg)
        values[:] = 0.0
        assert power(spec, fs_normal, 0.3, cfg) == before
