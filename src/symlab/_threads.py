"""Where work runs: the usable CPUs, the persistent worker threads and the one splitter.

:func:`split` runs ``part(lo, hi)`` over equal contiguous ranges of ``[0, count)``.
Range ``k - 1`` runs on :func:`_worker` ``(k)``, the k-th single-thread executor, made
on first use (never at import) and forgotten in a forked child; the calling thread
submits those ranges, then runs the last one itself.  So each thread meets the same
work call after call: its reused arrays (:func:`symlab.stats._scratch`) fit its ranges,
and a repeated run opens the same streams on the same threads, as a trace counts them.
A split runs inline, as one range, on a worker thread and on a thread already running
a split's range, so no worker ever waits on another or on itself.  The bits are the
callers' to keep: each part computes its range exactly as one whole run would.

:func:`ways` gives element- or row-wise work one range per usable CPU from
``MIN_VALUES`` values up, and one range below: waking an idle worker costs about 0.2 ms
on a 2-core x86-64 VM.  A split pays off for GIL-free work such as draws and ``np.power``,
much less for many short numpy calls: there ``evaluate_many`` of NA_I_2 on 300 x 100 rows
took 0.39 ms alone, 0.52 ms a pair on two threads (1.49x), 0.40 ms in two processes (1.95x).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

#: the fewest values element- or row-wise work splits at: a 2**16-value normal draw takes
#: about 1 ms, and SQRT_B1's cube of as many about 3 ms
MIN_VALUES = 2**16

_workers: list[ThreadPoolExecutor] = []  # worker k >= 1 runs on _workers[k - 1], made on first use
_workers_lock = threading.Lock()
_inside = threading.local()  # .split: the thread runs a worker's or a split's range


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _forget_workers():
    global _workers_lock
    _workers.clear()  # a forked child has none of its parent's threads
    _workers_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_workers)


def _mark_inside():
    _inside.split = True


def _worker(k: int) -> ThreadPoolExecutor:
    with _workers_lock:
        while len(_workers) < k:
            _workers.append(ThreadPoolExecutor(max_workers=1, initializer=_mark_inside))
        return _workers[k - 1]


def ways(values: int) -> int:
    """Ranges for element- or row-wise work on ``values`` values: one per usable CPU, or one."""
    return _usable_cpus() if values >= MIN_VALUES else 1


def split(count: int, ranges: int, part) -> list:
    """``[part(lo, hi), ...]`` over ``min(ranges, count)`` equal contiguous ranges of ``[0, count)``, in order.

    ``part`` must give each range the bits it gives that range of one whole run.  Returns once
    every range is done, a refused one too.
    """
    ranges = min(ranges, count)
    if ranges < 2 or getattr(_inside, "split", False):
        return [part(0, count)]
    bounds = [count * k // ranges for k in range(ranges + 1)]
    futures = [_worker(k).submit(part, bounds[k - 1], bounds[k]) for k in range(1, ranges)]
    _inside.split = True
    try:
        mine = part(bounds[-2], bounds[-1])
    finally:
        _inside.split = False
        wait(futures)  # no worker outlives the split
    return [future.result() for future in futures] + [mine]
