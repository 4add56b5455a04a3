"""Self-test of the benchmark's correctness gates and tracing.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  Each
workload runs at its smoke size: the gate must pass on the program's real
outputs, fail on exactly one more output when one value is flipped, and two
traced rounds must give the same counts.  The int64 wraparound of
``eval-long-rows`` is checked on recorded values alone: it counts as the
known defect only when it matches the recorded wrapped value exactly.
"""

import json
import os

import numpy as np

import pytest

from checkout import TMP, load_symlab

load_symlab()

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch():
    path = TMP / f"pytest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    run._remove(path)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_catches_one_flipped_output(name, scratch):
    result = run.smoke_workload(name, scratch)
    clean, corrupted = result["clean"], result["corrupted"]
    assert clean.checked > 0
    assert clean.failed == 0, clean.problems
    assert corrupted.checked == clean.checked
    assert corrupted.failed == clean.failed + 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat(name, scratch):
    first, second = run.smoke_workload(name, scratch)["counts"]
    assert first == second
    assert any(first.values())


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 201)])
    assert value == 190.0 and pct == 95.0
    value, pct = run.tail([float(i) for i in range(1, 11)])
    assert value == 9.0 and pct == 90.0


def test_int64_wraparound_is_counted_apart_and_pinned():
    """The recorded wrapped values pass as the known defect; any other value fails."""
    wl = workloads.EvalLongRows()
    ref = workloads.load_reference(wl.name)["sets"]["0"]
    wrapped = ref["wrapped"]["100000"]
    assert set(wrapped) >= {"NA_I_4", "MO_I_2"}
    outputs = {"battery": json.loads(json.dumps(ref["battery"])), "member": ref["member"]}
    outputs["battery"]["100000"].update(wrapped)
    gate = wl.check(0, outputs)
    assert (gate.failed, gate.known) == (0, len(wrapped))

    outputs["battery"]["100000"]["NA_I_4"] = float(np.nextafter(wrapped["NA_I_4"], 1.0))
    gate = wl.check(0, outputs)
    assert (gate.failed, gate.known) == (1, len(wrapped) - 1)

    outputs["battery"]["100000"]["NA_I_4"] = ref["battery"]["100000"]["NA_I_4"]
    gate = wl.check(0, outputs)
    assert (gate.failed, gate.known) == (0, len(wrapped) - 1)
