"""Acceptance suite: one check per release criterion, printed pass/fail.

The quick variants run by default and already enforce the stated tolerances;
the ``full``-marked variants rerun the simulation-heavy checks on their
complete grids (tens of minutes) and are selected with ``pytest -m full``.
Each quick check must also print the detail string recorded in
``golden/digests.json`` (numbers to 1e-12 relative on another numpy or
scipy).
"""

import json

import pytest

from helpers import golden_record
from symlab.validate import CHECKS, DEFAULT_SEED

record = golden_record()
RECORDED = json.loads(record.DIGESTS.read_text())

CRITERIA = [
    "oracle-equivalence",
    "equivalence-classes",
    "degeneracy",
    "variance-vs-simulation",
    "slope-vs-finite-difference",
    "closed-form-checkpoints",
    "zero-efficiency-roots",
    "not-applicable-wall",
    "ks-variance-shape",
    "size-calibration",
]

FULL_GRID_CRITERIA = [
    "variance-vs-simulation",
    "slope-vs-finite-difference",
    "size-calibration",
]


def _run(name: str, full: bool):
    result = CHECKS[name](DEFAULT_SEED, full)
    status = "PASS" if result.passed else "FAIL"
    suite = "full" if full else "quick"
    print(f"[{status}] {name} ({suite}, {result.seconds:.1f}s): {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    if not full:
        assert record.detail_alike(RECORDED, name, result.detail), (
            f"{name}: {result.detail!r}, recorded {RECORDED['validate'].get(name)!r}")


@pytest.mark.parametrize("name", CRITERIA)
def test_acceptance_criterion(name):
    _run(name, full=False)


@pytest.mark.full
@pytest.mark.parametrize("name", FULL_GRID_CRITERIA)
def test_acceptance_criterion_full_grid(name):
    _run(name, full=True)
