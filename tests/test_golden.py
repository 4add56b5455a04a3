"""The sampler and Monte Carlo outputs keep the bits recorded in ``golden/digests.json``.

On a numpy or scipy other than the recorded ones the digests may differ by an
ulp of a quantile, so the test is skipped there; ``golden/record.py`` names the
groups that moved and records the file anew.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("record", Path(__file__).with_name("golden") / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_no_group_moved():
    recorded = json.loads(record.DIGESTS.read_text())
    if recorded["versions"] != record.versions():
        pytest.skip(f"digests recorded under {recorded['versions']}, not {record.versions()}")
    assert record.moved(recorded["groups"], record.digests()) == []
