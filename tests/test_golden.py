"""The sampler, evaluation and Monte Carlo outputs keep the bits recorded in ``golden/digests.json``.

On a numpy or scipy other than the recorded ones the digests may differ by an
ulp of a quantile, so there each group's count and first values are checked
instead; ``golden/record.py`` names the groups that moved and records the file
anew.
"""

import json

import pytest

from helpers import golden_record
from symlab import _threads

record = golden_record()
#: the groups a second CPU splits: SQRT_B1's cube at 102,572 values and the long one-chunk member draw
SPLIT_GROUPS = (*(f"evaluate/{kind}/{record.LONG_N}/{record.ALPHA}" for kind in record.EVALUATE_DATA[:2]),
                record.LONG_MEMBERS)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(record.DIGESTS.read_text())


@pytest.fixture(scope="module")
def current():
    return record.digests()


def test_no_group_moved(recorded, current):
    assert record.changed(recorded, current) == []


def test_split_runs_keep_the_recorded_bits(recorded, monkeypatch):
    # recorded on one CPU; on two the cube splits by elements and the draw by rows
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
    split = {name: record._record(call()) for name, call in record._groups() if name in SPLIT_GROUPS}
    assert sorted(split) == sorted(SPLIT_GROUPS)
    assert record.changed({**recorded, "groups": {name: recorded["groups"][name] for name in split}}, split) == []


def test_another_stack_checks_counts_and_first_values(recorded, current, monkeypatch):
    monkeypatch.setattr(record, "versions", lambda: {"numpy": "0.0", "scipy": "0.0"})
    assert record.changed(recorded, current) == []

    def changed(name, **fields):
        return record.changed(recorded, {**current, name: {**current[name], **fields}})

    # a digest alone moves no group there, a first value within 1e-12 relative neither
    assert changed("sample/normal", sha256="0" * 64) == []
    head = current["sample/normal"]["head"]
    assert changed("sample/normal", head=[repr(float(head[0]) * (1 + 1e-13)), *head[1:]]) == []
    # a first value beyond it does, as do another token, another count and a missing group
    far = [repr(float(head[0]) * (1 + 1e-11)), *head[1:]]
    assert changed("sample/normal", head=far) == ["sample/normal"]
    battery = current["evaluate/normal/7/0.0"]["head"]
    assert battery[0].endswith(" None")
    assert changed("evaluate/normal/7/0.0", head=[battery[0].replace("None", "0.0"), *battery[1:]]) == [
        "evaluate/normal/7/0.0"]
    assert changed("evaluate/normal/7/0.0", head=battery[:2]) == ["evaluate/normal/7/0.0"]
    assert changed("sample/normal", count=999) == ["sample/normal"]
    missing = {name: group for name, group in current.items() if name != "member/normal/inline/KS"}
    assert record.changed(recorded, missing) == ["member/normal/inline/KS"]
