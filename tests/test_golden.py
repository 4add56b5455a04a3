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


def test_moves_are_summed_up_by_family():
    # record.py names the moved groups, then counts them per family with the largest relative move
    # of a recorded first value: inf where a zero moved or the values no longer line up
    assert [record.family(name) for name in ("index_curve/normal/fs/KS/index", "cli/index/normal/contam/console",
                                             "sample/normal")] == ["index_curve", "cli/index", "sample"]
    old = {"count": 2, "head": ["1.0", "exit 0 0.25,2.0,false\n"]}
    assert record.first_value_move(old, old) == 0.0
    moved = {**old, "head": ["1.0", "exit 0 0.25,2.000002,false\n"]}
    assert record.first_value_move(old, moved) == pytest.approx(1e-6)
    assert record.first_value_move(old, {**old, "head": ["1.0", "exit 0 0.25,2.0,true\n"]}) == float("inf")
    assert record.first_value_move({"head": ["0.0"]}, {"head": ["1e-300"]}) == float("inf")
    assert record.first_value_move({"head": ["nan"]}, {"head": ["nan"]}) == 0.0
    assert record.first_value_move(old, None) == float("inf")
    # values apart from the quad_err estimates: an estimate's move hides no value's
    recorded = {"index_curve/a/index": {"head": ["2.0"]}, "index_curve/b/sigma2": {"head": ["4.0"]},
                "index_curve/a/quad_err": {"head": ["1e-17"]}, "cli/index/x": old}
    current = {"index_curve/a/index": {"head": ["2.0000000002"]}, "index_curve/b/sigma2": {"head": ["4.004"]},
               "index_curve/a/quad_err": {"head": ["1.3e-17"]}, "cli/index/x": old}
    assert record.summary(recorded, current, sorted(recorded)) == [
        "cli/index values: 1 moved, largest relative move of a first value 0",
        "index_curve values: 2 moved, largest relative move of a first value 0.001",
        "index_curve quad_err: 1 moved, largest relative move of a first value 0.3"]
    assert record.summary(recorded, current, ["index_curve/a/index"]) == [
        "index_curve values: 1 moved, largest relative move of a first value 1e-10"]
