"""State is copied by one copier, and ``deepcopy`` is only its fallback.

``copy_plain`` stands behind ``get_state`` / ``set_state`` and the
contract snapshot.  These pin what it must keep (independence, a
correct copy of values that are not plain data) and, as exact counts,
what it must not cost: no ``copy.deepcopy`` on the execution path.
"""

from __future__ import annotations

import ast
import collections
import copy
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core.shared_object import GSharedObject, copy_plain
from repro.simtest.scenario import generate_scenario
from repro.simtest.workload import build_workload
from tests.helpers import quick_system


@dataclasses.dataclass
class Point:
    x: int
    tail: list


class TestCopyPlain:
    def test_plain_data_is_rebuilt_all_the_way_down(self):
        value = {"rows": [[1, "a"], [2.5, None]], "by": {"k": [True]}}
        copied = copy_plain(value)
        assert copied == value
        assert copied["rows"] is not value["rows"]
        assert copied["rows"][0] is not value["rows"][0]
        assert copied["by"]["k"] is not value["by"]["k"]

    @pytest.mark.parametrize(
        "value",
        [
            (1, [2]),
            {"a", "b"},
            collections.OrderedDict(a=[1]),
            collections.defaultdict(list, a=[1]),
            Point(1, [2]),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_anything_else_falls_back_to_deepcopy(self, value):
        copied = copy_plain([value])[0]
        assert type(copied) is type(value)
        assert copied == value
        assert copied is not value
        assert copy_plain({"k": value})["k"] == value

    def test_get_state_does_not_follow_later_writes(self):
        class Doc(GSharedObject):
            def __init__(self):
                self.lines = [["ada", "hello"]]
                self.meta = (1, [2])

        doc = Doc()
        state = doc.get_state()
        doc.lines[0][1] = "changed"
        doc.meta[1].append(3)
        assert state == {"lines": [["ada", "hello"]], "meta": (1, [2])}

    def test_set_state_does_not_keep_the_callers_lists(self):
        class Doc(GSharedObject):
            def __init__(self):
                self.lines = []

        state = {"lines": [["ada", "hello"]]}
        doc = Doc()
        doc.set_state(state)
        state["lines"][0][1] = "changed"
        assert doc.lines == [["ada", "hello"]]


# -- no deepcopy on the execution path ---------------------------------------------

SRC = Path(repro.__file__).parent
EXECUTION_PATH = [
    *(
        path
        for layer in ("core", "runtime", "gateway", "transport", "storage")
        for path in sorted((SRC / layer).rglob("*.py"))
    ),
    SRC / "spec" / "contracts.py",
]


def test_deepcopy_is_named_once_on_the_execution_path():
    """A whole-state ``deepcopy`` per execution is what made a checked
    edit of a 32 KB document cost a millisecond; the next one has to
    argue with this test.  The one mention is ``copy_plain``'s fallback."""
    mentions = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in EXECUTION_PATH
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "deepcopy")
        or (isinstance(node, ast.Name) and node.id == "deepcopy")
        or (isinstance(node, ast.alias) and node.name == "deepcopy")
    ]
    assert len(EXECUTION_PATH) > 30  # the walk does see the five layers
    assert len(mentions) == 1 and mentions[0].startswith("core/shared_object.py:")


@pytest.mark.parametrize("workload_name", ["counters", "listdoc"])
def test_a_simulated_run_never_calls_deepcopy(monkeypatch, workload_name):
    calls = []
    real = copy.deepcopy
    monkeypatch.setattr(copy, "deepcopy", lambda *args: calls.append(args) or real(*args))

    system = quick_system(n=3, seed=5)
    workload = build_workload(generate_scenario(5, workload=workload_name), system)
    workload.setup()
    workload.start()
    system.run_for(20.0)
    workload.stop()
    system.run_until_quiesced()

    assert workload.actions() > 20
    assert system.metrics.total_issued() > 20
    assert system.committed_states_equal()
    assert calls == []
