"""Structure: the runtime schedules the model's steps, it never re-implements them.

Each Figure 3 rule has one implementation in ``repro.core``
(``ObjectStore.run``, ``MachineModel.commit``, ``MachineModel.replay_pending``).
A second copy under ``repro.runtime`` — another commit loop, another
hand-paired ``execute`` + ``mark_dirty`` — is how the recovery routes
drifted apart before, so a new one has to show up in review.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import repro.runtime

RUNTIME_DIR = Path(repro.runtime.__file__).parent


def called_names() -> Counter:
    """How often each function or method name is called under runtime/."""
    calls: Counter = Counter()
    for path in sorted(RUNTIME_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    calls[func.attr] += 1
                elif isinstance(func, ast.Name):
                    calls[func.id] += 1
    return calls


def test_runtime_never_executes_or_records_an_operation_itself():
    calls = called_names()
    assert calls["commit"] >= 1  # the walk does see the runtime's calls
    assert calls["execute"] == 0
    assert calls["CompletedEntry"] == 0
    assert calls["record_completed"] == 0


def test_runtime_stamps_by_hand_only_for_the_snapshot_copy():
    """``catch_up`` installs a snapshot through ``copy_from``, which no
    operation describes; that re-stamp is the one ``mark_dirty`` left."""
    assert called_names()["mark_dirty"] <= 1


def test_committed_state_arrives_through_one_catch_up():
    """Crash recovery, the snapshot Welcome and the backlog Welcome all
    reach committed state through ``catch_up``: it is the one place the
    runtime decodes a state or commits a logged entry."""
    calls = called_names()
    assert calls["catch_up"] >= 1
    assert calls["decode_state"] == 1
    assert calls["commit_logged"] == 1


COST_MODEL = ("flush_cpu", "apply_cpu", "update_cpu")


def test_modelled_cpu_is_charged_through_after_work_only():
    """``call_later(apply_cpu(n), …)`` sleeps the simulator's cost model
    for real on a wall-clock scheduler; ``after_work`` lets the
    scheduler decide.  Every mention of the model under runtime/ is an
    argument of an ``after_work`` call."""
    mentions = charged = 0
    for path in sorted(RUNTIME_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in COST_MODEL:
                mentions += 1
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            source = ast.unparse(node)
            hits = sum(bool(re.search(rf"\b{name}\(", source)) for name in COST_MODEL)
            if node.func.attr == "call_later":
                assert hits == 0, f"{path.name}:{node.lineno} sleeps the cost model"
            elif node.func.attr == "after_work":
                charged += hits
    assert charged >= 1  # the walk does see the three sites
    assert mentions == charged
