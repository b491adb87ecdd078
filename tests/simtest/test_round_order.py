"""One round in flight: no node opens a round above an unapplied one.

With a single round at the master, round *r+1* opens only after every
participant of *r* has acknowledged it or been removed, and a removed
machine stays outside every later round until ``Synchronizer.reset``
re-enters it.  So whenever a node creates round *r*'s state, every
round below *r* still in its table is applied or done.  That invariant
is what lets a node apply a complete round at once, with no guard that
waits for earlier rounds.

The seeds are fault-heavy sweeps (drops of ``SyncComplete``,
``ApplyAck`` and ``BeginApply``, commit-point crashes, both collection
strategies) on which overlapping rounds did break the invariant.
"""

import pytest

from repro.runtime.synchronizer import Synchronizer
from repro.simtest.runner import run_scenario
from repro.simtest.scenario import generate_scenario

SEEDS = (15, 24, 27, 67, 68)


def test_seeds_cover_the_faults_that_leave_rounds_behind():
    specs = [generate_scenario(seed) for seed in SEEDS]
    dropped = {drop.payload_type for spec in specs for drop in spec.drops}
    assert {"SyncComplete", "ApplyAck", "BeginApply"} <= dropped
    assert all(spec.commit_crashes for spec in specs)
    assert {spec.collection for spec in specs} == {"sequential", "concurrent"}


@pytest.mark.parametrize("seed", SEEDS)
def test_new_round_never_opens_above_an_unapplied_one(seed, monkeypatch):
    ensure_round = Synchronizer._ensure_round
    created: list[int] = []
    overtaken: list[tuple[str, int, list[int]]] = []

    def watched(self, round_id, order):
        fresh = round_id not in self.rounds
        state = ensure_round(self, round_id, order)
        if fresh and state is not None:
            created.append(round_id)
            open_below = sorted(
                earlier
                for earlier, other in self.rounds.items()
                if earlier < round_id and not (other.applied or other.done)
            )
            if open_below:
                overtaken.append((self.node.machine_id, round_id, open_below))
        return state

    monkeypatch.setattr(Synchronizer, "_ensure_round", watched)
    result = run_scenario(generate_scenario(seed), record_trace=False)
    assert result.violations == []
    assert created, "the scenario opened no rounds"
    assert overtaken == []
