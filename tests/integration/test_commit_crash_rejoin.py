"""Crash at a commit point on a busy cluster, then recover.

The torn moment durability must survive: the victim dies after
appending round *k* to its write-ahead log but before acknowledging,
while every machine keeps issuing; the master opens the next round
only once the removal or the rejoin lets round *k* finish.  After
``recover_and_rejoin`` the whole cluster must converge on one committed
sequence with no duplicated or lost operations.
"""

from repro.net.faults import CommitCrashPlan, ScheduledFaults
from tests.helpers import quick_system, shared_counter


def _busy_system(faults, seed=13):
    return quick_system(
        3,
        seed=seed,
        faults=faults,
        sync_interval=0.1,
        stall_timeout=2.0,
    )


def test_commit_crash_recovers_and_agrees():
    faults = ScheduledFaults(commit_crashes=[CommitCrashPlan("m03")])
    system = _busy_system(faults)
    replicas, uid = shared_counter(system)

    # Keep every machine issuing so consecutive rounds carry traffic
    # around the crash.
    def tick(machine_id):
        node = system.nodes[machine_id]
        if node.state == "active" and node.active_window() is None:
            system.api(machine_id).invoke(replicas[machine_id], "increment", 10**6)
        if system.loop.now() < 8.0:
            system.loop.call_later(0.2, lambda: tick(machine_id))

    for machine_id in system.machine_ids():
        tick(machine_id)

    system.run_for(4.0)
    victim = system.node("m03")
    assert victim.state == "stopped"  # the commit-point crash fired

    victim.recover_and_rejoin()
    system.run_for(8.0)
    system.run_until_quiesced()
    assert victim.state == "active"

    # Full agreement on the committed sequence, aligned by global
    # position (the rejoined machine may hold only a suffix).
    sequences = {
        machine_id: [
            (str(entry.key), entry.result) for entry in node.model.completed
        ]
        for machine_id, node in system.nodes.items()
        if node.state == "active"
    }
    offsets = {
        machine_id: system.nodes[machine_id].completed_offset
        for machine_id in sequences
    }
    totals = {
        machine_id: offsets[machine_id] + len(sequence)
        for machine_id, sequence in sequences.items()
    }
    assert len(set(totals.values())) == 1, f"lengths diverge: {totals}"
    reference_id = min(offsets, key=offsets.get)
    reference = sequences[reference_id]
    for machine_id, sequence in sequences.items():
        shift = offsets[machine_id] - offsets[reference_id]
        assert sequence == reference[shift:], f"{machine_id} diverges"

    # No operation key appears twice in the global history.
    keys = [key for key, _result in reference]
    assert len(keys) == len(set(keys))

    # Every machine agrees on the object value too.  Re-join rather
    # than reuse pre-crash handles: the rejoined machine rebuilt its
    # model, so old replica objects are dead.
    values = {
        system.api(machine_id).join_instance(uid).value
        for machine_id in sequences
    }
    assert len(values) == 1

    system.check_all_invariants()


def test_commit_crash_on_specific_round():
    faults = ScheduledFaults(
        commit_crashes=[CommitCrashPlan("m02", round_id=4)]
    )
    system = _busy_system(faults, seed=21)
    replicas, _uid = shared_counter(system)

    def tick(machine_id):
        node = system.nodes[machine_id]
        if node.state == "active" and node.active_window() is None:
            system.api(machine_id).invoke(replicas[machine_id], "increment", 10**6)
        if system.loop.now() < 6.0:
            system.loop.call_later(0.25, lambda: tick(machine_id))

    for machine_id in system.machine_ids():
        tick(machine_id)

    system.run_for(5.0)
    victim = system.node("m02")
    assert victim.state == "stopped"
    victim.recover_and_rejoin()
    system.run_for(8.0)
    system.run_until_quiesced()
    assert victim.state == "active"
    system.check_all_invariants()
