"""Fault recovery: lost signals, crashed machines, restarts."""

import pytest

from repro.net.faults import CrashPlan, DropPlan, ScheduledFaults
from repro.runtime.config import SyncConfig
from tests.helpers import Counter, quick_system, shared_counter, work_at


def faulty_system(drops=(), crashes=(), n=3, stall_timeout=2.0, **kwargs):
    faults = ScheduledFaults(drops=list(drops), crashes=list(crashes))
    return (
        quick_system(n, faults=faults, stall_timeout=stall_timeout, **kwargs),
        faults,
    )


class TestLostSignalRecovery:
    def test_lost_your_turn_healed_by_resend(self):
        # YourTurn grants only exist under sequential token passing.
        system, _faults = faulty_system(
            drops=[
                DropPlan(
                    start=1.0,
                    end=5.0,
                    channel="signals",
                    payload_type="YourTurn",
                    recipient="m02",
                    max_drops=1,
                )
            ],
            sync=SyncConfig(collection="sequential"),
        )
        system.run_for(15.0)
        recovered = [r for r in system.metrics.sync_records if r.resends]
        assert len(recovered) == 1
        assert recovered[0].removals == 0
        assert 2.0 < recovered[0].duration < 4.0  # one stall timeout
        assert all(node.state == "active" for node in system.nodes.values())

    def test_lost_begin_apply_healed_by_resend(self):
        system, _faults = faulty_system(
            drops=[
                DropPlan(
                    start=1.0,
                    end=5.0,
                    channel="signals",
                    payload_type="BeginApply",
                    recipient="m03",
                    max_drops=1,
                )
            ]
        )
        work_at(system, 2.0)  # a round inside the drop window
        system.run_for(15.0)
        recovered = [r for r in system.metrics.sync_records if r.recovered]
        assert len(recovered) == 1
        assert recovered[0].removals == 0
        system.run_until_quiesced()
        system.check_all_invariants()

    @pytest.mark.parametrize("collection", ["concurrent", "sequential"])
    def test_lost_apply_ack_healed_by_resend(self, collection):
        """One lost ApplyAck costs one resend: the master's strike-1
        BeginApply is re-acknowledged by a node that already applied,
        so a machine that did everything right is never evicted."""
        system, _faults = faulty_system(
            drops=[
                DropPlan(
                    start=1.0,
                    end=5.0,
                    channel="signals",
                    payload_type="ApplyAck",
                    sender="m03",
                    recipient="m01",
                    max_drops=1,
                )
            ],
            sync=SyncConfig(collection=collection),
        )
        work_at(system, 2.0)  # a round inside the drop window
        system.run_for(20.0)
        records = system.metrics.sync_records
        recovered = [r for r in records if r.recovered]
        assert len(recovered) == 1
        assert recovered[0].resends == 1
        assert 2.0 < recovered[0].duration < 4.0  # one stall timeout
        assert sum(r.removals for r in records) == 0
        assert all(m.restarts == 0 for m in system.metrics.node_metrics.values())
        assert all(node.state == "active" for node in system.nodes.values())
        system.run_until_quiesced()
        system.check_all_invariants()

    def test_lost_op_message_healed_by_resend_request(self):
        system, _faults = faulty_system(
            drops=[
                DropPlan(
                    start=1.0,
                    end=5.0,
                    channel="operations",
                    recipient="m03",
                    max_drops=1,
                )
            ],
            stall_timeout=4.0,
        )
        replicas, uid = shared_counter(system)
        api = system.api("m01")

        def issue():
            api.issue_operation(
                api.create_operation(replicas["m01"], "increment", 100)
            )

        for delay in (1.0, 1.5, 2.0):
            system.loop.call_later(delay, issue)
        system.run_for(20.0)
        system.run_until_quiesced()
        # m03 must have healed the gap and converged.
        assert system.node("m03").model.committed.get(uid).value == 3
        system.check_all_invariants()


class TestCrashRecovery:
    def test_crashed_machine_removed_and_restarted(self):
        system, _faults = faulty_system(
            crashes=[CrashPlan("m03", start=1.0, end=10.0)]
        )
        work_at(system, 2.0)  # a round notices the crash
        system.run_for(30.0)
        removed_rounds = [r for r in system.metrics.sync_records if r.removals]
        assert len(removed_rounds) == 1
        assert removed_rounds[0].duration > 4.0  # two stall timeouts
        assert system.metrics.node("m03").restarts == 1
        assert system.node("m03").state == "active"
        assert "m03" in system.master_node.master.participants

    def test_survivors_make_progress_during_crash(self):
        system, _faults = faulty_system(
            crashes=[CrashPlan("m03", start=1.0, end=25.0)]
        )
        replicas, uid = shared_counter(system)
        api = system.api("m01")
        for delay in (6.0, 9.0, 12.0):
            system.loop.call_later(
                delay,
                lambda: api.issue_operation(
                    api.create_operation(replicas["m01"], "increment", 100)
                ),
            )
        system.run_for(20.0)
        # m02 saw the commits even while m03 was dark.
        assert system.node("m02").model.committed.get(uid).value == 3

    def test_restarted_machine_converges_via_snapshot(self):
        system, _faults = faulty_system(
            crashes=[CrashPlan("m03", start=1.0, end=12.0)]
        )
        replicas, uid = shared_counter(system)
        api = system.api("m01")
        system.loop.call_later(
            5.0,
            lambda: api.issue_operation(
                api.create_operation(replicas["m01"], "increment", 100)
            ),
        )
        system.run_for(40.0)
        system.run_until_quiesced()
        assert system.node("m03").state == "active"
        assert system.node("m03").model.committed.get(uid).value == 1
        system.check_all_invariants()

    def test_unflushed_ops_of_crashed_machine_are_lost(self):
        system, _faults = faulty_system(
            crashes=[CrashPlan("m03", start=0.95, end=12.0)], stall_timeout=2.0
        )
        replicas, uid = shared_counter(system)
        api3 = system.api("m03")
        # Issue just before the crash: the op sits in m03's pending
        # queue and never gets flushed; the restart wipes it.
        system.loop.call_later(
            0.9,
            lambda: api3.issue_operation(
                api3.create_operation(replicas["m03"], "increment", 100)
            ),
        )
        # A round notices the crash (m03's own WorkReady cannot reach
        # the master until the crash ends).
        work_at(system, 1.5)
        system.run_for(40.0)
        system.run_until_quiesced()
        assert system.node("m01").model.committed.get(uid).value == 0

    def test_restart_never_reuses_operation_numbers(self):
        """Regression: op keys are global identities; a restarted
        machine must continue its numbering, not restart from 1."""
        system, _faults = faulty_system(
            crashes=[CrashPlan("m03", start=1.0, end=10.0)], stall_timeout=2.0
        )
        replicas, uid = shared_counter(system)
        api3 = system.api("m03")
        api3.issue_operation(api3.create_operation(replicas["m03"], "increment", 99))
        work_at(system, 2.0)  # a round notices the crash
        system.run_for(30.0)  # crash + removal + restart + rejoin
        system.run_until_quiesced()
        assert system.metrics.node("m03").restarts == 1
        # Issue again after the restart: the key must be fresh.
        api3 = system.node("m03").api  # restart rebuilt the facade
        replica = api3.join_instance(uid)
        api3.issue_operation(api3.create_operation(replica, "increment", 99))
        system.run_until_quiesced()
        keys = [
            entry.key
            for entry in system.node("m01").model.completed
            if entry.key.machine_id == "m03"
        ]
        assert len(keys) == len(set(keys))
        from repro.model.simulation_relation import replay_check

        replay_check(system)

    def test_two_sequential_crashes_both_recover(self):
        system, _faults = faulty_system(
            crashes=[
                CrashPlan("m02", start=1.0, end=8.0),
                CrashPlan("m03", start=20.0, end=28.0),
            ]
        )
        work_at(system, 2.0)  # a round notices each crash
        work_at(system, 21.0)
        system.run_for(60.0)
        assert system.metrics.node("m02").restarts == 1
        assert system.metrics.node("m03").restarts == 1
        assert all(node.state == "active" for node in system.nodes.values())
        system.run_until_quiesced()
        system.check_all_invariants()
