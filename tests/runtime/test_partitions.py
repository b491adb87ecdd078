"""Network partitions: the master's side keeps going; the minority is
removed and rejoins after the heal — also when the master *is* the
minority."""

import random
from collections import Counter as Tally

from repro.apps.presence import PresenceCounters
from repro.net.faults import PartitionPlan, ScheduledFaults
from tests.helpers import Counter, quick_system, shared_counter, work_at


def partitioned_system(groups, start, end, n=5, stall_timeout=2.0, seed=4):
    faults = ScheduledFaults(
        partitions=[PartitionPlan(groups=groups, start=start, end=end)]
    )
    return quick_system(n, seed=seed, faults=faults, stall_timeout=stall_timeout)


class TestPartitionPlanUnit:
    def test_severs_only_across_groups_in_window(self):
        plan = PartitionPlan(groups=(("a", "b"), ("c",)), start=5.0, end=10.0)
        assert plan.severs(6.0, "a", "c")
        assert plan.severs(6.0, "c", "b")
        assert not plan.severs(6.0, "a", "b")
        assert not plan.severs(4.0, "a", "c")
        assert not plan.severs(10.0, "a", "c")

    def test_unlisted_machines_form_leftover_group(self):
        plan = PartitionPlan(groups=(("a",),), start=0.0, end=10.0)
        assert plan.severs(1.0, "a", "x")
        assert not plan.severs(1.0, "x", "y")


class TestPartitionedRuntime:
    def test_majority_side_keeps_committing(self):
        system = partitioned_system(
            groups=(("m01", "m02", "m03"), ("m04", "m05")), start=2.0, end=25.0
        )
        replicas, uid = shared_counter(system)
        api = system.api("m02")
        for delay in (5.0, 8.0, 11.0):
            system.loop.call_later(
                delay,
                lambda: api.issue_when_possible(
                    api.create_operation(replicas["m02"], "increment", 100)
                ),
            )
        system.run_for(20.0)
        # The master's side of the partition committed the ops.
        assert system.node("m03").model.committed.get(uid).value == 3
        # The minority side is dark and got removed from participation.
        assert system.node("m05").model.committed.get(uid).value == 0
        participants = system.master_node.master.participants
        assert "m04" not in participants and "m05" not in participants

    def test_minority_rejoins_after_heal(self):
        system = partitioned_system(
            groups=(("m01", "m02", "m03"), ("m04", "m05")), start=2.0, end=25.0
        )
        replicas, uid = shared_counter(system)
        api = system.api("m01")
        system.loop.call_later(
            6.0,
            lambda: api.issue_when_possible(
                api.create_operation(replicas["m01"], "increment", 100)
            ),
        )
        system.run_for(60.0)
        system.run_until_quiesced()
        assert all(node.state == "active" for node in system.nodes.values())
        for node in system.nodes.values():
            assert node.model.committed.get(uid).value == 1
        assert system.metrics.node("m04").restarts >= 1
        assert system.metrics.node("m05").restarts >= 1
        system.check_all_invariants()

    def test_minority_issues_are_lost_with_restart(self):
        """Ops pending on a partitioned machine die with its restart —
        the documented cost of the paper's restart-based recovery (the
        offline-updates extension is the preserving alternative)."""
        system = partitioned_system(
            groups=(("m01", "m02"), ("m03",)), start=2.0, end=20.0, n=3
        )
        replicas, uid = shared_counter(system)
        api3 = system.api("m03")
        system.loop.call_later(
            5.0,
            lambda: api3.issue_when_possible(
                api3.create_operation(replicas["m03"], "increment", 100)
            ),
        )
        # A majority round notices the cut (m03's own WorkReady cannot
        # cross it).
        work_at(system, 6.0)
        system.run_for(60.0)
        system.run_until_quiesced()
        assert system.node("m01").model.committed.get(uid).value == 0
        system.check_all_invariants()

    def test_agreement_never_violated_during_partition(self):
        """At no point do two machines disagree about a *committed*
        prefix — the minority is merely stale, never divergent."""
        system = partitioned_system(
            groups=(("m01", "m02", "m03"), ("m04", "m05")), start=2.0, end=30.0
        )
        replicas, uid = shared_counter(system)
        rng = random.Random(1)
        majority = ["m01", "m02", "m03"]
        for step in range(10):
            machine_id = rng.choice(majority)
            api = system.api(machine_id)
            system.loop.call_later(
                2.5 + step * 2.0,
                lambda api=api, machine_id=machine_id: api.issue_when_possible(
                    api.create_operation(replicas[machine_id], "increment", 100)
                ),
            )

        def check_prefix_agreement():
            sequences = [
                [(e.key, e.result) for e in node.model.completed]
                for node in system.nodes.values()
                if node.completed_offset == 0
            ]
            shortest = min(len(s) for s in sequences)
            for seq in sequences:
                assert seq[:shortest] == sequences[0][:shortest]

        for t in range(5, 60, 5):
            system.run_for(5.0)
            check_prefix_agreement()
        system.run_until_quiesced()
        system.check_all_invariants()


class TestIsolatedMaster:
    def test_heals_to_one_history_and_loses_nothing_acknowledged(self):
        """The master alone in its group for 10 s: the slaves stall (no
        one promotes itself), the master evicts them, and after the heal
        they restart onto its history.  Every completion that fired
        with True is in every machine's committed state."""
        system = partitioned_system(
            groups=(("m01",), ("m02", "m03")), start=5.0, end=15.0, n=3
        )
        uid = system.api("m01").create_instance(PresenceCounters).unique_id
        system.run_until_quiesced()
        acknowledged = Tally()

        def bump(machine_id):
            node = system.node(machine_id)
            if node.state != "active":
                return  # restarting: the replica comes back with the Welcome
            api = node.api

            def done(result):
                if result:
                    acknowledged[machine_id] += 1

            api.issue_when_possible(
                api.create_operation(api.join_instance(uid), "bump", machine_id, 1),
                done,
            )

        for second in range(1, 41):
            for machine_id in system.machine_ids():
                system.loop.call_later(float(second), lambda m=machine_id: bump(m))
        system.run_for(80.0)

        assert [n.machine_id for n in system.nodes.values() if n.is_master] == ["m01"]
        round_ids = [record.round_id for record in system.metrics.sync_records]
        assert len(set(round_ids)) == len(round_ids)
        assert sorted(acknowledged) == system.machine_ids()
        for node in system.nodes.values():
            assert node.state == "active"
            assert node.model.committed.get(uid).counters == dict(acknowledged)
        system.check_all_invariants()
