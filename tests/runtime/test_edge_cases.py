"""Runtime edge cases: losses in every stage, churn during rounds,
back-to-back faults, and background message loss."""

import random

from repro.net.faults import CrashPlan, DropPlan, ProbabilisticDrops, ScheduledFaults
from repro.runtime import synchronizer
from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedSystem
from tests.helpers import Counter, quick_system, shared_counter, work_at


class TestBackgroundLoss:
    def test_survives_percent_level_random_loss(self, monkeypatch):
        """A lossy network slows things down but never breaks
        agreement: every loss is healed by resend/removal recovery."""
        monkeypatch.setattr(synchronizer, "MISSING_OPS_TIMEOUT", 0.5)
        system = quick_system(
            3, seed=13, faults=ProbabilisticDrops(0.01), stall_timeout=2.0
        )
        replicas, uid = shared_counter(system)
        rng = random.Random(5)
        for step in range(30):
            machine_id = rng.choice(list(replicas))
            api = system.api(machine_id)
            api.issue_when_possible(
                api.create_operation(replicas[machine_id], "increment", 1000)
            )
            system.run_for(rng.random() * 1.5)
        system.run_for(60.0)  # time to heal everything
        system.run_until_quiesced(max_time=600.0)
        # All surviving machines agree even though ~1% of messages died.
        assert system.committed_states_equal()
        assert system.completed_sequences_equal()


class TestChurnDuringRounds:
    def test_join_while_round_in_flight(self):
        system = quick_system(2)
        replicas, uid = shared_counter(system)
        api = system.api("m01")
        # Issue, then add a machine immediately (mid-round Hello).
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 9))
        node = system.add_machine()
        system.run_until_quiesced()
        assert node.state == "active"
        assert node.model.committed.get(uid).value == 1
        system.check_all_invariants()

    def test_leave_while_round_in_flight(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 9))
        # Leave right as the next round kicks off.
        system.loop.call_later(0.45, system.node("m03").leave)
        system.run_for(5.0)
        system.run_until_quiesced()
        assert system.node("m02").model.committed.get(uid).value == 1
        assert "m03" not in system.master_node.master.participants

    def test_rapid_join_leave_join(self):
        system = quick_system(2)
        shared_counter(system)
        node_a = system.add_machine()
        system.run_until_quiesced()
        node_a.leave()
        system.run_for(1.0)
        node_b = system.add_machine()
        system.run_until_quiesced()
        assert node_b.state == "active"
        assert node_a.machine_id not in system.master_node.master.participants
        assert node_b.machine_id in system.master_node.master.participants


class TestStackedFaults:
    def test_drop_then_crash_same_machine(self):
        faults = ScheduledFaults(
            drops=[
                DropPlan(
                    start=1.0,
                    end=4.0,
                    channel="signals",
                    payload_type="YourTurn",
                    recipient="m02",
                    max_drops=1,
                )
            ],
            crashes=[CrashPlan("m02", start=8.0, end=16.0)],
        )
        system = quick_system(3, seed=2, faults=faults, stall_timeout=2.0)
        work_at(system, 2.0)  # a round inside the drop window
        work_at(system, 9.0)  # a round notices the crash
        system.run_for(40.0)
        metrics = system.metrics.node("m02")
        assert metrics.restarts == 1
        assert system.node("m02").state == "active"
        system.run_until_quiesced()
        system.check_all_invariants()

    def test_simultaneous_crashes_of_two_slaves(self):
        faults = ScheduledFaults(
            crashes=[
                CrashPlan("m02", start=1.0, end=12.0),
                CrashPlan("m03", start=1.0, end=12.0),
            ]
        )
        system = quick_system(4, seed=3, faults=faults, stall_timeout=2.0)
        work_at(system, 2.0)  # a round notices the crashes
        system.run_for(40.0)
        assert system.metrics.node("m02").restarts == 1
        assert system.metrics.node("m03").restarts == 1
        assert all(node.state == "active" for node in system.nodes.values())
        system.run_until_quiesced()
        system.check_all_invariants()

    def test_ops_channel_loss_in_parallel_mode(self, monkeypatch):
        faults = ScheduledFaults(
            drops=[
                DropPlan(
                    start=0.5,
                    end=3.0,
                    channel="operations",
                    recipient="m02",
                    max_drops=2,
                )
            ]
        )
        monkeypatch.setattr(synchronizer, "MISSING_OPS_TIMEOUT", 0.4)
        config = RuntimeConfig(sync_interval=0.5, stall_timeout=2.0)
        system = DistributedSystem(n_machines=3, seed=9, faults=faults, config=config)
        system.start(first_sync_delay=0.1)
        replicas, uid = shared_counter(system)
        api = system.api("m03")
        for _ in range(3):
            api.issue_when_possible(
                api.create_operation(replicas["m03"], "increment", 99)
            )
        system.run_for(20.0)
        system.run_until_quiesced()
        assert system.node("m02").model.committed.get(uid).value == 3
        system.check_all_invariants()


class TestDegenerateSystems:
    def test_single_machine_system(self):
        system = quick_system(1)
        api = system.apis()[0]
        counter = api.create_instance(Counter)
        api.issue_operation(api.create_operation(counter, "increment", 5))
        system.run_until_quiesced()
        node = system.master_node
        assert node.model.committed.get(counter.unique_id).value == 1
        assert node.model.guess.state_equal(node.model.committed)

    def test_no_ops_for_a_long_time(self):
        # An idle concurrent cluster runs its boot round and then none.
        system = quick_system(3)
        system.run_for(60.0)
        assert len(system.metrics.sync_records) == 1
        assert system.master_node.master.idle
        system.check_all_invariants()

    def test_burst_of_many_ops_in_one_round(self):
        system = quick_system(2)
        replicas, uid = shared_counter(system)
        api = system.api("m01")
        for _ in range(200):
            api.issue_when_possible(
                api.create_operation(replicas["m01"], "increment", 10_000)
            )
        system.run_until_quiesced()
        assert system.node("m02").model.committed.get(uid).value == 200
        system.check_all_invariants()
