"""Dynamic membership: join, snapshot transfer, leave."""

import dataclasses

from repro.runtime import messages as msg
from tests.helpers import Counter, quick_system, shared_counter


class TestJoin:
    def test_late_joiner_receives_snapshot(self):
        system = quick_system(2)
        replicas, uid = shared_counter(system)
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        system.run_until_quiesced()

        node = system.add_machine()
        system.run_until_quiesced()
        assert node.state == "active"
        assert node.model.committed.get(uid).value == 1

    def test_late_joiner_participates_in_rounds(self):
        system = quick_system(2)
        system.run_until_quiesced()
        node = system.add_machine()
        system.run_until_quiesced()
        assert node.machine_id in system.master_node.master.participants
        rounds_before = len(system.metrics.sync_records)
        system.run_for(2.0)
        new_records = system.metrics.sync_records[rounds_before:]
        assert any(record.participants == 3 for record in new_records)

    def test_late_joiner_can_issue_ops(self):
        system = quick_system(2)
        replicas, uid = shared_counter(system)
        node = system.add_machine()
        system.run_until_quiesced()
        api = node.api
        replica = api.join_instance(uid)
        assert api.issue_operation(api.create_operation(replica, "increment", 5))
        system.run_until_quiesced()
        assert system.node("m01").model.committed.get(uid).value == 1

    def test_completed_offset_recorded(self):
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        system.run_until_quiesced()
        node = system.add_machine()
        system.run_until_quiesced()
        assert node.completed_offset == 2  # create + increment
        assert node.model.completed_count == 0

    def test_issues_while_joining_are_deferred(self):
        system = quick_system(2)
        replicas, uid = shared_counter(system)
        system.run_until_quiesced()
        node = system.add_machine()
        # Before the welcome completes the node is in the joining state;
        # deferred issues run after activation.
        assert node.state == "joining"
        ran = []
        node.api.host.defer(lambda: ran.append(True)) if False else node.defer(
            lambda: ran.append(True)
        )
        system.run_until_quiesced()
        assert ran == [True]

    def test_multiple_simultaneous_joiners(self):
        system = quick_system(2)
        shared_counter(system)
        a = system.add_machine()
        b = system.add_machine()
        system.run_until_quiesced()
        assert a.state == "active" and b.state == "active"
        assert len(system.master_node.master.participants) == 4
        system.check_all_invariants()


class TestLeave:
    def test_goodbye_removes_from_participants(self):
        system = quick_system(3)
        system.run_until_quiesced()
        system.node("m03").leave()
        system.run_for(1.0)  # the Goodbye broadcast is in flight
        assert "m03" not in system.master_node.master.participants

    def test_system_continues_after_leave(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        system.node("m03").leave()
        system.run_until_quiesced()
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        system.run_until_quiesced()
        assert system.node("m02").model.committed.get(uid).value == 1

    def test_left_node_receives_nothing(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        node = system.node("m03")
        node.leave()
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        system.run_until_quiesced()
        assert node.model.committed.get(uid).value == 0  # frozen at departure

    def test_lost_hello_retried_until_welcomed(self):
        from repro.net.faults import DropPlan, ScheduledFaults

        faults = ScheduledFaults(
            drops=[
                DropPlan(
                    start=0.0,
                    end=100.0,
                    channel="signals",
                    payload_type="Hello",
                    max_drops=2,
                )
            ]
        )
        system = quick_system(2, faults=faults, stall_timeout=1.0)
        shared_counter(system)
        node = system.add_machine()
        system.run_for(10.0)  # first two Hellos eaten; retries get through
        system.run_until_quiesced()
        assert node.state == "active"

    def test_lost_welcome_retried_until_acked(self):
        from repro.net.faults import DropPlan, ScheduledFaults

        faults = ScheduledFaults(
            drops=[
                DropPlan(
                    start=0.0,
                    end=100.0,
                    channel="signals",
                    payload_type="Welcome",
                    max_drops=2,
                )
            ]
        )
        system = quick_system(2, faults=faults, stall_timeout=1.0)
        shared_counter(system)
        node = system.add_machine()
        system.run_for(15.0)
        system.run_until_quiesced()
        assert node.state == "active"
        assert node.machine_id in system.master_node.master.participants

    def test_lost_welcome_ack_heals_via_duplicate_welcome(self):
        from repro.net.faults import DropPlan, ScheduledFaults

        faults = ScheduledFaults(
            drops=[
                DropPlan(
                    start=0.0,
                    end=100.0,
                    channel="signals",
                    payload_type="WelcomeAck",
                    max_drops=1,
                )
            ]
        )
        system = quick_system(2, faults=faults, stall_timeout=1.0)
        shared_counter(system)
        node = system.add_machine()
        system.run_for(15.0)
        system.run_until_quiesced()
        assert node.state == "active"
        assert node.machine_id in system.master_node.master.participants
        assert not system.master_node.master.awaiting_ack

    def test_rejoin_after_leave(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        api1 = system.api("m01")
        api1.issue_operation(api1.create_operation(replicas["m01"], "increment", 9))
        system.run_until_quiesced()
        system.node("m03").leave()
        system.run_until_quiesced()
        node = system.add_machine()  # m04
        system.run_until_quiesced()
        assert node.model.committed.get(uid).value == 1
        system.check_all_invariants()


class TestWelcomeToActiveNode:
    """A Welcome that reaches a node already active: a duplicate (its
    ack was lost) is only re-acked; one whose backlog starts past the
    node's position cannot be loaded, so the node restarts."""

    def active(self, **config):
        system = quick_system(2, **config)
        replicas, uid = shared_counter(system)
        for _ in range(3):
            system.api("m02").invoke(replicas["m02"], "increment", 100)
        system.run_until_quiesced()
        return system, system.node("m02"), uid

    def capture(self, monkeypatch, system, method):
        sent = []
        monkeypatch.setattr(
            system.meshes.signals, method, lambda *args: sent.append(args[-1])
        )
        return sent

    def test_duplicate_welcome_is_only_reacked(self, monkeypatch):
        system, node, uid = self.active()
        held = node.completed_offset + node.model.completed_count
        states = node.model.committed.snapshot_states()
        completed = list(node.model.completed)
        duplicate = msg.Welcome(
            machine_id=node.machine_id,
            master_id="m01",
            snapshot={uid: ("Counter", {"value": 99})},
            completed_count=held,
            op_floor=node.model._op_counter + 40,
        )
        sent = self.capture(monkeypatch, system, "send")
        node.load_welcome(duplicate)
        assert node.state == node.STATE_ACTIVE
        assert node.model.committed.snapshot_states() == states
        assert node.model.completed == completed
        assert node.completed_offset + node.model.completed_count == held
        assert sent == [msg.WelcomeAck(node.machine_id)]
        assert node.model._op_counter == duplicate.op_floor

    def test_unreachable_backlog_restarts_into_joining(self, monkeypatch):
        system, node, uid = self.active(durability="memory")
        held = node.completed_offset + node.model.completed_count
        tail = node.model.completed[-1].key
        master = system.node("m01").master
        ahead = dataclasses.replace(
            master._build_welcome(node.machine_id),
            completed_count=held + 3,
            backlog_from=held + 1,
        )
        hellos = self.capture(monkeypatch, system, "broadcast")
        node.load_welcome(ahead)
        assert node.state == node.STATE_JOINING
        assert node.metrics.restarts == 1
        assert hellos == [
            msg.Hello(node.machine_id, held, (tail.machine_id, tail.op_number))
        ]
