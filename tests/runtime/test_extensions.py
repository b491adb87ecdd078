"""Section-9 future-work extensions: parallel flush and offline
updates."""

import pytest

from repro.errors import NodeCrashedError
from repro.net.faults import CrashPlan, DropPlan, ScheduledFaults
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.runtime.system import DistributedSystem
from tests.helpers import Counter, quick_system, shared_counter, work_at


class TestParallelFlush:
    def make(self, n, parallel):
        # This class compares serial vs concurrent flush.
        config = RuntimeConfig(
            sync_interval=0.5,
            sync=SyncConfig(
                collection="concurrent" if parallel else "sequential"
            ),
        )
        system = DistributedSystem(n_machines=n, seed=3, config=config)
        system.start(first_sync_delay=0.1)
        return system

    def test_commits_work_in_parallel_mode(self):
        system = self.make(4, parallel=True)
        replicas, uid = shared_counter(system)
        for machine_id, replica in replicas.items():
            api = system.api(machine_id)
            api.issue_operation(api.create_operation(replica, "increment", 10))
        system.run_until_quiesced()
        assert system.node("m03").model.committed.get(uid).value == 4
        system.check_all_invariants()

    def test_parallel_flush_removes_per_user_slope(self):
        """The paper's scalability fix: stage-1 time no longer grows
        with the user count."""

        def mean_sync(n, parallel):
            system = self.make(n, parallel)
            # An idle concurrent cluster runs only its boot round: give
            # both strategies one operation a second to synchronize.
            for second in range(1, 10):
                work_at(system, float(second))
            system.run_for(10.0)
            durations = system.metrics.sync_durations()
            return sum(durations) / len(durations)

        serial_growth = mean_sync(8, False) - mean_sync(2, False)
        parallel_growth = mean_sync(8, True) - mean_sync(2, True)
        assert serial_growth > 0.1  # ~28 ms/user over 6 users
        assert parallel_growth < 0.25 * serial_growth

    def test_recovery_still_works_in_parallel_mode(self):
        faults = ScheduledFaults(crashes=[CrashPlan("m03", start=1.0, end=10.0)])
        config = RuntimeConfig(sync_interval=0.5, stall_timeout=2.0)
        system = DistributedSystem(n_machines=3, seed=4, faults=faults, config=config)
        system.start(first_sync_delay=0.1)
        work_at(system, 2.0)  # a round notices the crash
        system.run_for(30.0)
        assert system.metrics.node("m03").restarts == 1
        assert all(node.state == "active" for node in system.nodes.values())
        system.run_until_quiesced()
        system.check_all_invariants()

    def test_bounded_reexecution_holds_in_parallel_mode(self):
        system = self.make(4, parallel=True)
        replicas, _uid = shared_counter(system)
        import random

        rng = random.Random(0)
        for _ in range(40):
            machine_id = rng.choice(list(replicas))
            api = system.api(machine_id)
            api.issue_when_possible(
                api.create_operation(replicas[machine_id], "increment", 1000)
            )
            system.run_for(rng.random() * 0.3)
        system.run_until_quiesced()
        histogram = system.metrics.execution_histogram()
        assert max(histogram) <= 3


class TestOfflineUpdates:
    def test_offline_ops_commit_after_reconnect(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        node = system.node("m03")
        node.go_offline()
        system.run_for(2.0)
        api = node.api
        # Issue while offline: applies to the local guesstimate only.
        assert api.issue_operation(api.create_operation(replicas["m03"], "increment", 10))
        assert api.issue_operation(api.create_operation(replicas["m03"], "increment", 10))
        assert node.model.guess.get(uid).value == 2
        assert system.node("m01").model.committed.get(uid).value == 0
        system.run_for(3.0)

        node.come_online()
        system.run_until_quiesced()
        assert node.state == "active"
        assert system.node("m01").model.committed.get(uid).value == 2
        system.check_all_invariants()

    def test_offline_machine_misses_remote_commits_until_reconnect(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        node = system.node("m03")
        node.go_offline()
        system.run_for(1.0)
        api1 = system.api("m01")
        api1.issue_operation(api1.create_operation(replicas["m01"], "increment", 10))
        system.run_for(3.0)
        assert node.model.committed.get(uid).value == 0  # stale while offline
        node.come_online()
        system.run_until_quiesced()
        assert node.model.committed.get(uid).value == 1

    def test_offline_conflict_surfaces_at_reconnect(self):
        system = quick_system(2)
        replicas, uid = shared_counter(system)
        node = system.node("m02")
        node.go_offline()
        system.run_for(1.0)
        # Offline user takes the last slot locally…
        outcome = []
        api2 = node.api
        api2.issue_operation(
            api2.create_operation(replicas["m02"], "increment", 1), outcome.append
        )
        # …while an online user takes it for real.
        api1 = system.api("m01")
        api1.issue_operation(api1.create_operation(replicas["m01"], "increment", 1))
        system.run_for(3.0)
        node.come_online()
        system.run_until_quiesced()
        # The offline op lost at commit; its completion reported it.
        assert outcome == [False]
        assert system.metrics.node("m02").conflicts == 1
        assert node.model.committed.get(uid).value == 1

    def test_go_offline_requires_active(self):
        system = quick_system(2)
        node = system.node("m02")
        node.go_offline()
        with pytest.raises(NodeCrashedError):
            node.go_offline()

    def test_come_online_requires_offline(self):
        system = quick_system(2)
        with pytest.raises(NodeCrashedError):
            system.node("m02").come_online()

    def test_executions_stay_bounded_across_offline_cycle(self):
        system = quick_system(3)
        replicas, _uid = shared_counter(system)
        node = system.node("m03")
        node.go_offline()
        api = node.api
        api.issue_operation(api.create_operation(replicas["m03"], "increment", 10))
        system.run_for(2.0)
        node.come_online()
        system.run_until_quiesced()
        histogram = system.metrics.node("m03").execution_histogram()
        assert max(histogram) <= 3

    @pytest.mark.parametrize(
        "depart, come_back, farewell",
        [
            ("go_offline", "come_online", ["Goodbye", "Goodbye"]),
            ("leave", "recover_and_rejoin", ["Goodbye", "Goodbye"]),
            ("halt", "recover_and_rejoin", []),
        ],
        ids=["go_offline", "leave", "halt"],
    )
    def test_offline_while_waiting_for_missing_ops(self, depart, come_back, farewell):
        """A node that leaves the meshes — offline, gracefully or by a
        hard kill — while its round waits for lost operations signals
        nothing more until it is back, then rejoins cleanly."""
        faults = ScheduledFaults(
            drops=[
                DropPlan(0.0, 1e9, sender="m02", recipient="m03",
                         payload_type="OpBatch", max_drops=1000)
            ]
        )
        system = quick_system(3, faults=faults)
        replicas, uid = shared_counter(system)
        api = system.api("m02")
        api.issue_operation(api.create_operation(replicas["m02"], "increment", 10))
        node = system.node("m03")

        def waiting() -> bool:
            return any(
                round_state.counts is not None and round_state.missing_timer is not None
                for round_state in node.synchronizer.rounds.values()
            )

        while not waiting():
            assert system.loop.step()
        getattr(node, depart)()
        from_m03 = []

        def record(event, info):
            if info["sender"] == "m03":
                from_m03.append(info["payload"])

        system.meshes.signals.observers.append(record)
        system.run_for(5.0)
        assert from_m03 == farewell  # the leaving broadcast only

        getattr(node, come_back)()
        system.run_until_quiesced()
        assert node.state == "active"
        assert node.model.committed.get(uid).value == 1
        system.check_all_invariants()
