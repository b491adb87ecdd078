"""A round runs when someone has work (concurrent collection).

An idle concurrent master broadcasts ``SyncComplete(idle=True)`` and
arms no timer; the first machine to hold an operation wakes it with
``WorkReady``, and the woken round starts no sooner than
``sync_interval`` after the last one finished.  The paper's sequential
collection keeps its fixed period.
"""

from repro.net.faults import DropPlan, ScheduledFaults
from repro.runtime.config import SyncConfig
from tests.helpers import quick_system, shared_counter


def _rounds(system) -> int:
    return len(system.metrics.sync_records)


def _idle_counter_system(sync_interval=0.5, stall_timeout=2.0, drops=()):
    """A 3-node concurrent cluster holding one joined Counter, gone idle."""
    system = quick_system(
        3,
        faults=ScheduledFaults(drops=list(drops)),
        sync_interval=sync_interval,
        stall_timeout=stall_timeout,
    )
    _replicas, uid = shared_counter(system)
    system.run_for(3 * sync_interval)
    assert system.master_node.master.idle
    return system, uid


def _commit_time(system, machine_id: str, uid: str) -> float:
    """Issue one increment on ``machine_id``; virtual seconds to commit."""
    issued_at = system.loop.now()
    ticket = system.api(machine_id).invoke(uid, "increment", 100)
    system.run_until_quiesced(max_time=30.0)
    assert ticket.status == "committed"
    return system.loop.now() - issued_at


class TestIdleCluster:
    def test_idle_cluster_runs_no_round_after_boot(self):
        system = quick_system(3, sync_interval=0.2)
        system.run_for(10.0)
        assert _rounds(system) == 1  # the boot round
        assert system.master_node.master.idle
        assert system.master_node.master._next_round_timer is None

    def test_slave_issue_commits_in_one_round_well_under_the_interval(self):
        system, uid = _idle_counter_system(sync_interval=1.0)
        system.run_for(5.0)
        before = _rounds(system)
        assert _commit_time(system, "m02", uid) < 0.25
        assert _rounds(system) == before + 1

    def test_master_issue_wakes_itself(self):
        system, uid = _idle_counter_system(sync_interval=1.0)
        before = _rounds(system)
        system.run_for(2.0)
        assert _commit_time(system, "m01", uid) < 0.25
        assert _rounds(system) == before + 1

    def test_sequential_collection_keeps_its_period(self):
        system = quick_system(
            3, sync_interval=0.5, sync=SyncConfig(collection="sequential")
        )
        system.run_for(10.0)
        # One round per sync_interval plus the round's own duration.
        assert _rounds(system) >= 15
        assert not system.master_node.master.idle


class TestBusyCluster:
    def test_round_starts_keep_the_interval_after_the_last_finish(self):
        system, uid = _idle_counter_system(sync_interval=0.5)
        apis = system.apis()
        for index in range(60):
            # Issues from every machine, some inside a round, some
            # between rounds, some after the master went idle.
            when = 0.137 * index + (1.5 if index % 20 == 19 else 0.0)
            api = apis[index % len(apis)]
            system.loop.call_later(
                when, lambda api=api: api.invoke(uid, "increment", 1000)
            )
        system.run_for(15.0)
        system.run_until_quiesced()
        records = system.metrics.sync_records
        assert len(records) > 5
        for previous, current in zip(records, records[1:]):
            assert current.started_at - previous.finished_at >= 0.5 - 1e-9
        values = {
            node.model.committed.get(uid).value for node in system.nodes.values()
        }
        assert values == {60}

    def test_a_pending_ack_keeps_the_master_busy(self):
        system, uid = _idle_counter_system(sync_interval=0.5)
        api = system.api("m02")
        api.invoke(uid, "increment", 100)
        # The round that collects the first op sees the second issued
        # before m02 acks it: no idle SyncComplete in between.
        system.run_for(0.55)
        api.invoke(uid, "increment", 100)
        system.run_until_quiesced()
        assert system.node("m02").model.committed.get(uid).value == 2


class TestLiveness:
    def test_lost_work_ready_is_resent_after_stall_timeout(self):
        system, uid = _idle_counter_system(
            stall_timeout=2.0,
            drops=[
                DropPlan(
                    start=0.0, end=100.0, payload_type="WorkReady", max_drops=1
                )
            ],
        )
        took = _commit_time(system, "m02", uid)
        assert 2.0 <= took < 2.5

    def test_lost_idle_sync_complete_is_covered_by_the_watch(self):
        system, uid = _idle_counter_system(stall_timeout=2.0)
        system.run_for(1.0)
        now = system.loop.now()
        system.faults.drops.append(
            DropPlan(
                start=now,
                end=now + 100.0,
                recipient="m02",
                payload_type="SyncComplete",
                max_drops=1,
            )
        )
        # m01 wakes itself; m02 misses that round's idle SyncComplete
        # and still believes the master busy.
        assert _commit_time(system, "m01", uid) < 0.25
        assert not system.node("m02").synchronizer.wake_master
        system.run_for(1.0)
        took = _commit_time(system, "m02", uid)
        assert 2.0 <= took < 2.5


class TestReentry:
    def test_offline_issues_wake_the_master_on_come_online(self):
        system, uid = _idle_counter_system(sync_interval=1.0)
        node = system.node("m03")
        node.go_offline()
        ticket = node.api.invoke(uid, "increment", 100)
        system.run_for(5.0)
        assert ticket.status == "issued"
        online_at = system.loop.now()
        node.come_online()
        system.run_until_quiesced(max_time=30.0)
        assert ticket.status == "committed"
        # Its Hello wakes the master for a round one interval out, time
        # for the WelcomeAck to land first; that round flushes the op.
        assert system.loop.now() - online_at < 1.5
        assert node.machine_id in system.master_node.master.participants

    def test_fresh_joiner_wakes_the_master(self):
        system, uid = _idle_counter_system(sync_interval=1.0)
        joiner = system.add_machine()
        system.run_until_quiesced()
        system.run_for(3.0)
        assert system.master_node.master.idle
        joiner.api.join_instance(uid)
        rounds = _rounds(system)
        took = _commit_time(system, joiner.machine_id, uid)
        assert took < 0.5
        assert _rounds(system) > rounds
