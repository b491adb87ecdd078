"""End-to-end crash recovery: WAL + snapshot + delta-Welcome rejoin.

The acceptance scenario: a node hard-killed at a commit point (after the
write-ahead append, before its ApplyAck) restarts from ``snapshot +
WAL``, rejoins through the recovery-aware Hello/Welcome exchange, and
reaches a committed state byte-identical to the survivors' ``sc`` while
keeping an identical completed sequence ``C`` — something the plain
snapshot join cannot do (it discards local history).
"""

import dataclasses
import os

import pytest

from repro.net.faults import CommitCrashPlan, ScheduledFaults
from repro.runtime.node import GuesstimateNode
from repro.transport.daemon import boot_master
from tests.helpers import quick_system, shared_counter


def completed_sequence(model):
    return [
        (entry.key.machine_id, entry.key.op_number, entry.result)
        for entry in model.completed
    ]


def aligned_completed(node):
    return completed_sequence(node.model)


def issue_increment(system, machine_id, replicas, delay):
    api = system.api(machine_id)

    def issue():
        api.issue_operation(
            api.create_operation(replicas[machine_id], "increment", 1000)
        )

    system.loop.call_later(delay, issue)


def crash_then_advance(system, faults, replicas, victim="m03"):
    """Arm a commit crash for ``victim``, commit through it, then let the
    survivors advance a few more rounds while the victim is down."""
    faults.commit_crashes.append(CommitCrashPlan(victim))
    issue_increment(system, "m01", replicas, delay=0.1)
    system.run_for(8.0)  # crash + stall + removal + survivor progress
    assert system.node(victim).state == "stopped"
    assert victim not in system.master_node.master.participants
    for delay in (0.1, 0.6, 1.1):
        issue_increment(system, "m01", replicas, delay)
    system.run_for(6.0)
    system.run_until_quiesced()


class TestCrashRecoveryMemory:
    """Simulator-default crash tests run the WAL on the zero-IO memory medium."""

    def build(self, **config_kwargs):
        faults = ScheduledFaults()
        system = quick_system(
            3,
            faults=faults,
            stall_timeout=2.0,
            durability="memory",
            **config_kwargs,
        )
        replicas, uid = shared_counter(system)
        return system, faults, replicas, uid

    def test_recovered_node_matches_survivors_exactly(self):
        system, faults, replicas, uid = self.build()
        crash_then_advance(system, faults, replicas)
        survivor_value = system.node("m01").model.committed.get(uid).value
        assert survivor_value == 4  # the crash round + three follow-ups

        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        system.run_until_quiesced()

        m03 = system.node("m03")
        assert m03.state == "active"
        assert m03.metrics.crash_recoveries == 1
        # sc is byte-identical to the survivors'.
        assert (
            m03.model.committed.snapshot_states()
            == system.node("m01").model.committed.snapshot_states()
        )
        assert m03.model.committed.get(uid).value == survivor_value
        # C survived the crash: same offset, same full sequence — the
        # delta Welcome replayed exactly the missed suffix.
        assert m03.completed_offset == 0
        assert aligned_completed(m03) == aligned_completed(system.node("m01"))
        assert len(m03.model.completed) > 0
        system.check_all_invariants()

    def test_recovery_includes_the_crash_round(self):
        """The round being committed at the moment of the crash was
        write-ahead logged, so it must survive into the recovered C."""
        system, faults, replicas, uid = self.build()
        before_crash = len(system.node("m03").model.completed)
        crash_then_advance(system, faults, replicas)

        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        m03 = system.node("m03")
        assert m03.state == "active"
        # Replay telemetry: the WAL handed rounds back to the model.
        assert m03.metrics.storage.recoveries == 1
        assert m03.metrics.storage.last_replay_length > 0
        assert m03.metrics.recovery_replay_entries >= before_crash + 1

    def test_snapshot_interval_bounds_replay(self):
        system, faults, replicas, uid = self.build(snapshot_interval=2)
        crash_then_advance(system, faults, replicas)

        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        m03 = system.node("m03")
        assert m03.state == "active"
        assert m03.metrics.storage.snapshots_written > 0
        # Replay covered only the post-snapshot suffix.
        assert (
            m03.metrics.storage.last_replay_length
            <= 2 + 1  # interval + the crash round itself
        )
        system.run_until_quiesced()
        system.check_all_invariants()

    def test_operation_numbers_survive_recovery(self):
        """Op keys are global identities: a recovered machine must keep
        numbering past its durably-logged history."""
        system, faults, replicas, uid = self.build()
        issue_increment(system, "m03", replicas, delay=0.1)
        system.run_for(3.0)
        system.run_until_quiesced()
        crash_then_advance(system, faults, replicas)

        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        m03 = system.node("m03")
        assert m03.state == "active"
        api3 = m03.api
        replica = api3.join_instance(uid)
        api3.issue_operation(api3.create_operation(replica, "increment", 1000))
        system.run_until_quiesced()
        keys = [
            entry.key
            for entry in system.node("m01").model.completed
            if entry.key.machine_id == "m03"
        ]
        assert len(keys) == len(set(keys)) == 2
        system.check_all_invariants()

    def test_convergence_invariant_after_first_rejoin_round(self):
        """Satellite: [P](sc) = sg holds right after a crash-recovered
        node finishes its first post-rejoin synchronization round."""
        system, faults, replicas, uid = self.build()
        crash_then_advance(system, faults, replicas)

        m03 = system.node("m03")
        m03.recover_and_rejoin()
        system.run_for(5.0)
        assert m03.state == "active"
        # Issue on the recovered node so P is nonempty; the invariant
        # must hold at issue time (op applied to sg)...
        api3 = m03.api
        replica = api3.join_instance(uid)
        api3.issue_operation(api3.create_operation(replica, "increment", 1000))
        assert len(m03.model.pending) == 1
        assert m03.model.check_convergence_invariant()
        # ...and again once the first post-rejoin round commits it.
        system.run_until_quiesced()
        assert m03.metrics.ops_committed_ok >= 1
        assert m03.model.pending == []
        assert m03.model.check_convergence_invariant()
        assert m03.model.committed.get(uid).value == system.node(
            "m01"
        ).model.committed.get(uid).value
        system.check_all_invariants()

    def test_double_crash_recovers_twice(self):
        system, faults, replicas, uid = self.build()
        crash_then_advance(system, faults, replicas)
        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        assert system.node("m03").state == "active"

        crash_then_advance(system, faults, replicas)
        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        system.run_until_quiesced()
        m03 = system.node("m03")
        assert m03.state == "active"
        assert m03.metrics.crash_recoveries == 2
        assert aligned_completed(m03) == aligned_completed(system.node("m01"))
        system.check_all_invariants()


class TestOneStreamFourRoutes:
    """One committed stream reaches a replica four ways — a live round,
    WAL recovery, a delta Welcome while joining, a superseding Welcome
    while active — and every route commits through the model's one
    ``commit`` step: same ``sc``, same ``(machine, op number, result)``
    sequence, results computed by the replay rather than copied from
    the log.  The two snapshot routes — a Welcome to a joiner with no
    durable state, a superseding one to an active node — install the
    same ``sc`` at the same global position."""

    def build(self):
        system = quick_system(
            5, stall_timeout=2.0, durability="memory", tracing=True
        )
        replicas, uid = shared_counter(system)
        return system, replicas

    def burst(self, system, replicas, limit, times):
        """m01 and m02 race increments up to ``limit``: the losers
        commit with a False result, so the stream carries both."""
        for machine_id in ("m01", "m02"):
            for _ in range(times):
                system.api(machine_id).invoke(
                    replicas[machine_id], "increment", limit
                )
        system.run_until_quiesced()

    def committed_stream(self):
        """Two bursts; m03 and m05 (still active) and m04 (halted) sit
        out the second one.  Returns the system and the global position
        the stragglers hold."""
        system, replicas = self.build()
        self.burst(system, replicas, limit=3, times=2)
        master = system.master_node.master
        held = system.node("m03").model.completed_count
        for straggler in ("m03", "m04", "m05"):
            master.participants.remove(straggler)
        system.node("m04").halt()
        self.burst(system, replicas, limit=6, times=3)
        reference = aligned_completed(system.node("m01"))
        assert len(reference) > held
        assert {result for _, _, result in reference} == {True, False}
        for straggler in ("m03", "m05"):
            assert aligned_completed(system.node(straggler)) == reference[:held]
        return system, held

    def actions(self, system, machine_id, kind):
        return [
            event.detail.get("action")
            for event in system.tracer.events
            if event.machine_id == machine_id and event.kind == kind
        ]

    def test_every_route_commits_the_same_sequence(self):
        system, held = self.committed_stream()
        m01, m02, m03, m04, m05 = (system.node(f"m0{i}") for i in range(1, 6))
        master = system.master_node.master

        # WAL recovery.
        rebuilt = m02._rebuild_from_storage(m02.storage.recover())

        # Delta Welcome to a joining node.
        m04.recover_and_rejoin()
        system.run_for(5.0)
        assert m04.state == "active"
        assert "catch_up" in self.actions(system, "m04", "storage")

        # Superseding Welcome to an active node that fell behind.
        tail = m03.model.completed[-1].key
        master.recovered["m03"] = (held, (tail.machine_id, tail.op_number))
        welcome = master._build_welcome("m03")
        assert welcome.backlog_from == held
        m03.load_welcome(welcome)
        assert "catch_up_welcome" in self.actions(system, "m03", "membership")

        # Snapshot Welcome to a joiner with no durable state.
        m06 = system.add_machine()
        system.run_for(5.0)
        assert m06.state == "active"
        assert m06.metrics.crash_recoveries == 0

        # Superseding snapshot Welcome to an active node that fell behind.
        welcome = master._build_welcome("m05")
        assert welcome.backlog_from is None
        m05.load_welcome(welcome)
        assert "catch_up_welcome" in self.actions(system, "m05", "membership")

        reference = aligned_completed(m01)
        for route, model in (
            ("live round", m02.model),
            ("WAL recovery", rebuilt),
            ("delta Welcome", m04.model),
            ("superseding Welcome", m03.model),
        ):
            assert model.committed.state_equal(m01.model.committed), route
            assert completed_sequence(model) == reference, route
        position = m01.completed_offset + m01.model.completed_count
        for route, node in (("snapshot Welcome", m06), ("superseding snapshot", m05)):
            assert node.model.committed.state_equal(m01.model.committed), route
            assert node.completed_offset + node.model.completed_count == position

    def test_replay_records_the_result_it_computed(self):
        """A WAL record whose logged result was flipped rebuilds with
        the result deterministic replay produces."""
        system, _held = self.committed_stream()
        m01, m02 = system.node("m01"), system.node("m02")
        recovered = m02.storage.recover()
        recovered.commits = [
            dataclasses.replace(
                commit,
                entries=tuple(
                    (machine, number, payload, not result, at)
                    for machine, number, payload, result, at in commit.entries
                ),
            )
            for commit in recovered.commits
        ]
        rebuilt = m02._rebuild_from_storage(recovered)
        assert rebuilt.committed.state_equal(m01.model.committed)
        assert completed_sequence(rebuilt) == aligned_completed(m01)


class TestCrashRecoveryDisk:
    """The same scenario against real files: WAL segments, snapshots,
    and deliberately damaged logs."""

    def build(self, tmp_path, **config_kwargs):
        faults = ScheduledFaults()
        system = quick_system(
            3,
            faults=faults,
            stall_timeout=2.0,
            durability="disk",
            data_dir=str(tmp_path),
            fsync_policy="always",
            **config_kwargs,
        )
        replicas, uid = shared_counter(system)
        return system, faults, replicas, uid

    def _wal_segments(self, tmp_path, machine_id):
        directory = tmp_path / machine_id
        return sorted(
            directory / name
            for name in os.listdir(directory)
            if name.startswith("wal-")
        )

    def test_disk_recovery_round_trip(self, tmp_path):
        system, faults, replicas, uid = self.build(tmp_path)
        crash_then_advance(system, faults, replicas)
        assert self._wal_segments(tmp_path, "m03")  # the log is real

        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        system.run_until_quiesced()
        m03 = system.node("m03")
        assert m03.state == "active"
        assert m03.metrics.storage.fsyncs > 0
        assert (
            m03.model.committed.snapshot_states()
            == system.node("m01").model.committed.snapshot_states()
        )
        assert aligned_completed(m03) == aligned_completed(system.node("m01"))
        system.check_all_invariants()

    def test_disk_recovery_with_snapshots(self, tmp_path):
        system, faults, replicas, uid = self.build(tmp_path, snapshot_interval=2)
        crash_then_advance(system, faults, replicas)
        assert (tmp_path / "m03" / "snapshot.json").exists()

        system.node("m03").recover_and_rejoin()
        system.run_for(5.0)
        system.run_until_quiesced()
        m03 = system.node("m03")
        assert m03.state == "active"
        assert m03.metrics.storage.snapshots_written > 0
        # Snapshots truncate local history: m03 holds C's suffix from
        # its last snapshot point, aligned by completed_offset.
        assert m03.completed_offset > 0
        reference = aligned_completed(system.node("m01"))
        assert aligned_completed(m03) == reference[m03.completed_offset :]
        system.check_all_invariants()

    def test_torn_final_record_recovers_cleanly(self, tmp_path):
        """Acceptance: a truncated final WAL record (torn write) loses
        only the damaged tail — the node still recovers and converges."""
        system, faults, replicas, uid = self.build(tmp_path)
        crash_then_advance(system, faults, replicas)

        last = self._wal_segments(tmp_path, "m03")[-1]
        blob = last.read_bytes()
        last.write_bytes(blob[:-9])  # tear the final record mid-line

        m03 = system.node("m03")
        m03.recover_and_rejoin()
        system.run_for(5.0)
        system.run_until_quiesced()
        assert m03.state == "active"
        assert m03.metrics.storage.truncated_tail_records >= 1
        # The dropped round came back through the master's backlog.
        assert (
            m03.model.committed.snapshot_states()
            == system.node("m01").model.committed.snapshot_states()
        )
        assert aligned_completed(m03) == aligned_completed(system.node("m01"))
        system.check_all_invariants()

    def test_bit_flipped_final_record_recovers_cleanly(self, tmp_path):
        system, faults, replicas, uid = self.build(tmp_path)
        crash_then_advance(system, faults, replicas)

        last = self._wal_segments(tmp_path, "m03")[-1]
        blob = bytearray(last.read_bytes())
        blob[-4] ^= 0x10  # corrupt the final record's payload
        last.write_bytes(bytes(blob))

        m03 = system.node("m03")
        m03.recover_and_rejoin()
        system.run_for(5.0)
        system.run_until_quiesced()
        assert m03.state == "active"
        assert m03.metrics.storage.truncated_tail_records >= 1
        assert aligned_completed(m03) == aligned_completed(system.node("m01"))
        system.check_all_invariants()

    def test_empty_data_dir_falls_back_to_snapshot_join(self, tmp_path):
        """Losing the entire durable store is survivable: the node comes
        back with nothing and takes the ordinary full-snapshot Welcome."""
        system, faults, replicas, uid = self.build(tmp_path)
        crash_then_advance(system, faults, replicas)

        for path in self._wal_segments(tmp_path, "m03"):
            os.remove(path)

        m03 = system.node("m03")
        m03.recover_and_rejoin()
        system.run_for(5.0)
        system.run_until_quiesced()
        assert m03.state == "active"
        assert m03.metrics.crash_recoveries == 0  # nothing to recover from
        assert m03.completed_offset > 0  # snapshot join: suffix holder
        assert (
            m03.model.committed.snapshot_states()
            == system.node("m01").model.committed.snapshot_states()
        )
        system.check_all_invariants()


class TestMasterDaemonRestart:
    """A master daemon killed and started again on its data directory.

    The daemon's :func:`~repro.transport.daemon.boot_master` boots a
    fresh process as a new node; the same function runs here on the
    simulator.
    """

    def restart_master(self, tmp_path, increments=1, **config_kwargs):
        system = quick_system(
            3,
            stall_timeout=2.0,
            durability="disk",
            data_dir=str(tmp_path),
            fsync_policy="always",
            **config_kwargs,
        )
        replicas, uid = shared_counter(system)
        for index in range(increments):
            issue_increment(system, "m01", replicas, delay=0.1 + 0.6 * index)
        system.run_for(2.0 + 0.6 * (increments - 1))
        system.run_until_quiesced()
        old = system.master_node
        old.halt()
        master = GuesstimateNode(
            machine_id=old.machine_id,
            scheduler=system.loop,
            meshes=system.meshes,
            config=system.config,
            metrics_system=system.metrics,
            tracer=system.tracer,
            is_master=True,
        )
        system.nodes[old.machine_id] = master
        boot_master(master)
        return system, replicas, uid

    def test_restarted_master_resumes_from_its_log(self, tmp_path):
        system, replicas, uid = self.restart_master(tmp_path)
        master = system.master_node
        assert master.metrics.crash_recoveries == 1
        assert master.model.committed.get(uid).value == 1
        assert master.model.guess.state_equal(master.model.committed)
        assert master.api.model is master.model
        assert master.api.read_locks is master.read_locks

    def test_snapshot_welcome_carries_the_global_position(self, tmp_path):
        """A master booted from a snapshot holds only the suffix past it;
        its snapshot Welcome still names the global |C|, and a fresh
        joiner takes that position."""
        system, replicas, uid = self.restart_master(
            tmp_path, increments=6, snapshot_interval=2
        )
        master = system.master_node
        position = master.completed_offset + master.model.completed_count
        assert position == 7
        assert master.completed_offset > 0  # booted from a snapshot
        joiner = system.add_machine()
        welcome = master.master._build_welcome(joiner.machine_id)
        assert welcome.backlog_from is None
        assert welcome.completed_count == position
        system.run_for(5.0)
        assert joiner.state == "active"
        assert joiner.completed_offset + joiner.model.completed_count == position
        assert joiner.model.committed.state_equal(master.model.committed)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "a restarted master has participants == [self] and round 0, and "
            "its still-active slaves never send Hello; the fix (a round "
            "watermark on Welcome, a way back in for slaves) is a wire "
            "change that waits for ROADMAP item 3's protocol checker"
        ),
    )
    def test_restarted_master_readmits_its_slaves(self, tmp_path):
        system, replicas, uid = self.restart_master(tmp_path)
        for machine_id in ("m02", "m03"):
            api = system.api(machine_id)
            api.issue_operation(
                api.create_operation(replicas[machine_id], "increment", 1000)
            )
        system.run_for(60.0)
        for node in system.nodes.values():
            assert not node.model.pending
            assert node.model.committed.get(uid).value == 3
