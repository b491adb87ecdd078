"""Regression tests for protocol edge cases the simulation fuzzer found.

Each scenario here was first caught by ``simfuzz`` as an invariant
violation on a concrete seed, then shrunk and root-caused.  The tests
pin the node- and master-side behaviours that fix them:

* stale round signals must not resurrect completed rounds (a zombie
  round re-applies or waits forever for ops nobody holds);
* the master may never strike out its own machine (Hello never reaches
  the co-located MasterControl, so the removal is permanent);
* after ``BeginApply`` the round's counts are immutable — a removal
  keeps the removed machine's ops everywhere;
* a ``JOINING`` machine is outside every round until welcomed;
* a rejoining machine resumes op numbering above ``Welcome.op_floor``.
"""

from repro.core.machine import CompletedEntry, MachineModel
from repro.core.operations import OpKey
from repro.runtime import messages as msg
from repro.runtime.config import SyncConfig
from repro.runtime.metrics import SyncRecord
from repro.runtime.synchronizer import _MasterRound
from tests.helpers import quick_system, shared_counter

ORDER = ("m01", "m02", "m03")


class TestQuiescence:
    def test_quiesced_with_back_to_back_empty_rounds(self):
        """Back-to-back op-less control rounds must not block quiescence.
        Sequential collection keeps its period on an idle cluster, so it
        still runs them (a concurrent master goes idle instead)."""
        system = quick_system(
            3, sync_interval=0.05, sync=SyncConfig(collection="sequential")
        )
        replicas, _uid = shared_counter(system)
        ticket = system.api("m02").invoke(replicas["m02"], "increment", 10)
        quiesced_at = system.run_until_quiesced(max_time=60.0)
        assert ticket.commit_result is True
        # The master keeps opening empty rounds after the op commits;
        # quiescence must still have been reached promptly.
        assert quiesced_at < 60.0
        system.check_all_invariants()


class TestStaleRestart:
    def test_restart_crossing_own_hello_is_ignored(self):
        """A Restart that raced our Hello must not restart us twice."""
        system = quick_system(3)
        system.run_until_quiesced()
        node = system.node("m02")
        node.restart()
        assert node.state == node.STATE_JOINING
        assert node.metrics.restarts == 1
        node.synchronizer.handle_signal(msg.Restart("m02"))
        assert node.metrics.restarts == 1
        system.run_until_quiesced()
        assert node.state == node.STATE_ACTIVE
        system.check_all_invariants()


class TestZombieRounds:
    def test_late_signals_do_not_resurrect_done_rounds(self):
        """Signals for a completed round are stale, not a new round.

        A resent ``BeginApply`` can arrive after the round's
        ``SyncComplete`` popped it; recreating the round would leave an
        empty zombie that re-applies or waits forever for ops.
        """
        system = quick_system(3)
        syn = system.node("m02").synchronizer
        syn.handle_signal(msg.SyncComplete(7))
        assert syn.last_done_round == 7
        syn.handle_signal(msg.BeginApply(7, ORDER, (("m01", 0),)))
        assert 7 not in syn.rounds
        syn.handle_op(msg.OpBatch(7, "m03", 0, 1, ((1, {"stale": 1}),)))
        assert 7 not in syn.op_buffer

    def test_fresh_rounds_still_open_past_the_watermark(self):
        system = quick_system(3)
        syn = system.node("m02").synchronizer
        syn.handle_signal(msg.SyncComplete(7))
        assert syn._ensure_round(8, ORDER) is not None
        assert 8 in syn.rounds


class TestMasterSelfPreservation:
    def _stalled_round(self, system, stage="apply"):
        round_ = _MasterRound(
            round_id=99,
            order=ORDER,
            record=SyncRecord(
                round_id=99,
                started_at=system.loop.now(),
                participants=3,
                collection="concurrent",
            ),
            parallel=True,
            stage=stage,
            counts={"m01": 0, "m02": 0, "m03": 0},
        )
        system.node("m01").master.round = round_
        return round_

    def test_master_never_strike_removes_own_machine(self):
        system = quick_system(3)
        master = system.node("m01").master
        round_ = self._stalled_round(system)
        for _ in range(5):
            master._handle_stall(round_, "m01", stage="apply")
        assert "m01" in master.participants
        assert "m01" not in round_.removed
        assert "m01" not in master.awaiting_restart

    def test_slave_is_removed_on_second_strike(self):
        system = quick_system(3)
        master = system.node("m01").master
        round_ = self._stalled_round(system)
        master._handle_stall(round_, "m03", stage="apply")
        assert "m03" not in round_.removed  # first strike only resends
        master._handle_stall(round_, "m03", stage="apply")
        assert "m03" in round_.removed
        assert "m03" not in master.participants
        assert "m03" in master.awaiting_restart


class TestCountsImmutableAfterPublication:
    def _collected_round(self, syn):
        round_state = syn._ensure_round(5, ORDER)
        round_state.received[OpKey("m03", 1)] = {"encoded": 1}
        # One of m03's two ops is still in flight, so the round cannot
        # apply during the test.
        round_state.counts = {"m01": 0, "m02": 0, "m03": 2}
        return round_state

    def test_post_publication_removal_keeps_counts_and_ops(self):
        """drop_ops=False: the removal never changes the round content."""
        system = quick_system(3)
        syn = system.node("m02").synchronizer
        round_state = self._collected_round(syn)
        syn._on_participant_removed(msg.ParticipantRemoved(5, "m03", False))
        assert round_state.counts["m03"] == 2
        assert OpKey("m03", 1) in round_state.received
        assert "m03" not in round_state.dropped
        assert not round_state.applied  # still waiting for m03's op

    def test_flush_stage_removal_drops_ops(self):
        """drop_ops=True: the flush was never published; exclude it."""
        system = quick_system(3)
        syn = system.node("m02").synchronizer
        round_state = self._collected_round(syn)
        syn._on_participant_removed(msg.ParticipantRemoved(5, "m03", True))
        assert "m03" not in round_state.counts
        assert OpKey("m03", 1) not in round_state.received
        assert "m03" in round_state.dropped

    def test_master_keeps_counts_after_begin_apply(self):
        system = quick_system(3)
        master = system.node("m01").master
        round_ = _MasterRound(
            round_id=42,
            order=ORDER,
            record=SyncRecord(round_id=42, started_at=0.0, participants=3),
            parallel=True,
            stage="apply",
            counts={"m01": 0, "m02": 0, "m03": 3},
        )
        master.round = round_
        master._remove_from_round(round_, "m03")
        assert round_.counts["m03"] == 3  # published counts are immutable
        master.round = None


class TestJoiningGate:
    def test_joining_node_ignores_round_traffic(self):
        system = quick_system(3)
        node = system.node("m03")
        node.restart()
        syn = node.synchronizer
        syn.handle_signal(msg.StartSync(4, ORDER, True))
        assert syn.rounds == {}
        syn.handle_signal(msg.BeginApply(4, ORDER, (("m01", 0),)))
        assert syn.rounds == {}
        syn.handle_op(msg.OpBatch(4, "m01", 0, 1, ((1, {"x": 1}),)))
        assert syn.op_buffer == {}
        assert node.state == node.STATE_JOINING

    def test_joining_node_ignores_other_machines_welcome(self):
        system = quick_system(3)
        node = system.node("m03")
        node.restart()
        node.synchronizer.handle_signal(
            msg.Welcome(machine_id="m02", master_id="m01", snapshot={},
                        completed_count=0)
        )
        assert node.state == node.STATE_JOINING


class TestOpFloor:
    def test_high_water_tracks_completed_numbers(self):
        model = MachineModel("m01")
        model.record_completed(CompletedEntry(OpKey("m02", 3), None, True, 1.0))
        model.record_completed(CompletedEntry(OpKey("m02", 7), None, True, 2.0))
        model.record_completed(CompletedEntry(OpKey("m02", 5), None, False, 3.0))
        assert model.op_high_water["m02"] == 7
        # Truncating C (snapshot + suffix) must not lower the floor.
        model.completed.clear()
        assert model.op_high_water["m02"] == 7

    def test_welcome_op_floor_prevents_key_reuse(self):
        """A crash can wipe the joiner's op counter while its last flush
        commits cluster-side; the Welcome floor stops number reuse."""
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        for _ in range(3):
            system.api("m02").invoke(replicas["m02"], "increment", 100)
        system.run_until_quiesced()
        master = system.node("m01").master
        welcome = master._build_welcome("m02")
        assert welcome.op_floor >= 3
        node = system.node("m02")
        node.restart()
        node.model._op_counter = 0  # what a lost counter looks like
        node.load_welcome(welcome)
        assert node.model._op_counter >= welcome.op_floor
        # The next key minted can never collide with committed history.
        assert node.model.next_op_key().op_number > welcome.op_floor
