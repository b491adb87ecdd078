"""Fuzzer-found protocol bugs, pinned as named regression tests.

Each test here documents one bug the workload-zoo seed sweeps surfaced,
at two levels: the mechanism (a focused unit test on the exact seam
that was wrong) and, where cheap enough, the original failing scenario
replayed end to end.

Bug 1 — **gapped WAL after mid-round eviction** (counters seed 58).
    A slave stalled in pipelined round *k* was removed by the master's
    watchdog.  On receiving its own ``ParticipantRemoved`` it marked
    the round done and *kept applying* round *k+1*, durably logging a
    committed history with a hole at round *k*.  Recovery then
    announced that gapped history's *count* as a global position, the
    master served a delta backlog from the count, and the hole became
    permanent committed-prefix divergence (plus a duplicated tail
    entry).  Fixed by (a) the synchronizer's ``evicted`` latch — a node
    that learns it missed a committed round stops applying until the
    Restart rejoins it — and (b) ``Hello.recovered_tail``: the master
    cross-checks the recovered history's tail key before serving a
    backlog, falling back to a full snapshot on mismatch.

Bug 2 — **stale delta Welcome destroys the durable log** (counters
    seed 56, hash-order dependent).
    A node that restarted twice in quick succession could receive a
    delta Welcome built from its *previous* Hello's recovered count.
    The mismatch fell through to the snapshot-Welcome path — but a
    delta Welcome's snapshot field is empty, so the node rebased its
    WAL to an empty snapshot at a non-zero offset: live state stayed
    healthy while recovery would silently come back empty.  Fixed by
    aligning overlapping backlogs by position and ignoring Welcomes
    that cannot be aligned (the Hello retry loop gets a fresh one).

Bug 3 — **replay depends on ``PYTHONHASHSEED``** (mixed seeds 14, 16,
    43, 58).
    ``MasterControl._nudge_restarts`` iterated the ``awaiting_restart``
    *set*; each ``Restart`` it sends draws a latency from the seeded
    net stream, so with two machines awaiting restart the string hash
    order decided which ``Restart`` landed first and the trace digest
    differed from one process to the next.  Fixed by sorting the set.

Bug 4 — **the guess-divergence probe cannot see snapshot-covered
    commits** (listdoc seed 32, once an idle concurrent master stopped
    running empty rounds).
    A slave cut off and removed stays at its old position until its
    Restart lands; a joiner welcomed meanwhile by a full snapshot holds
    no entries for the commits that snapshot covers.  The probe
    explained a guess difference only by the *pair's* entries past their
    common position, so the gap between the two was explained by
    nobody and a stale-but-correct node read as drift.  Fixed in the
    probe: the commits past the common position are read from any node
    that holds them.
"""

import os
import subprocess
import sys

from repro.net.faults import CrashPlan, ScheduledFaults
from repro.runtime import messages as msg
from repro.simtest.probes import guess_divergence_probe
from repro.simtest.runner import run_scenario
from repro.simtest.scenario import generate_scenario
from repro.storage.codec import decode_line, encode_line
from tests.helpers import quick_system, shared_counter


def _active_pair(n: int = 2):
    system = quick_system(n)
    replicas, uid = shared_counter(system)
    system.apis()[0].invoke(uid, "increment", 10)
    system.apis()[1].invoke(uid, "increment", 10)
    system.run_until_quiesced()
    ids = system.machine_ids()
    return system, system.nodes[ids[0]], system.nodes[ids[1]]


class TestEvictionLatch:
    """Bug 1 mechanism: a node removed mid-round must stop applying."""

    def test_self_removal_blocks_later_pipelined_rounds(self):
        system, master, slave = _active_pair()
        sync = slave.synchronizer
        order = (master.machine_id, slave.machine_id)
        stalled = sync._ensure_round(101, order)
        successor = sync._ensure_round(102, order)
        successor.counts = {}  # fully collected: would apply if nudged

        sync.handle_signal(msg.ParticipantRemoved(101, slave.machine_id, False))

        assert sync.evicted
        assert stalled.done
        assert not successor.applied  # the old code applied it here

    def test_sync_complete_for_unapplied_round_evicts(self):
        """The ParticipantRemoved itself can be lost; the SyncComplete
        for a round we never applied carries the same information."""
        system, master, slave = _active_pair()
        sync = slave.synchronizer
        order = (master.machine_id, slave.machine_id)
        missed = sync._ensure_round(103, order)
        successor = sync._ensure_round(104, order)
        successor.counts = {}
        assert not missed.applied

        sync.handle_signal(msg.SyncComplete(103))

        assert sync.evicted
        assert not successor.applied

    def test_restart_clears_the_latch(self):
        system, master, slave = _active_pair()
        sync = slave.synchronizer
        sync._ensure_round(101, (master.machine_id, slave.machine_id))
        sync.handle_signal(msg.ParticipantRemoved(101, slave.machine_id, False))
        assert sync.evicted
        sync.reset()
        assert not sync.evicted


class TestRecoveryTailVerification:
    """Bug 1 backstop: the master refuses a delta backlog when the
    joiner's recovered history is not the prefix its count claims."""

    def test_mismatched_tail_falls_back_to_snapshot(self):
        system, master, slave = _active_pair()
        control = master.master
        control.recovered[slave.machine_id] = (2, ("m99", 42))
        welcome = control._build_welcome(slave.machine_id)
        assert welcome.backlog_from is None
        assert welcome.snapshot  # full state, not a delta

    def test_matching_tail_still_gets_the_backlog(self):
        system, master, slave = _active_pair()
        control = master.master
        entry = master.model.completed[1]
        control.recovered[slave.machine_id] = (
            2,
            (entry.key.machine_id, entry.key.op_number),
        )
        welcome = control._build_welcome(slave.machine_id)
        assert welcome.backlog_from == 2
        assert not welcome.snapshot

    def test_hello_tail_survives_the_wire(self):
        hello = msg.Hello("m07", recovered_count=9, recovered_tail=("m02", 4))
        revived = decode_line(encode_line(hello))
        assert revived == hello
        assert revived.recovered_tail == ("m02", 4)
        bare = decode_line(encode_line(msg.Hello("m07")))
        assert bare.recovered_tail is None


class TestStaleDeltaWelcome:
    """Bug 2 mechanism: a delta Welcome that cannot be aligned with the
    node's recovered position must be ignored, never loaded as an
    (empty) snapshot."""

    def _joining(self, slave, recovered_count):
        """Rejoin holding global position ``recovered_count`` from
        recovery (None: nothing recovered)."""
        slave.state = slave.STATE_JOINING
        slave._recovered = recovered_count is not None
        if recovered_count is not None:
            slave.completed_offset = recovered_count - slave.model.completed_count
        return slave

    def test_unalignable_backlog_is_ignored(self, monkeypatch):
        system, master, slave = _active_pair()
        self._joining(slave, recovered_count=7)
        before_offset = slave.completed_offset
        stale = msg.Welcome(
            machine_id=slave.machine_id,
            master_id=master.machine_id,
            snapshot={},
            completed_count=9,
            backlog_from=2,
            backlog=((master.machine_id, 3, {"k": "PrimitiveOp"}, True, 1.0),),
        )
        slave.load_welcome(stale)  # backlog [2, 3) cannot reach position 7
        assert slave.state == slave.STATE_JOINING  # not activated
        assert slave.completed_offset == before_offset
        hellos = []
        monkeypatch.setattr(
            slave.signals_mesh, "broadcast", lambda sender, hello: hellos.append(hello)
        )
        slave._announce()
        assert hellos[-1].recovered_count == 7  # still announced on retry

    def test_backlog_welcome_without_recovered_state_is_ignored(self):
        system, master, slave = _active_pair()
        self._joining(slave, recovered_count=None)
        held = slave.completed_offset + slave.model.completed_count
        before = slave.model.committed.snapshot_states()
        appended = []
        slave.storage.append_commit = appended.append
        # The backlog lines up with the held position, so only the
        # missing recovery can turn it away.
        stale = msg.Welcome(
            machine_id=slave.machine_id,
            master_id=master.machine_id,
            snapshot={},
            completed_count=held,
            backlog_from=held,
            backlog=(),
        )
        slave.load_welcome(stale)
        assert slave.state == slave.STATE_JOINING
        assert slave.completed_offset + slave.model.completed_count == held
        assert slave.model.committed.snapshot_states() == before
        assert appended == []


class TestOriginalFailingSeeds:
    """The sweep scenarios that exposed both bugs, replayed end to end
    (forced counters workload, full probe set, refresh oracle on)."""

    def test_counters_seed_58_converges(self):
        spec = generate_scenario(58, workload="counters")
        result = run_scenario(spec, record_trace=False)
        assert result.violations == []

    def test_counters_seed_56_converges(self):
        spec = generate_scenario(56, workload="counters")
        result = run_scenario(spec, record_trace=False)
        assert result.violations == []
        assert result.actions > 0


class TestSnapshotCoveredCommits:
    """Bug 4: a stale node against a joiner welcomed past it."""

    def test_probe_reads_the_gap_from_a_node_that_holds_it(self):
        faults = ScheduledFaults(crashes=[CrashPlan("m02", start=1.0, end=60.0)])
        system = quick_system(2, faults=faults, stall_timeout=1.0)
        _replicas, uid = shared_counter(system)
        system.run_for(1.0)
        system.api("m01").invoke(uid, "increment", 10)
        system.run_until_quiesced()  # m02 is removed; the round commits
        joiner = system.add_machine()
        system.run_until_quiesced()
        stale = system.node("m02")
        assert stale.state == "active" and joiner.completed_offset > (
            stale.completed_offset + stale.model.completed_count
        )
        assert guess_divergence_probe(system) == []
        # A real drift on the joiner is still caught (against m01).
        joiner.model.guess.get(uid).value = 99
        joiner.model.guess.mark_dirty((uid,))
        assert any(
            "m01 and " + joiner.machine_id in violation
            for violation in guess_divergence_probe(system)
        )

    def test_listdoc_seed_32_converges(self):
        spec = generate_scenario(32, workload="listdoc")
        result = run_scenario(spec, record_trace=False)
        assert result.violations == []


class TestReplayAcrossHashSeeds:
    """Bug 3: a seed's trace digest is the same in every process."""

    SCRIPT = (
        "from repro.simtest.runner import run_scenario\n"
        "from repro.simtest.scenario import generate_scenario\n"
        "for seed in (14, 43):\n"
        "    print(seed, run_scenario(generate_scenario(seed)).trace.digest())\n"
    )

    def _digests(self, hash_seed: str) -> str:
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(sys.path),
        }
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        ).stdout

    def test_digest_does_not_depend_on_string_hash_order(self):
        digests = self._digests("0")
        assert len(digests.splitlines()) == 2
        assert digests == self._digests("1")
