"""The three-stage synchronization protocol (paper section 4).

Every node runs a :class:`Synchronizer`; the designated master node
additionally runs a :class:`MasterControl` that initiates rounds,
grants flush turns, watches for stalls and drives recovery.  The
master's announcements are broadcasts; the two acknowledgements only it
reads (``FlushDone``, ``ApplyAck``) are sent to it alone — ``order[0]``
of the round — so a fault-free concurrent round is 5(N-1) signals.

Stage 1 — **AddUpdatesToMesh**.  Two collection strategies
(:class:`~repro.runtime.config.SyncConfig.collection`), chosen when
the master creates the round:

* ``concurrent`` (the default; the paper's section-9 extension) — the
  master broadcasts one collect signal (``StartSync(parallel=True)``)
  and every participant flushes at once;
* ``sequential`` — the paper's protocol, kept as the fidelity
  reference: the master grants each machine its turn
  (:class:`~repro.runtime.messages.YourTurn`) and round latency grows
  linearly with the participant count.

Arrivals are ordered deterministically by ``(machine_id, seq)``, so
both commit the identical sequence, through the one apply path
(:meth:`Synchronizer._apply`).

In either mode a flush ships the pending list as size-capped
:class:`~repro.runtime.messages.OpBatch` frames (``batch_max_ops``
entries each) followed by a
:class:`~repro.runtime.messages.FlushDone` to the master.  No
operations may be issued inside the flush window.

**One round in flight**, as in the paper: the master opens round *k+1*
only after round *k* has finished, i.e. every participant of *k* has
acknowledged it or been removed.  A removed machine is outside every
later round until it re-enters through :meth:`Synchronizer.reset`, so
no node ever holds an unapplied round below one it can apply, and
rounds commit in round-id order without a node-side ordering guard.

Stage 2 — **ApplyUpdatesFromMesh**.  The master broadcasts
:class:`~repro.runtime.messages.BeginApply` with the authoritative
per-machine counts.  Each machine waits for every expected operation,
applies the consolidated list to its committed state in lexicographic
(machineID, opnumber) order, acknowledges, then refreshes the
guesstimated state (copy committed → guess, run completion routines,
re-apply the still-pending list).  No operations may be issued inside
the update window.

Stage 3 — **FlagCompletion**.  Once every acknowledgment is in, the
master broadcasts :class:`~repro.runtime.messages.SyncComplete` and
schedules the next round ``sync_interval`` later — under concurrent
collection only while some machine holds work.  An idle concurrent
master (no ``ApplyAck`` said ``pending``, its own node holds nothing,
no membership work queued) broadcasts ``SyncComplete(idle=True)`` and
arms no timer; the first machine to hold an operation wakes it with
:class:`~repro.runtime.messages.WorkReady`, and the round starts no
sooner than ``sync_interval`` after the last one finished.

Fault recovery mirrors the paper: a stalled machine first gets its
signal resent (:class:`~repro.runtime.messages.YourTurn` or a unicast
``BeginApply``), which one that had already flushed or applied answers
by repeating its acknowledgement; if it still does not respond it is
removed from the current synchronization and told to
:class:`~repro.runtime.messages.Restart`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.machine import PendingEntry
from repro.core.operations import OpKey
from repro.core.serialization import decode_op, encode_op
from repro.runtime import messages as msg
from repro.runtime.config import apply_cpu, flush_cpu, update_cpu
from repro.runtime.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.node import GuesstimateNode

#: How long a machine waits for missing operations after BeginApply
#: before broadcasting a resend request.
MISSING_OPS_TIMEOUT = 1.0


def consolidated_order(node: "GuesstimateNode", round_state: "RoundState") -> list[OpKey]:
    """The global apply order: lexicographic (machineID, opnumber).

    Every machine must use this exact order or the committed sequences
    diverge — which is why the simulation fuzzer's self-test mutates
    this one function and asserts the invariant probes catch it.
    """
    assert round_state.counts is not None
    return sorted(
        key for key in round_state.received if key.machine_id in round_state.counts
    )


@dataclass(slots=True)
class RoundState:
    """One node's view of a synchronization round."""

    round_id: int
    order: tuple[str, ...]
    flushed: bool = False
    flush_count: int = 0
    counts: dict[str, int] | None = None
    received: dict[OpKey, dict] = field(default_factory=dict)
    dropped: set[str] = field(default_factory=set)
    applied: bool = False
    done: bool = False
    missing_timer: object | None = None

    def received_count_from(self, machine_id: str) -> int:
        return sum(1 for key in self.received if key.machine_id == machine_id)

    def missing(self) -> dict[str, int]:
        """Per-machine number of operations still missing."""
        assert self.counts is not None
        gaps: dict[str, int] = {}
        for machine_id, expected in self.counts.items():
            have = self.received_count_from(machine_id)
            if have < expected:
                gaps[machine_id] = expected - have
        return gaps

    def complete(self) -> bool:
        if self.counts is None:
            return False
        return not self.missing()


class Synchronizer:
    """Per-node protocol logic (both master and slaves run this)."""

    def __init__(self, node: "GuesstimateNode"):
        self.node = node
        self.rounds: dict[int, RoundState] = {}
        self.op_buffer: dict[int, dict[OpKey, dict]] = {}
        self.in_flight: dict[OpKey, PendingEntry] = {}
        self.pending_completions: list[tuple[PendingEntry, bool]] = []
        #: committed-store ids touched by the applied round whose guess
        #: refresh has not run yet — the delta refresh drains this
        self.refresh_backlog: set[str] = set()
        #: participant order of the newest round signal seen
        #: (``GET /cluster`` reports it on a slave)
        self.last_order: tuple[str, ...] = ()
        #: highest round id we have seen SyncComplete for — stale
        #: signals for rounds at or below this must not resurrect them
        self.last_done_round: int = 0
        #: where WorkReady goes: ``order[0]`` of the newest round signal,
        #: or the sender of our last Welcome
        self.master_id: str | None = None
        #: the master may be idle: the next local issue sends WorkReady
        #: (set by ``SyncComplete(idle=True)`` and by a Welcome, after
        #: which this node cannot know the master's state)
        self.wake_master = False
        #: when a round last included us or we last woke the master; the
        #: wake watch re-sends WorkReady ``stall_timeout`` after it
        self._wake_clock = 0.0
        self._wake_armed = False
        #: set once this node learns it missed a committed round (the
        #: master removed it mid-round, or a SyncComplete arrived for a
        #: round it never applied).  From that moment its committed
        #: prefix has a hole: applying any later round would log a
        #: gapped history to the WAL, which recovery would then announce
        #: as a clean prefix.  All applies stop until restart/reset.
        self.evicted: bool = False

    # -- message dispatch -----------------------------------------------------

    def handle_signal(self, payload: object) -> None:
        """Dispatch one signals-channel message."""
        node = self.node
        if node.state == node.STATE_JOINING:
            # A joining machine is outside every round until the
            # master's Welcome admits it (the paper welcomes between
            # rounds).  Applying round signals on top of recovered
            # state here would race the Welcome the master builds from
            # our announced position and duplicate committed ops.
            if (
                isinstance(payload, msg.Welcome)
                and payload.machine_id == node.machine_id
            ):
                node.load_welcome(payload)
            return
        if isinstance(payload, (msg.StartSync, msg.YourTurn, msg.BeginApply)):
            self.last_order = payload.order
            self.master_id = payload.order[0]
        if isinstance(payload, msg.StartSync):
            self._on_start_sync(payload)
        elif isinstance(payload, msg.YourTurn):
            if payload.machine_id == node.machine_id:
                self._on_your_turn(payload)
        elif isinstance(payload, msg.BeginApply):
            self._on_begin_apply(payload)
        elif isinstance(payload, msg.ResendOpsRequest):
            self._on_resend_request(payload)
        elif isinstance(payload, msg.SyncComplete):
            self._on_sync_complete(payload)
        elif isinstance(payload, msg.ParticipantRemoved):
            self._on_participant_removed(payload)
        elif isinstance(payload, msg.Restart):
            # A Restart that crosses paths with our own in-flight Hello
            # is stale: we already restarted and are waiting for the
            # Welcome, so restarting again would only repeat recovery.
            if (
                payload.machine_id == node.machine_id
                and node.state != node.STATE_JOINING
            ):
                node.restart()
        elif isinstance(payload, msg.Welcome):
            if payload.machine_id == node.machine_id:
                node.load_welcome(payload)

    def handle_op(self, payload: msg.OpBatch) -> None:
        """Dispatch one operations-channel frame."""
        if self.node.state == self.node.STATE_JOINING:
            return  # not in any round until welcomed
        items = [
            (OpKey(payload.machine_id, op_number), op_payload)
            for op_number, op_payload in payload.ops
        ]
        if payload.round_id <= self.last_done_round:
            return  # late frames for a round that already completed
        round_state = self.rounds.get(payload.round_id)
        if round_state is None:
            buffered = self.op_buffer.setdefault(payload.round_id, {})
            buffered.update(items)
            return
        if payload.machine_id in round_state.dropped:
            return
        round_state.received.update(items)
        self._try_apply(round_state)

    # -- stage 1: AddUpdatesToMesh ---------------------------------------------

    def _on_start_sync(self, start: msg.StartSync) -> None:
        if self.node.machine_id not in start.order:
            return
        round_state = self._ensure_round(start.round_id, start.order)
        if round_state is None:
            return
        self._round_seen()
        if not start.parallel or round_state.flushed:
            return
        # Section-9 extension: everyone flushes at once.
        self._flush(round_state)

    def _on_your_turn(self, turn: msg.YourTurn) -> None:
        round_state = self._ensure_round(turn.round_id, turn.order)
        if round_state is None or round_state.done:
            return
        self._round_seen()
        if round_state.flushed:
            # Our FlushDone was probably lost; resend it (recovery path).
            self.node.signal_master(
                turn.order[0],
                msg.FlushDone(turn.round_id, self.node.machine_id, round_state.flush_count),
            )
            return
        self._flush(round_state)

    def _flush(self, round_state: RoundState) -> None:
        node = self.node
        node.enter_window("flush")
        entries = node.model.take_pending()
        encoded: list[tuple[int, dict]] = []
        for entry in entries:
            payload = encode_op(entry.op)
            self.in_flight[entry.key] = entry
            round_state.received[entry.key] = payload  # self-delivery
            encoded.append((entry.key.op_number, payload))
        batches = self._broadcast_batches(round_state.round_id, encoded)
        round_state.flushed = True
        round_state.flush_count = len(entries)
        node.metrics.op_batches_sent += batches
        node.trace(
            Tracer.FLUSH,
            round=round_state.round_id,
            count=len(entries),
            batches=batches,
        )

        def end_flush() -> None:
            node.exit_window("flush")
            node.signal_master(
                round_state.order[0],
                msg.FlushDone(round_state.round_id, node.machine_id, round_state.flush_count),
            )

        node.scheduler.after_work(flush_cpu(len(entries)), end_flush)
        self._try_apply(round_state)

    def _broadcast_batches(
        self, round_id: int, encoded: list[tuple[int, dict]]
    ) -> int:
        """Broadcast ``(op_number, payload)`` pairs as OpBatch frames.

        Returns the number of frames sent.  An empty flush sends no
        data frames at all — FlushDone alone carries the zero count.
        """
        if not encoded:
            return 0
        node = self.node
        cap = node.config.sync.batch_max_ops
        chunks = [encoded[i : i + cap] for i in range(0, len(encoded), cap)]
        for seq, chunk in enumerate(chunks):
            node.ops_mesh.broadcast(
                node.machine_id,
                msg.OpBatch(
                    round_id, node.machine_id, seq, len(chunks), tuple(chunk)
                ),
            )
        return len(chunks)

    # -- stage 2: ApplyUpdatesFromMesh -------------------------------------------

    def _on_begin_apply(self, begin: msg.BeginApply) -> None:
        if self.node.machine_id not in begin.order:
            return
        round_state = self._ensure_round(begin.round_id, begin.order)
        if round_state is None or round_state.done:
            return
        if round_state.applied:
            # A second BeginApply for a round we applied: our ApplyAck
            # was probably lost; resend it (mirrors _on_your_turn).
            self._ack(begin.order[0], begin.round_id)
            return
        round_state.counts = dict(begin.counts)
        for dropped in round_state.dropped:
            round_state.counts.pop(dropped, None)
        self._try_apply(round_state)
        if not round_state.applied and round_state.missing_timer is None:
            round_state.missing_timer = self.node.scheduler.call_later(
                MISSING_OPS_TIMEOUT, lambda: self._request_missing(round_state)
            )

    def _request_missing(self, round_state: RoundState) -> None:
        round_state.missing_timer = None
        if round_state.applied or round_state.done:
            return
        have = tuple(
            sorted((key.machine_id, key.op_number) for key in round_state.received)
        )
        self.node.trace(
            Tracer.RECOVERY, action="request_missing", round=round_state.round_id
        )
        self.node.signals_mesh.broadcast(
            self.node.machine_id,
            msg.ResendOpsRequest(round_state.round_id, self.node.machine_id, have),
        )
        # Keep asking until the gap closes or the master removes us.
        round_state.missing_timer = self.node.scheduler.call_later(
            MISSING_OPS_TIMEOUT, lambda: self._request_missing(round_state)
        )

    def _on_resend_request(self, request: msg.ResendOpsRequest) -> None:
        if request.machine_id == self.node.machine_id:
            return
        # Serve from everything we hold for the round — our own flush
        # (self-delivered into ``received``) plus every frame we
        # received.  The requester may be missing ops whose issuer has
        # since crashed or been removed: any surviving holder must be
        # able to close the gap.
        round_state = self.rounds.get(request.round_id)
        if round_state is None or not round_state.received:
            return
        have = {OpKey(machine, number) for machine, number in request.have}
        by_issuer: dict[str, list[tuple[int, dict]]] = {}
        for key, payload in round_state.received.items():
            if key not in have:
                by_issuer.setdefault(key.machine_id, []).append(
                    (key.op_number, payload)
                )
        # Resends ride the same batched framing as the original flush;
        # a frame carries one issuer's ops, so group by issuer.
        cap = self.node.config.sync.batch_max_ops
        for issuer in sorted(by_issuer):
            missing = sorted(by_issuer[issuer])
            chunks = [missing[i : i + cap] for i in range(0, len(missing), cap)]
            for seq, chunk in enumerate(chunks):
                self.node.ops_mesh.send(
                    self.node.machine_id,
                    request.machine_id,
                    msg.OpBatch(
                        request.round_id,
                        issuer,
                        seq,
                        len(chunks),
                        tuple(chunk),
                    ),
                )

    def _try_apply(self, round_state: RoundState) -> None:
        if self.evicted:
            return  # our committed prefix has a hole; wait for Restart
        if round_state.applied or round_state.done or not round_state.complete():
            return
        if round_state.missing_timer is not None:
            round_state.missing_timer.cancel()  # type: ignore[attr-defined]
            round_state.missing_timer = None
        self._apply(round_state)

    def _apply(self, round_state: RoundState) -> None:
        """Apply the consolidated list in lexicographic (machine, number) order."""
        node = self.node
        assert round_state.counts is not None
        keys = consolidated_order(node, round_state)
        object_ids: set[str] = set()
        decoded = []
        for key in keys:
            # Decode cache: our own in-flight ops still hold the
            # original operation tree (operations are immutable data);
            # only other machines' payloads pay decode.
            entry = self.in_flight.get(key)
            if entry is not None:
                op = entry.op
                node.metrics.decode_cache_hits += 1
            else:
                op = decode_op(round_state.received[key])
                node.metrics.decode_cache_misses += 1
            decoded.append((key, op))
            object_ids |= op.object_ids()
        remote_touched: set[str] = set()
        logged: list[tuple] = []
        with node.read_locks.writing(sorted(object_ids)):
            for key, op in decoded:
                result = node.model.commit(key, op, node.scheduler.now())
                logged.append(
                    (
                        key.machine_id,
                        key.op_number,
                        round_state.received[key],
                        result,
                        node.scheduler.now(),
                    )
                )
                node.trace(Tracer.COMMIT, key=str(key), ok=result)
                if result and key.machine_id != node.machine_id:
                    remote_touched |= op.object_ids()
                if key in self.in_flight:
                    entry = self.in_flight.pop(key)
                    entry.executions += 1
                    node.metrics.record_execution(key)
                    self.pending_completions.append((entry, result))
                    if result:
                        node.metrics.ops_committed_ok += 1
                    else:
                        node.metrics.ops_committed_failed += 1
                        if entry.issue_result:
                            node.metrics.conflicts += 1
        # Exactly the committed-store ids this round may have mutated:
        # what the delta guess-refresh must re-copy.
        self.refresh_backlog |= object_ids
        round_state.applied = True
        # Write-ahead ordering: the committed round reaches the durable
        # log before this machine acknowledges it, so an acked round is
        # always recoverable after a crash.
        completed_global = node.completed_offset + node.model.completed_count
        node.log_committed_round(round_state.round_id, logged, completed_global)
        if node.signals_mesh.faults.crash_at_commit(
            node.machine_id, round_state.round_id
        ):
            # Crash-at-commit-point fault: die after the log append,
            # before the ApplyAck — the master will remove us; recovery
            # restarts from snapshot + WAL.
            node.trace(
                Tracer.RECOVERY, action="crash_at_commit", round=round_state.round_id
            )
            node.halt()
            return

        def ack_and_update() -> None:
            if node.state == node.STATE_STOPPED:  # crashed before the ack fired
                return
            self._ack(round_state.order[0], round_state.round_id)
            self._update_guess(round_state, remote_touched)

        node.scheduler.after_work(apply_cpu(len(decoded)), ack_and_update)

    def _ack(self, master_id: str, round_id: int) -> None:
        """ApplyAck, telling the master whether we hold operations for
        the next round."""
        node = self.node
        node.signal_master(
            master_id, msg.ApplyAck(round_id, node.machine_id, bool(node.model.pending))
        )

    def _update_guess(
        self,
        round_state: RoundState,
        remote_touched: set[str] = frozenset(),
    ) -> None:
        """Copy committed → guess, run completions, re-apply pending ops.

        The copy is a **delta refresh**: only committed-store ids the
        applied round touched (``refresh_backlog``), objects the guess
        store dirtied replaying pending ops, and membership changes are
        copied — O(touched state) per round instead of the paper's
        literal O(total state) full copy (``refresh_oracle=True``
        cross-checks the delta against a full shadow rebuild every
        round).
        """
        node = self.node
        model = node.model
        touched = self.refresh_backlog
        self.refresh_backlog = set()
        node.enter_window("update")
        candidates = model.guess.refresh_candidates(model.committed, touched)
        with node.read_locks.writing(sorted(candidates)):
            copied = model.guess.refresh_delta_from(model.committed, touched)
        node.metrics.refresh_rounds += 1
        node.metrics.refresh_objects_copied += copied
        node.trace(Tracer.REFRESH, round=round_state.round_id, copied=copied)
        completions = self.pending_completions
        self.pending_completions = []
        now = node.scheduler.now()
        for entry, result in completions:
            node.metrics.commit_latency_total += now - entry.issued_at
            node.metrics.commit_latency_count += 1
            if entry.completion is not None:
                entry.completion(result)
            node.trace(Tracer.COMPLETION, key=str(entry.key), ok=result)
        node.replay_pending()
        if node.config.refresh_oracle and not node.model.check_convergence_invariant():
            from repro.errors import RuntimeFailure

            raise RuntimeFailure(
                f"delta-refresh divergence on {node.machine_id} after round "
                f"{round_state.round_id}: refreshed sg != [P](sc)"
            )
        node.fire_remote_updates(remote_touched)
        node.guess_changed(True)

        def end_update() -> None:
            node.exit_window("update")

        node.scheduler.after_work(update_cpu(len(node.model.pending)), end_update)

    # -- stage 3 and recovery -------------------------------------------------------

    def _on_sync_complete(self, done: msg.SyncComplete) -> None:
        self.last_done_round = max(self.last_done_round, done.round_id)
        round_state = self.rounds.pop(done.round_id, None)
        missed_commit = round_state is not None and not round_state.applied
        if round_state is not None:
            round_state.done = True
            if round_state.missing_timer is not None:
                round_state.missing_timer.cancel()  # type: ignore[attr-defined]
        self.op_buffer.pop(done.round_id, None)
        if missed_commit:
            # The cluster committed a round we never applied (the master
            # can only finish a round after our ApplyAck or our removal,
            # so our ParticipantRemoved must have been lost).  Our
            # committed prefix now has a hole: applying any later round
            # would durably log a gapped history, so stop applying
            # until the master's Restart rejoins us.
            self.evicted = True
            self.node.trace(
                Tracer.RECOVERY, action="missed_commit", round=done.round_id
            )
        if done.idle:
            self._master_idle()

    # -- waking an idle master (concurrent collection) ------------------------------

    def welcomed(self, master_id: str) -> None:
        """A Welcome admitted us: we cannot know whether its master is
        idle, so act as if it were."""
        self.master_id = master_id
        if self.node.config.sync.collection == "concurrent":
            self._master_idle()

    def _master_idle(self) -> None:
        self.wake_master = True
        if self.node.model.pending:
            self._wake()

    def work_issued(self) -> None:
        """A local issue: wake an idle master once, and watch that a
        round collects the operation."""
        node = self.node
        if (
            node.state != node.STATE_ACTIVE
            or node.config.sync.collection != "concurrent"
        ):
            return
        if self.wake_master:
            self._wake()
        elif not self._wake_armed:
            self._wake_clock = node.scheduler.now()
            self._arm_wake_watch(node.config.stall_timeout)

    def _round_seen(self) -> None:
        """A round includes us, or we just asked for one: the master is
        busy, and the wake watch measures from now."""
        self.wake_master = False
        self._wake_clock = self.node.scheduler.now()

    def _wake(self) -> None:
        node = self.node
        self._round_seen()
        if self.master_id is not None:
            node.signal_master(self.master_id, msg.WorkReady(node.machine_id))
        if not self._wake_armed:
            self._arm_wake_watch(node.config.stall_timeout)

    def _arm_wake_watch(self, delay: float) -> None:
        self._wake_armed = True
        self.node.scheduler.call_later(delay, self._wake_watch)

    def _wake_watch(self) -> None:
        """Re-send WorkReady after holding operations ``stall_timeout``
        with no round including us: the WorkReady or the master's
        ``SyncComplete(idle=True)`` was lost.  Like the master's
        watchdog, a round never re-arms it; it sleeps out the rest."""
        self._wake_armed = False
        node = self.node
        if node.state != node.STATE_ACTIVE or not node.model.pending:
            return
        remaining = self._wake_clock + node.config.stall_timeout - node.scheduler.now()
        if remaining > 0:
            self._arm_wake_watch(remaining)
        else:
            self._wake()

    def _on_participant_removed(self, removed: msg.ParticipantRemoved) -> None:
        round_state = self.rounds.get(removed.round_id)
        if round_state is None:
            return
        if removed.machine_id == self.node.machine_id:
            # We were removed while alive (our signals were lost).  The
            # round will commit everywhere without us, leaving a hole in
            # our prefix — applying a later round over that hole would
            # durably log a gapped history, so stop applying entirely;
            # the Restart that follows rejoins us cleanly.
            round_state.done = True
            self.evicted = True
            self.node.trace(
                Tracer.RECOVERY, action="evicted", round=round_state.round_id
            )
            return
        if removed.drop_ops:
            # Removed before its flush was published: its ops are not
            # part of the round anywhere.
            round_state.dropped.add(removed.machine_id)
            round_state.received = {
                key: payload
                for key, payload in round_state.received.items()
                if key.machine_id != removed.machine_id
            }
            if round_state.counts is not None:
                round_state.counts.pop(removed.machine_id, None)
                self._try_apply(round_state)
        else:
            # Its flush is in the published counts, so its ops stay in
            # the consolidated list on every machine — dropping them
            # locally would diverge from nodes that already applied.
            # The removal only means it will not acknowledge.
            self._try_apply(round_state)

    # -- helpers -----------------------------------------------------------------

    def _ensure_round(self, round_id: int, order: tuple[str, ...]) -> RoundState | None:
        if self.node.machine_id not in order:
            return None
        if round_id <= self.last_done_round:
            # A resent signal arrived after the round's SyncComplete
            # popped it; recreating it would make an empty zombie round
            # that re-applies or waits forever for ops nobody holds.
            return None
        if round_id not in self.rounds:
            state = RoundState(round_id, order)
            buffered = self.op_buffer.pop(round_id, {})
            state.received.update(buffered)
            self.rounds[round_id] = state
        return self.rounds[round_id]

    def drop_rounds(self) -> None:
        """Forget every round this node holds, timers included (used
        when it leaves the meshes: those rounds finish without it)."""
        for round_state in self.rounds.values():
            if round_state.missing_timer is not None:
                round_state.missing_timer.cancel()  # type: ignore[attr-defined]
        self.rounds.clear()
        self.op_buffer.clear()

    def reset(self) -> None:
        """Drop all protocol state (used on restart)."""
        self.drop_rounds()
        self.refresh_backlog.clear()
        self.in_flight.clear()
        self.pending_completions.clear()
        self.evicted = False


class MasterControl:
    """Master-side round management, membership and stall recovery.

    At most one round is open at a time (``round``), reproducing the
    paper's strictly phased protocol: the next-round timer is armed
    only once the open round has finished — and, under concurrent
    collection, only if some machine holds work; otherwise the master
    is ``idle`` until a ``WorkReady`` arrives.  A ``FlushDone`` or
    ``ApplyAck`` that names any other round id is stale and ignored.

    Stalls are watched with one timer however many rounds and signals
    pass: progress only records its time (``_progress``), and the timer
    re-arms itself for whatever is left of ``stall_timeout``.
    """

    def __init__(self, node: "GuesstimateNode"):
        self.node = node
        self.participants: list[str] = [node.machine_id]
        self.round_counter = 0
        #: the open round (None between rounds)
        self.round: _MasterRound | None = None
        self.join_queue: list[str] = []
        self.awaiting_ack: set[str] = set()
        self.awaiting_restart: set[str] = set()
        #: joiners that announced durable recovered state: id -> (global
        #: |C| they already hold, (machine_id, op_number) tail key of that
        #: history or None); served a backlog Welcome if the tail checks
        self.recovered: dict[str, tuple[int, tuple | None]] = {}
        #: when the open round last moved (or started), and whether the
        #: one watchdog timer that reads it is pending
        self._last_progress = 0.0
        self._watchdog_armed = False
        self._next_round_timer: object | None = None
        #: no round open or scheduled: the next WorkReady schedules one
        self.idle = False
        self._last_finish = 0.0
        self._stopped = False
        self._halted = False  # hard stop (crash): no recovery actions either
        self.running = False  # set once start() schedules the first round

    # -- round lifecycle -----------------------------------------------------------

    def start(self, delay: float | None = None) -> None:
        """Schedule the first (or next) synchronization round."""
        if self._stopped:
            return
        self.running = True
        self.idle = False
        interval = self.node.config.sync_interval if delay is None else delay
        if self._next_round_timer is not None:
            self._next_round_timer.cancel()  # type: ignore[attr-defined]
        self._next_round_timer = self.node.scheduler.call_later(
            interval, self.start_round
        )

    def stop(self, hard: bool = False) -> None:
        """Stop initiating rounds.  ``hard`` (crash simulation) also
        silences the watchdog; a graceful stop keeps driving recovery
        for the round already in flight."""
        self._stopped = True
        if hard:
            self._halted = True
        if self._next_round_timer is not None:
            self._next_round_timer.cancel()  # type: ignore[attr-defined]

    def start_round(self) -> None:
        self._next_round_timer = None
        if self._stopped or self.round is not None:
            return  # raced; the open round reschedules when it finishes
        self._process_membership()
        self.round_counter += 1
        order = tuple(self.participants)
        # FlushDone / ApplyAck are sent to order[0] alone.
        assert order[0] == self.node.machine_id, "master first"
        from repro.runtime.metrics import SyncRecord

        mode = self.node.config.sync.collection
        concurrent = mode == "concurrent"
        round_ = _MasterRound(
            round_id=self.round_counter,
            order=order,
            parallel=concurrent,
            record=SyncRecord(
                round_id=self.round_counter,
                started_at=self.node.scheduler.now(),
                participants=len(order),
                collection=mode,
            ),
        )
        self.round = round_
        self.node.trace(Tracer.SYNC_START, round=self.round_counter, users=len(order))
        self.node.broadcast_signal(
            msg.StartSync(self.round_counter, order, concurrent)
        )
        if not concurrent:
            self._grant_turn(round_)
        self._progress()  # the watchdog's clock starts here

    def _grant_turn(self, round_: "_MasterRound") -> None:
        """Grant the flush turn to the next machine in order."""
        while round_.turn_index < len(round_.order):
            machine_id = round_.order[round_.turn_index]
            if machine_id in round_.removed:
                round_.turn_index += 1
                continue
            turn = msg.YourTurn(round_.round_id, machine_id, round_.order)
            if machine_id == self.node.machine_id:
                self.node.synchronizer.handle_signal(turn)
            else:
                self.node.signals_mesh.send(self.node.machine_id, machine_id, turn)
            return
        self._begin_apply(round_)

    def _begin_apply(self, round_: "_MasterRound") -> None:
        round_.stage = "apply"
        counts = tuple(sorted(round_.counts.items()))
        round_.record.ops_committed = sum(round_.counts.values())
        self.node.broadcast_signal(
            msg.BeginApply(round_.round_id, round_.order, counts)
        )
        self._progress()

    # -- signal handling (master consumes these) -------------------------------------

    def handle_signal(self, payload: object) -> None:
        if isinstance(payload, msg.FlushDone):
            self._on_flush_done(payload)
        elif isinstance(payload, msg.ApplyAck):
            self._on_apply_ack(payload)
        elif isinstance(payload, msg.WorkReady):
            self._on_work_ready(payload)
        elif isinstance(payload, msg.Hello):
            self._on_hello(payload)
        elif isinstance(payload, msg.WelcomeAck):
            self._on_welcome_ack(payload)
        elif isinstance(payload, msg.Goodbye):
            self._on_goodbye(payload)

    def _on_flush_done(self, done: msg.FlushDone) -> None:
        round_ = self.round
        if round_ is None or round_.round_id != done.round_id:
            return
        if done.machine_id in round_.counts or done.machine_id in round_.removed:
            return
        round_.counts[done.machine_id] = done.count
        self._progress()
        self._flush_settled(round_, done.machine_id)

    def _flush_settled(self, round_: "_MasterRound", machine_id: str) -> None:
        """``machine_id``'s flush is accounted for (its count is in, or
        it was removed): move stage 1 on if that is what it waited for."""
        if round_.stage != "flush":
            return
        if round_.parallel:
            if not round_.awaited():
                self._begin_apply(round_)
        elif round_.awaited() == [machine_id]:
            round_.turn_index += 1
            self._grant_turn(round_)

    def _on_apply_ack(self, ack: msg.ApplyAck) -> None:
        round_ = self.round
        if round_ is None or round_.round_id != ack.round_id:
            return
        if ack.machine_id in round_.removed:
            return
        round_.acks.add(ack.machine_id)
        round_.pending |= ack.pending
        self._progress()
        self._maybe_finish()

    def _on_work_ready(self, ready: msg.WorkReady) -> None:
        """Wake an idle master: the next round starts at ``max(now,
        last finish + sync_interval)``.  A busy master's open or
        scheduled round collects the work anyway."""
        if not self.idle:
            return
        now = self.node.scheduler.now()
        self.start(max(now, self._last_finish + self.node.config.sync_interval) - now)

    def _busy(self, round_: "_MasterRound") -> bool:
        """Whether the next round has work: always under the paper's
        sequential collection, which keeps its fixed period."""
        return (
            not round_.parallel
            or round_.pending
            or bool(self.node.model.pending)
            or bool(self.join_queue or self.awaiting_ack or self.awaiting_restart)
        )

    def _maybe_finish(self) -> None:
        """Finish the open round once every participant acked it."""
        round_ = self.round
        if round_ is None or round_.stage != "apply" or round_.awaited():
            return
        self._last_finish = self.node.scheduler.now()
        round_.record.finished_at = self._last_finish
        self.node.metrics_system.sync_records.append(round_.record)
        self.node.trace(
            Tracer.SYNC_DONE,
            round=round_.round_id,
            duration=round(round_.record.duration, 4),
        )
        self.idle = not self._busy(round_)
        self.node.broadcast_signal(msg.SyncComplete(round_.round_id, self.idle))
        self.round = None
        self._nudge_restarts()
        if self.awaiting_ack or self.join_queue:
            # Re-welcome unacked joiners and serve the Hellos that
            # arrived while the round was in flight.
            self._process_membership()
        if self.running and not self.idle:
            self.start()

    # -- membership ---------------------------------------------------------------------

    def _on_hello(self, hello: msg.Hello) -> None:
        self.awaiting_restart.discard(hello.machine_id)
        if hello.recovered_count is not None:
            tail = hello.recovered_tail
            self.recovered[hello.machine_id] = (
                hello.recovered_count,
                tuple(tail) if tail is not None else None,
            )
        else:
            self.recovered.pop(hello.machine_id, None)
        if hello.machine_id in self.participants:
            # A standing participant saying Hello has rebooted out from
            # under us (silent crash, quick recovery): its old standing
            # is stale, so fold it back in through the join path.
            self._remove_machine(hello.machine_id, restart=False)
        if hello.machine_id not in self.join_queue:
            self.join_queue.append(hello.machine_id)
        # A join between rounds can be processed immediately.  An idle
        # master also schedules a round a full ``sync_interval`` out
        # (time for the WelcomeAck to land first): membership work
        # keeps it busy until the joiner is admitted.
        if self.round is None:
            self._process_membership()
            if self.idle:
                self.start()

    def _on_welcome_ack(self, ack: msg.WelcomeAck) -> None:
        if ack.machine_id not in self.awaiting_ack:
            return
        if self.round is not None:
            # The ack raced a round this machine is not part of: its
            # Welcome predates that round's commits, so admitting it now
            # would leave a permanent hole in its committed sequence.
            # Keep it queued; _maybe_finish re-welcomes it with a fresh
            # snapshot once the round finishes (loading is idempotent
            # and the joiner catches up on the missed suffix).
            return
        self.awaiting_ack.discard(ack.machine_id)
        self.recovered.pop(ack.machine_id, None)
        if ack.machine_id not in self.participants:
            self.participants.append(ack.machine_id)
        self.node.trace(Tracer.MEMBERSHIP, joined=ack.machine_id)

    def _on_goodbye(self, goodbye: msg.Goodbye) -> None:
        if goodbye.machine_id in self.participants:
            self.participants.remove(goodbye.machine_id)
            self.node.trace(Tracer.MEMBERSHIP, left=goodbye.machine_id)
        # Treat a mid-round departure like a stage-appropriate removal
        # from the open round.
        self._remove_machine(goodbye.machine_id, restart=False)

    def _process_membership(self) -> None:
        """Welcome queued joiners (between rounds, as the paper does).

        Machines that never acknowledged a previous Welcome (the
        message may have been lost) are re-welcomed with a fresh
        snapshot — loading it is idempotent on the joiner.
        """
        while self.join_queue:
            self.awaiting_ack.add(self.join_queue.pop(0))
        for machine_id in sorted(self.awaiting_ack):
            welcome = self._build_welcome(machine_id)
            self.node.signals_mesh.send(self.node.machine_id, machine_id, welcome)

    def _build_welcome(self, machine_id: str) -> msg.Welcome:
        """Full-snapshot Welcome, or a committed-op backlog when the
        joiner announced durable recovered state this master can extend
        (its recovered |C| falls inside our held history and its tail
        key matches our entry at that position — a count alone cannot
        prove the recovered history is a prefix of the global order)."""
        node = self.node
        recovered_count, tail = self.recovered.get(machine_id, (None, None))
        offset = node.completed_offset
        total = offset + node.model.completed_count
        op_floor = node.model.op_high_water.get(machine_id, 0)
        if recovered_count is not None and not self._tail_matches(
            tail, recovered_count, offset
        ):
            # The joiner's recovered history is NOT the global prefix it
            # claims (e.g. it logged rounds around a hole before
            # crashing).  Serving a backlog would cement the
            # divergence; fall back to the full snapshot, which also
            # rebases its durable log to a clean prefix.
            self.node.trace(
                Tracer.RECOVERY, action="stale_recovery", machine=machine_id
            )
            recovered_count = None
        if recovered_count is not None and offset <= recovered_count <= total:
            backlog = tuple(
                (
                    entry.key.machine_id,
                    entry.key.op_number,
                    encode_op(entry.op),
                    entry.result,
                    entry.committed_at,
                )
                for entry in node.model.completed[recovered_count - offset :]
            )
            return msg.Welcome(
                machine_id=machine_id,
                master_id=node.machine_id,
                snapshot={},
                completed_count=total,
                backlog_from=recovered_count,
                backlog=backlog,
                op_floor=op_floor,
            )
        return msg.Welcome(
            machine_id=machine_id,
            master_id=node.machine_id,
            snapshot=node.model.committed.snapshot_states(),
            completed_count=total,
            op_floor=op_floor,
        )

    def _tail_matches(
        self, tail: tuple | None, recovered_count: int, offset: int
    ) -> bool:
        """True when the joiner's announced tail key agrees with our
        completed entry at its claimed position (or no tail to check)."""
        if tail is None:
            return True  # snapshot-only recovery holds no entries
        index = recovered_count - offset - 1
        if index < 0 or index >= self.node.model.completed_count:
            return True  # outside our history; the bounds check decides
        entry = self.node.model.completed[index]
        return (entry.key.machine_id, entry.key.op_number) == tail

    def _nudge_restarts(self) -> None:
        """Re-send Restart to machines that have not re-entered yet."""
        for machine_id in sorted(self.awaiting_restart):
            if self.node.signals_mesh.is_member(machine_id):
                self.node.signals_mesh.send(
                    self.node.machine_id, machine_id, msg.Restart(machine_id)
                )

    # -- stall detection and recovery ------------------------------------------------------

    def _progress(self) -> None:
        """Record that a round moved; the watchdog measures from here."""
        self._last_progress = self.node.scheduler.now()
        if not self._watchdog_armed:
            self._arm_watchdog(self.node.config.stall_timeout)

    def _arm_watchdog(self, delay: float) -> None:
        # A gracefully stopped master keeps watching the round still in
        # flight (it must finish); a halted (crashed) one goes silent.
        if self.round is None or self._halted:
            return
        self._watchdog_armed = True
        self.node.scheduler.call_later(delay, self._watchdog)

    def _watchdog(self) -> None:
        """The one stall timer.  Progress never re-arms it (asyncio
        keeps cancelled handles in its heap): fired early, it sleeps
        out what is left of ``stall_timeout`` since the last progress."""
        self._watchdog_armed = False
        deadline = self._last_progress + self.node.config.stall_timeout
        remaining = deadline - self.node.scheduler.now()
        if remaining > 0:
            self._arm_watchdog(remaining)
            return
        round_ = self.round
        if self._halted or round_ is None:
            return
        stage = round_.stage
        for stalled in round_.awaited():
            if round_.stage != stage or self.round is not round_:
                break  # a removal completed the stage (or the round)
            self._handle_stall(round_, stalled, stage=stage)
        self._maybe_finish()
        if self.round is not None:
            self._progress()  # restart the clock after acting

    def _handle_stall(
        self, round_: "_MasterRound", machine_id: str, stage: str
    ) -> None:
        strikes = round_.strikes.get(machine_id, 0) + 1
        round_.strikes[machine_id] = strikes
        is_self = machine_id == self.node.machine_id
        # The master can never strike out its own machine: a removed
        # node must re-join via Hello, but Hello is a plain broadcast
        # that never reaches this (co-located) MasterControl, so a
        # self-removal wedges the master's node permanently.  Keep
        # resending to ourselves instead.
        resend = strikes == 1 or is_self
        self.node.trace(
            Tracer.RECOVERY,
            action="resend" if resend else "remove",
            machine=machine_id,
            stage=stage,
        )
        if resend:
            round_.record.resends += 1
            if stage == "flush":
                payload: object = msg.YourTurn(
                    round_.round_id, machine_id, round_.order
                )
            else:
                counts = tuple(sorted(round_.counts.items()))
                payload = msg.BeginApply(round_.round_id, round_.order, counts)
            if is_self:
                # Self-addressed mesh sends arrive with delivery latency
                # and can land *after* the round's SyncComplete, out of
                # order with every other self-dispatched signal; keep
                # master-to-self delivery synchronous (as _grant_turn
                # does).
                self.node.synchronizer.handle_signal(payload)
            else:
                self.node.signals_mesh.send(
                    self.node.machine_id, machine_id, payload
                )
        else:
            round_.record.removals += 1
            self._remove_machine(machine_id, restart=True)

    def _remove_machine(self, machine_id: str, restart: bool) -> None:
        """Remove a machine from the participant list and from the open
        round (a removed machine must re-join; it is outside every later
        round until it does)."""
        if machine_id in self.participants:
            self.participants.remove(machine_id)
        if restart:
            self.awaiting_restart.add(machine_id)
            if self.node.signals_mesh.is_member(machine_id):
                self.node.signals_mesh.send(
                    self.node.machine_id, machine_id, msg.Restart(machine_id)
                )
        if self.round is not None:
            self._remove_from_round(self.round, machine_id)
        self._maybe_finish()

    def _remove_from_round(
        self, round_: "_MasterRound", machine_id: str
    ) -> None:
        if machine_id in round_.removed or machine_id not in set(round_.order):
            return
        round_.removed.add(machine_id)
        drop_ops = machine_id not in round_.counts
        if round_.stage == "flush":
            # Counts are not published yet; the machine's flush (if
            # any) can still be excluded consistently everywhere.
            round_.counts.pop(machine_id, None)
        # After BeginApply the counts are immutable: some machines may
        # already have committed with them, so the removal must not
        # change the round's consolidated list.
        self.node.broadcast_signal(
            msg.ParticipantRemoved(round_.round_id, machine_id, drop_ops)
        )
        self._flush_settled(round_, machine_id)


@dataclass(slots=True)
class _MasterRound:
    """Master-side bookkeeping for one in-flight round."""

    round_id: int
    order: tuple[str, ...]
    record: object  # SyncRecord (kept loose to avoid a metrics import cycle)
    parallel: bool = False
    stage: str = "flush"
    turn_index: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    acks: set[str] = field(default_factory=set)
    removed: set[str] = field(default_factory=set)
    strikes: dict[str, int] = field(default_factory=dict)
    #: some ApplyAck said its machine holds operations for the next round
    pending: bool = False

    def awaited(self) -> list[str]:
        """Machines the current stage waits on, in stall-handling order:
        unacked participants (apply), every participant yet to flush
        (concurrent collection) or the one turn holder (sequential)."""
        if self.stage == "flush" and not self.parallel:
            return list(self.order[self.turn_index : self.turn_index + 1])
        settled = self.acks if self.stage == "apply" else self.counts.keys()
        return sorted(set(self.order) - self.removed - settled)
