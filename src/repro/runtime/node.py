"""One machine of the distributed system.

A :class:`GuesstimateNode` glues everything together for a single
machine: the model state (λ, C, sc, P, sg), the API facade handed to
application code, the synchronizer, the issue windows, membership, and
metrics.  It implements the facade's :class:`~repro.core.guesstimate.Host`
protocol (time, windows, deferral).
"""

from __future__ import annotations

from typing import Callable

from repro.core.guesstimate import Guesstimate, Host
from repro.core.machine import MachineModel, PendingEntry
from repro.core.operations import OpKey
from repro.core.readlock import ReadLockTable
from repro.core.serialization import decode_op, decode_state
from repro.errors import NodeCrashedError, RuntimeFailure
from repro.net.interface import BroadcastChannel, ChannelPair, Envelope
from repro.runtime import messages as msg
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import NodeMetrics, SystemMetrics
from repro.runtime.synchronizer import MasterControl, Synchronizer
from repro.runtime.tracing import Tracer
from repro.sim.scheduler import Scheduler
from repro.storage.store import CommitRecord, RecoveredState, build_storage


def commit_logged(model: MachineModel, entries) -> None:
    """Commit logged ``(machine, op number, payload, result, time)``
    entries — a WAL record's or a Welcome backlog's — onto ``model``.

    Replay is deterministic, so C records the result computed here and
    the logged one is ignored: a replay that diverges from the log
    shows up in the completed-sequence comparisons instead of being
    copied over.
    """
    for machine_id, op_number, payload, _logged_result, committed_at in entries:
        model.commit(OpKey(machine_id, op_number), decode_op(payload), committed_at)


class GuesstimateNode(Host):
    """A machine: model + facade + synchronizer (+ master role)."""

    STATE_ACTIVE = "active"
    STATE_JOINING = "joining"
    STATE_OFFLINE = "offline"
    STATE_STOPPED = "stopped"

    def __init__(
        self,
        machine_id: str,
        scheduler: Scheduler,
        meshes: ChannelPair,
        config: RuntimeConfig,
        metrics_system: SystemMetrics,
        tracer: Tracer | None = None,
        is_master: bool = False,
    ):
        self.machine_id = machine_id
        self.scheduler = scheduler
        self.meshes = meshes
        self.config = config
        self.metrics_system = metrics_system
        #: this node's counters, resolved once — the synchronizer bumps
        #: them per message, so the per-access ``node()`` dict lookup
        #: the old property did is off the hot path now
        self.metrics: NodeMetrics = metrics_system.node(machine_id)
        self.tracer = tracer if tracer is not None else Tracer(enabled=config.tracing)

        self.model = MachineModel(machine_id)
        self.read_locks = ReadLockTable()
        self.api = Guesstimate(self.model, host=self)
        self.api.read_locks = self.read_locks
        self.synchronizer = Synchronizer(self)
        self.master: MasterControl | None = MasterControl(self) if is_master else None
        self.storage = build_storage(config, machine_id)
        self.metrics.storage = self.storage.stats
        #: global |C| this node holds from durable recovery, announced in
        #: Hello so the master can welcome it with a committed-op backlog
        #: instead of a full snapshot; None = no recovered state.
        self._recovered_count: int | None = None
        #: (machine_id, op_number) of the last recovered completed entry,
        #: announced alongside the count so the master can verify the
        #: recovered history really is a prefix of the global order.
        self._recovered_tail: tuple | None = None

        self.state = GuesstimateNode.STATE_STOPPED
        self.completed_offset = 0  # |C| at our last (re)join; aligns comparisons
        self._window: str | None = None
        self._window_depth = 0
        self._deferred: list[tuple[float, Callable[[], None]]] = []
        self.on_welcome: Callable[[], None] | None = None
        #: unique id -> callbacks fired after remote ops change it
        self._remote_callbacks: dict[str, list[Callable[[str], None]]] = {}
        #: told ``sg`` may have changed: True after a refresh (a round, a
        #: Welcome), False after a local issue; survives :meth:`restart`
        self.guess_watchers: list[Callable[[bool], None]] = []

    # -- convenience accessors --------------------------------------------------

    @property
    def signals_mesh(self) -> BroadcastChannel:
        return self.meshes.signals

    @property
    def ops_mesh(self) -> BroadcastChannel:
        return self.meshes.operations

    @property
    def is_master(self) -> bool:
        return self.master is not None

    def trace(self, kind: str, **detail) -> None:
        self.tracer.emit(self.scheduler.now(), self.machine_id, kind, **detail)

    # -- durability --------------------------------------------------------------

    def log_committed_round(
        self, round_id: int, entries: list[tuple], completed_global: int
    ) -> None:
        """Append one committed round to the durable store (pre-ack) and
        take a periodic snapshot if the configured interval elapsed."""
        if not entries:
            return  # empty heartbeat rounds change nothing worth replaying
        self.storage.append_commit(
            CommitRecord(round_id, tuple(entries), completed_global)
        )
        if self.storage.maybe_snapshot(
            self.model.committed.snapshot_states, completed_global
        ):
            self.trace(Tracer.STORAGE, action="snapshot", completed=completed_global)

    # -- lifecycle ----------------------------------------------------------------

    def start(self, founding: bool = True) -> None:
        """Join the meshes and enter the system.

        Founding members start active immediately (they all begin from
        the same empty state); later arrivals start in the joining
        state and announce themselves with Hello, exactly as in the
        paper's "entering and leaving" protocol.
        """
        self.meshes.join(self.machine_id, self._on_signal, self._on_op)
        if founding:
            self.state = GuesstimateNode.STATE_ACTIVE
        else:
            self.state = GuesstimateNode.STATE_JOINING
            self._announce()
        self.trace(Tracer.MEMBERSHIP, state=self.state)

    def _announce(self) -> None:
        """Broadcast Hello, retrying until welcomed (Hello can be lost)."""
        if self.state != GuesstimateNode.STATE_JOINING:
            return
        self.signals_mesh.broadcast(
            self.machine_id,
            msg.Hello(
                self.machine_id, self._recovered_count, self._recovered_tail
            ),
        )
        self.scheduler.call_later(self.config.stall_timeout, self._announce)

    def leave(self) -> None:
        """Gracefully exit the system."""
        self.signals_mesh.broadcast(self.machine_id, msg.Goodbye(self.machine_id))
        self.meshes.leave(self.machine_id)
        self.synchronizer.drop_rounds()
        self.storage.close()
        self.state = GuesstimateNode.STATE_STOPPED

    def halt(self) -> None:
        """Simulate a hard process kill: no Goodbye, no cleanup.

        Unlike a network crash (fault injector), a halted node stops
        doing local work too.  The durable store is released (its
        on-disk state is whatever the fsync policy made stable);
        :meth:`recover_and_rejoin` rebuilds from it.
        """
        if self.meshes.signals.is_member(self.machine_id):
            self.meshes.leave(self.machine_id)
        self.synchronizer.drop_rounds()
        if self.master is not None:
            self.master.stop(hard=True)
        self.storage.close()
        self.state = GuesstimateNode.STATE_STOPPED
        self.trace(Tracer.MEMBERSHIP, state="halted")

    def go_offline(self) -> None:
        """Disconnect while continuing to work locally (section 9).

        The paper lists off-line updates as future work; this extension
        implements the natural semantics: the machine leaves the meshes
        (the master drops it from synchronizations), but the user keeps
        issuing operations against the guesstimated state.  They queue
        in P and commit after :meth:`come_online` — with, as the paper
        warns, a larger window for discrepancies and conflicts.
        """
        if self.state != GuesstimateNode.STATE_ACTIVE:
            raise NodeCrashedError(self.machine_id)
        if (
            self.synchronizer.in_flight
            or self.synchronizer.pending_completions
            or self._window is not None
        ):
            raise RuntimeFailure(
                "cannot go offline mid-synchronization (operations are in "
                "flight); retry after the round completes"
            )
        self.signals_mesh.broadcast(self.machine_id, msg.Goodbye(self.machine_id))
        self.meshes.leave(self.machine_id)
        # The rounds we held complete without us, and a timer of theirs
        # must not signal on meshes we left; the pending list survives.
        self.synchronizer.drop_rounds()
        self.state = GuesstimateNode.STATE_OFFLINE
        self.trace(Tracer.MEMBERSHIP, state="offline", pending=len(self.model.pending))

    def come_online(self) -> None:
        """Re-enter the system, keeping operations issued while offline.

        The node rejoins through the ordinary Hello/Welcome path; the
        welcome snapshot replaces the committed state, after which the
        still-pending offline operations are re-applied to restore the
        ``[P](sc) = sg`` invariant and flushed in the next round.
        """
        if self.state != GuesstimateNode.STATE_OFFLINE:
            raise NodeCrashedError(self.machine_id)
        self.meshes.join(self.machine_id, self._on_signal, self._on_op)
        self.state = GuesstimateNode.STATE_JOINING
        self._announce()

    def restart(self) -> None:
        """Shut down the application instance and re-enter the system.

        Triggered by the master's Restart signal after a failed
        recovery (and by :meth:`recover_and_rejoin` after a hard
        crash).  With durability off this discards all local state and
        re-enters through the Hello/Welcome snapshot path.  With a
        durable store, committed state is first rebuilt from
        ``snapshot + WAL replay``; the node then announces how much of
        the global completed sequence it already holds and the master
        welcomes it with just the committed backlog it missed.
        """
        self.metrics.restarts += 1
        self.trace(Tracer.RECOVERY, action="restart")
        self.synchronizer.reset()
        self.resume_from_storage()
        self._window = None
        self._window_depth = 0
        self._deferred.clear()
        self._remote_callbacks.clear()  # subscriptions died with the app
        self.state = GuesstimateNode.STATE_JOINING
        self._announce()

    def resume_from_storage(self) -> None:
        """Rebuild committed state from the durable store, else start empty.

        The one way a process comes back up with its own state:
        :meth:`restart` uses it, and so does a master daemon's boot.
        Afterwards the node holds ``snapshot + WAL replay`` (or nothing)
        behind a fresh facade, and knows the position a Hello announces.
        """
        # Operation numbering must survive the restart: reusing keys
        # would collide with this machine's already-committed history.
        op_counter = self.model._op_counter
        recovered = self.storage.recover()
        if recovered is not None:
            self.model = self._rebuild_from_storage(recovered)
            self.completed_offset = recovered.base_offset
            self._recovered_count = (
                recovered.base_offset + self.model.completed_count
            )
            if self.model.completed:
                tail_key = self.model.completed[-1].key
                self._recovered_tail = (tail_key.machine_id, tail_key.op_number)
            else:
                self._recovered_tail = None
            self.metrics.crash_recoveries += 1
            self.metrics.recovery_replay_entries = sum(
                len(commit.entries) for commit in recovered.commits
            )
            self.trace(
                Tracer.STORAGE,
                action="recover",
                replayed_rounds=recovered.replay_length,
                completed=self._recovered_count,
            )
        else:
            self.model = MachineModel(self.machine_id)
            self._recovered_count = None
            self._recovered_tail = None
        self.model._op_counter = max(op_counter, self.model._op_counter)
        self.api = Guesstimate(self.model, host=self)
        self.api.read_locks = self.read_locks

    def _rebuild_from_storage(self, recovered: RecoveredState) -> MachineModel:
        """Crash recovery: snapshot states + WAL-suffix replay → model.

        Rebuilds ``sc`` and the held suffix of ``C``.  The pending list
        ``P`` died with the process — only globally-ordered committed
        operations are logged — so the guesstimate equals the committed
        state and the ``[P](sc) = sg`` invariant holds trivially.
        """
        model = MachineModel(self.machine_id)
        for unique_id, (type_name, state) in recovered.states.items():
            model.committed.adopt(
                unique_id, decode_state({"type": type_name, "state": state})
            )
        for commit in recovered.commits:
            commit_logged(model, commit.entries)
        model.guess.refresh_from(model.committed)
        model._op_counter = model.op_high_water.get(self.machine_id, 0)
        return model

    def recover_and_rejoin(self) -> None:
        """Bring a hard-killed (halted) process back up.

        Re-joins the meshes and re-enters through :meth:`restart`.  The
        in-memory model is forgotten first — a real crashed process
        keeps nothing — so everything the node resumes with provably
        came from the durable store (or, failing that, the master's
        Welcome snapshot).
        """
        if self.state != GuesstimateNode.STATE_STOPPED:
            raise RuntimeFailure(
                "recover_and_rejoin is only valid on a halted node"
            )
        self.meshes.join(self.machine_id, self._on_signal, self._on_op)
        self.model = MachineModel(self.machine_id)
        self.restart()

    def load_welcome(self, welcome: msg.Welcome) -> None:
        """Initialize state from the master's Welcome and go active.

        Two shapes: the ordinary full-snapshot Welcome (committed state
        replaced wholesale), and the delta Welcome a crash-recovered
        node earns by announcing its durable position — the master
        ships only the committed operations the node missed, which are
        replayed on top of the recovered state so the local completed
        sequence survives the crash.
        """
        if self.state != GuesstimateNode.STATE_JOINING:
            if self.state == GuesstimateNode.STATE_ACTIVE:
                # Duplicate or superseding Welcome: our earlier ack was
                # lost, or it raced a round at the master and we must
                # catch up on commits our snapshot predates.
                self._load_superseding_welcome(welcome)
            return
        if welcome.backlog_from is not None:
            # Delta Welcome: only loadable when its backlog actually
            # covers our recovered position.  A stale one (built from a
            # previous Hello's count before our newest announcement
            # arrived) must be ignored, NOT treated as a snapshot
            # Welcome — its snapshot field is empty, and rebasing the
            # durable log to an empty snapshot silently destroys the
            # recovered history.  The _announce retry loop keeps
            # re-sending Hello, so a matching Welcome follows.
            if self._recovered_count is None:
                return
            skip = self._recovered_count - welcome.backlog_from
            if not 0 <= skip <= len(welcome.backlog):
                return
            self._load_welcome_backlog(welcome, skip)
            self.trace(
                Tracer.STORAGE,
                action="catch_up",
                backlog=len(welcome.backlog),
                completed=self.completed_offset + self.model.completed_count,
            )
        else:
            self._load_welcome_snapshot(welcome)
        self._recovered_count = None
        self._recovered_tail = None
        # A crash can wipe the op counter while the cluster commits our
        # last flush; resume numbering above everything ever committed.
        self.model._op_counter = max(self.model._op_counter, welcome.op_floor)
        # Operations issued while offline are still pending: re-apply
        # them to the refreshed guesstimate ([P](sc) = sg) so they can
        # flush in the next round.
        self.replay_pending()
        self.guess_changed(True)
        self.state = GuesstimateNode.STATE_ACTIVE
        self.signals_mesh.send(
            self.machine_id, welcome.master_id, msg.WelcomeAck(self.machine_id)
        )
        self.trace(
            Tracer.MEMBERSHIP,
            state="active",
            snapshot=len(welcome.snapshot),
            backlog=len(welcome.backlog),
        )
        self._drain_deferred()
        if self.on_welcome is not None:
            self.on_welcome()

    def _load_superseding_welcome(self, welcome: msg.Welcome) -> None:
        """A re-Welcome received while already active.

        If the master's count is ahead of ours, our WelcomeAck raced a
        round we were not part of: the master refused to admit us and
        re-welcomed with the commits we missed.  Catch up — by backlog
        replay when the Welcome extends our position, else by adopting
        the fresh snapshot — and re-ack; a Welcome at or behind our own
        position is a plain duplicate and only needs the re-ack.
        """
        local_total = self.completed_offset + self.model.completed_count
        if welcome.completed_count > local_total:
            if (
                welcome.backlog_from is not None
                and welcome.backlog_from > local_total
            ):
                # A delta Welcome whose backlog starts past our
                # position cannot be loaded (its snapshot is empty, so
                # the snapshot path would corrupt both the live offset
                # and the durable log).  Rejoin through recovery: the
                # fresh Hello announces our true position.
                self.restart()
                return
            if welcome.backlog_from is not None:
                self._load_welcome_backlog(
                    welcome, local_total - welcome.backlog_from
                )
            else:
                self._load_welcome_snapshot(welcome)
            self.replay_pending()
            self.guess_changed(True)
            self.trace(
                Tracer.MEMBERSHIP,
                action="catch_up_welcome",
                completed=welcome.completed_count,
            )
        self.model._op_counter = max(self.model._op_counter, welcome.op_floor)
        self.signals_mesh.send(
            self.machine_id, welcome.master_id, msg.WelcomeAck(self.machine_id)
        )

    def _load_welcome_snapshot(self, welcome: msg.Welcome) -> None:
        """The ordinary join: adopt the master's full state snapshot."""
        for unique_id, (type_name, state) in welcome.snapshot.items():
            obj = decode_state({"type": type_name, "state": state})
            if self.model.committed.has(unique_id):
                self.model.committed.get(unique_id).copy_from(obj)
                # copy_from bypasses the store; re-stamp so the version
                # bookkeeping and snapshot cache see the new state.
                self.model.committed.mark_dirty((unique_id,))
            else:
                self.model.committed.adopt(unique_id, obj)
        # Any locally-held history predates the snapshot; from here on
        # this machine holds the global suffix starting at the offset.
        self.model.completed.clear()
        self.model.guess.refresh_from(self.model.committed)
        self.completed_offset = welcome.completed_count
        # The durable log is superseded by the snapshot we just took.
        self.storage.rebase(dict(welcome.snapshot), welcome.completed_count)

    def _load_welcome_backlog(self, welcome: msg.Welcome, skip: int) -> None:
        """Catch up by replaying only the commits this node missed.

        The held committed state plus this backlog is, by the global
        ordering, byte-identical to every survivor's ``sc`` — and
        unlike the snapshot path the node keeps its completed
        sequence, extended by the missed suffix.  ``skip`` drops
        leading backlog entries the node already holds (a Welcome built
        from an older position overlaps).
        """
        missed = welcome.backlog[skip:]
        commit_logged(self.model, missed)
        if missed:
            # Catch-up batches are logged like a round (round_id -1
            # marks them) so recovery replays them in order too.
            self.storage.append_commit(
                CommitRecord(
                    -1, missed, self.completed_offset + self.model.completed_count
                )
            )
        self.model.guess.refresh_from(self.model.committed)

    def replay_pending(self) -> None:
        """Re-apply P onto the refreshed guess, counting the executions."""
        for entry in self.model.replay_pending():
            self.metrics.record_execution(entry.key)

    def guess_changed(self, refresh: bool) -> None:
        for watcher in self.guess_watchers:
            watcher(refresh)

    # -- Host protocol (what the facade needs) ---------------------------------------

    def now(self) -> float:
        return self.scheduler.now()

    def active_window(self) -> str | None:
        if self.state == GuesstimateNode.STATE_JOINING:
            return "joining"
        if self.state == GuesstimateNode.STATE_STOPPED:
            raise NodeCrashedError(self.machine_id)
        # Offline nodes may issue freely — that is the whole point of
        # the off-line updates extension.
        return self._window

    def notify_issued(self, entry: PendingEntry) -> None:
        self.metrics.ops_issued += 1
        self.metrics.record_execution(entry.key)
        self.trace(Tracer.ISSUE, key=str(entry.key), op=entry.op.describe())
        self.guess_changed(False)

    def notify_rejected(self, op) -> None:
        self.metrics.ops_rejected_at_issue += 1
        self.trace(Tracer.ISSUE_REJECTED, op=op.describe())

    def defer(self, fn: Callable[[], None]) -> None:
        self.metrics.deferred_issues += 1
        self._deferred.append((self.scheduler.now(), fn))

    def register_remote_callback(
        self, unique_id: str, callback: Callable[[str], None]
    ) -> Callable[[], None]:
        callbacks = self._remote_callbacks.setdefault(unique_id, [])
        callbacks.append(callback)

        def unsubscribe() -> None:
            try:
                callbacks.remove(callback)
            except ValueError:  # pragma: no cover - double unsubscribe
                pass

        return unsubscribe

    def fire_remote_updates(self, touched: set[str]) -> None:
        """Run remote-update callbacks after a guess refresh."""
        for unique_id in sorted(touched):
            for callback in list(self._remote_callbacks.get(unique_id, ())):
                callback(unique_id)

    # -- windows -----------------------------------------------------------------------

    def enter_window(self, name: str) -> None:
        self._window = name
        self._window_depth += 1

    def exit_window(self, name: str) -> None:
        self._window_depth = max(0, self._window_depth - 1)
        if self._window_depth == 0:
            self._window = None
            self._drain_deferred()

    def _drain_deferred(self) -> None:
        if self.active_window() is not None:
            return
        pending = self._deferred
        self._deferred = []
        now = self.scheduler.now()
        for index, (deferred_at, fn) in enumerate(pending):
            self.metrics.deferral_delay_total += now - deferred_at
            fn()
            if self.active_window() is not None:
                # The thunk re-opened a window: the rest wait for it to
                # close, ahead of anything deferred in the meantime.
                self._deferred[:0] = pending[index + 1 :]
                break

    # -- mesh handlers -------------------------------------------------------------------

    def broadcast_signal(self, payload: object) -> None:
        """Broadcast on the signals mesh and dispatch to ourselves.

        The mesh delivers only to *other* members; protocol logic wants
        uniform handling, so we self-dispatch synchronously (zero
        latency to self).
        """
        self.signals_mesh.broadcast(self.machine_id, payload)
        self._dispatch_signal(payload)

    def signal_master(self, master_id: str, payload: object) -> None:
        """Send a signal only the master reads (``FlushDone``, ``ApplyAck``)
        to ``master_id``, ``order[0]`` of its round.  The master's own
        copy is dispatched synchronously, as :meth:`broadcast_signal`
        does, so it keeps its place in the order of steps."""
        if master_id == self.machine_id:
            self._dispatch_signal(payload)
        else:
            self.signals_mesh.send(self.machine_id, master_id, payload)

    def _on_signal(self, envelope: Envelope) -> None:
        self._dispatch_signal(envelope.payload)

    def _dispatch_signal(self, payload: object) -> None:
        if self.state == GuesstimateNode.STATE_STOPPED:
            return
        if self.master is not None:
            self.master.handle_signal(payload)
        self.synchronizer.handle_signal(payload)

    def _on_op(self, envelope: Envelope) -> None:
        if self.state == GuesstimateNode.STATE_STOPPED:
            return
        if isinstance(envelope.payload, msg.OpBatch):
            self.synchronizer.handle_op(envelope.payload)

    # -- introspection -------------------------------------------------------------------

    def quiesced(self) -> bool:
        """True when nothing is pending locally or in flight.

        A round the cluster still has in flight is accounted for by
        :meth:`repro.runtime.system.Cluster.quiesced` against the
        master's open round — a per-node check cannot tell a live
        round from one whose SyncComplete was lost to a fault.
        """
        return (
            not self.model.pending
            and not self.synchronizer.in_flight
            and not self.synchronizer.pending_completions
            and self._window is None
            and not self._deferred
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "master" if self.is_master else "slave"
        return f"<GuesstimateNode {self.machine_id} {role} {self.state}>"
