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


def catch_up(model: MachineModel, states: dict | None, entries) -> None:
    """Bring ``model`` up to a later global position — the one way
    committed state arrives from outside a round: crash recovery, a
    snapshot Welcome and a backlog Welcome.

    ``states`` (``unique id -> (type name, state)``), when given, is
    installed first: a held object takes the new state through
    ``copy_from``, which no operation describes, so it is re-stamped
    for the version bookkeeping; a new one is adopted.  Any held
    history predates those states, so ``C`` restarts empty.  Then the
    logged ``entries`` commit on top and the guess is refreshed.
    """
    if states is not None:
        committed = model.committed
        for unique_id, (type_name, state) in states.items():
            obj = decode_state({"type": type_name, "state": state})
            if committed.has(unique_id):
                committed.get(unique_id).copy_from(obj)
                committed.mark_dirty((unique_id,))
            else:
                committed.adopt(unique_id, obj)
        model.completed.clear()
    commit_logged(model, entries)
    model.guess.refresh_from(model.committed)


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
        if is_master:
            self.synchronizer.master_id = machine_id
        self.storage = build_storage(config, machine_id)
        self.metrics.storage = self.storage.stats
        #: holds committed state rebuilt from durable recovery and not yet
        #: welcomed: Hello then announces the held position and tail key,
        #: so the master can welcome it with a committed-op backlog
        self._recovered = False

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
            return  # empty rounds change nothing worth replaying
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
        count = tail = None
        if self._recovered:
            count = self.completed_offset + self.model.completed_count
            if self.model.completed:
                key = self.model.completed[-1].key
                tail = (key.machine_id, key.op_number)
        self.signals_mesh.broadcast(
            self.machine_id, msg.Hello(self.machine_id, count, tail)
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
        doing local work too.  A process kill, not a power cut: the store
        keeps every record appended and closes as usual (fsyncing unless
        the policy is ``never``); :meth:`recover_and_rejoin` uses it.
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
            self.metrics.crash_recoveries += 1
            self.metrics.recovery_replay_entries = sum(
                len(commit.entries) for commit in recovered.commits
            )
            self.trace(
                Tracer.STORAGE,
                action="recover",
                replayed_rounds=recovered.replay_length,
                completed=self.completed_offset + self.model.completed_count,
            )
        else:
            self.model = MachineModel(self.machine_id)
        self._recovered = recovered is not None
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
        catch_up(
            model,
            recovered.states,
            [entry for commit in recovered.commits for entry in commit.entries],
        )
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
        """Load the master's Welcome, keyed on the held global position.

        A joiner, or an active node the Welcome is ahead of, catches up:
        a snapshot Welcome replaces committed state wholesale and rebases
        the durable log; a delta Welcome — earned by announcing a durable
        position — replays the committed operations missed since, so the
        local completed sequence survives the crash.  A delta is
        loadable only when its backlog covers the held position (and,
        for a joiner, that position came from recovery).  A stale one
        must never be loaded as an (empty) snapshot: that would destroy
        the recovered history.  A joiner ignores it and its Hello retry
        brings a matching Welcome; an active node restarts, and its
        fresh Hello announces its true position.

        An active node is re-welcomed when its WelcomeAck was lost, or
        raced a round it was not part of; at or behind its position the
        Welcome only needs the re-ack.
        """
        if self.state not in (
            GuesstimateNode.STATE_JOINING,
            GuesstimateNode.STATE_ACTIVE,
        ):
            return
        joining = self.state == GuesstimateNode.STATE_JOINING
        held = self.completed_offset + self.model.completed_count
        if not joining and welcome.completed_count <= held:
            self._ack_welcome(welcome)
            return
        if welcome.backlog_from is None:
            catch_up(self.model, welcome.snapshot, ())
            self.completed_offset = welcome.completed_count
            self.storage.rebase(dict(welcome.snapshot), welcome.completed_count)
        else:
            skip = held - welcome.backlog_from
            if not 0 <= skip <= len(welcome.backlog) or (
                joining and not self._recovered
            ):
                if not joining:
                    self.restart()
                return
            missed = welcome.backlog[skip:]
            catch_up(self.model, None, missed)
            held = self.completed_offset + self.model.completed_count
            if missed:
                # Logged like a round (round_id -1 marks a catch-up)
                # so recovery replays it in order too.
                self.storage.append_commit(CommitRecord(-1, missed, held))
            if joining:
                self.trace(
                    Tracer.STORAGE,
                    action="catch_up",
                    backlog=len(welcome.backlog),
                    completed=held,
                )
        self._recovered = False
        # Operations issued while offline are still pending: re-apply
        # them to the refreshed guesstimate ([P](sc) = sg) so they
        # can flush in the next round.
        self.replay_pending()
        self.guess_changed(True)
        if not joining:
            self.trace(
                Tracer.MEMBERSHIP,
                action="catch_up_welcome",
                completed=welcome.completed_count,
            )
        self._ack_welcome(welcome)
        if joining:
            self.state = GuesstimateNode.STATE_ACTIVE
            self.trace(
                Tracer.MEMBERSHIP,
                state="active",
                snapshot=len(welcome.snapshot),
                backlog=len(welcome.backlog),
            )
            self.synchronizer.welcomed(welcome.master_id)
            self._drain_deferred()
            if self.on_welcome is not None:
                self.on_welcome()

    def _ack_welcome(self, welcome: msg.Welcome) -> None:
        # A crash can wipe the op counter while the cluster commits our
        # last flush; resume numbering above everything ever committed.
        self.model._op_counter = max(self.model._op_counter, welcome.op_floor)
        self.signals_mesh.send(
            self.machine_id, welcome.master_id, msg.WelcomeAck(self.machine_id)
        )

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
        self.synchronizer.work_issued()

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
