"""The per-machine GUESSTIMATE API facade.

This is the programmer-facing surface of the model, a 1:1 port of the
paper's API (section 2, "GUESSTIMATE API"):

=====================================  =====================================
Paper (C#)                             Here
=====================================  =====================================
``Guesstimate.CreateInstance(type)``   :meth:`Guesstimate.create_instance`
``Guesstimate.JoinInstance(id)``       :meth:`Guesstimate.join_instance`
``Guesstimate.AvailableObjects()``     :meth:`Guesstimate.available_objects`
``Guesstimate.GetType(id)``            :meth:`Guesstimate.get_type`
``Guesstimate.GetUniqueID(obj)``       :meth:`Guesstimate.get_unique_id`
``Guesstimate.CreateOperation(...)``   :meth:`Guesstimate.create_operation`
``Guesstimate.CreateAtomic(ops)``      :meth:`Guesstimate.create_atomic`
``Guesstimate.CreateOrElse(a, b)``     :meth:`Guesstimate.create_or_else`
``Guesstimate.IssueOperation(op, c)``  :meth:`Guesstimate.issue_operation`
``Guesstimate.BeginRead(obj)``         :meth:`Guesstimate.begin_read`
``Guesstimate.EndRead(obj)``           :meth:`Guesstimate.end_read`
=====================================  =====================================

Beyond the paper's surface, every issuing call returns an
:class:`IssueTicket` (truthy iff the issue succeeded, resolved at
commit), and :meth:`Guesstimate.invoke` collapses the
``create_operation`` + ``issue_operation`` two-step into one call.

The facade is bound to a *host* (normally a runtime node) that provides
time, the issue windows, and notification hooks; a trivial
:class:`LocalHost` makes the facade usable standalone, which is how the
core unit tests and the semantics oracle exercise it.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.errors import (
    IssueBlockedError,
    NotSubscribedError,
    OperationError,
    UnknownObjectError,
)
from repro.core.machine import CompletionFn, MachineModel, PendingEntry
from repro.core.operations import (
    AtomicOp,
    CreateObjectOp,
    OpKey,
    OrElseOp,
    PrimitiveOp,
    SharedOp,
)
from repro.core.readlock import ReadLockTable
from repro.core.shared_object import GSharedObject, validate_shared_class


class Host:
    """What the facade needs from its runtime environment."""

    def now(self) -> float:
        raise NotImplementedError

    def active_window(self) -> str | None:
        """Name of the currently blocked window, or None."""
        raise NotImplementedError

    def notify_issued(self, entry: PendingEntry) -> None:
        """Called after an operation is appended to P (rule R2)."""

    def notify_rejected(self, op: SharedOp) -> None:
        """Called when an issue fails its guard and the op is dropped."""

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the active window closes."""
        raise NotImplementedError

    def register_remote_callback(
        self, unique_id: str, callback: Callable[[str], None]
    ) -> Callable[[], None]:
        """Invoke ``callback(uid)`` when remote operations change the
        object (the paper's wished-for API; see sections 6 and 9).
        Returns an unsubscribe thunk."""
        raise NotImplementedError


class LocalHost(Host):
    """Standalone host: no windows, no runtime, manual time."""

    def __init__(self):
        self.time = 0.0
        self.issued: list[PendingEntry] = []

    def now(self) -> float:
        return self.time

    def active_window(self) -> str | None:
        return None

    def notify_issued(self, entry: PendingEntry) -> None:
        self.issued.append(entry)

    def defer(self, fn: Callable[[], None]) -> None:  # pragma: no cover
        fn()

    def register_remote_callback(self, unique_id, callback):
        # Standalone hosts have no synchronizer, hence no remote updates.
        return lambda: None


class IssueTicket:
    """Tracks one issued operation from issue to commit.

    Every issuing call (:meth:`Guesstimate.issue_operation`,
    :meth:`Guesstimate.issue_when_possible`,
    :meth:`Guesstimate.invoke`) returns one of these immediately —
    even when the issue had to be deferred past a blocked window.  The
    blocking design pattern (paper section 5, Figure 4) is ``wait()``:
    it parks the calling thread until the commit-time completion fires.

    A ticket is truthy once the operation succeeded on the
    guesstimated state and was queued for commit, so
    ``if api.issue_operation(op):`` reads exactly like the old
    boolean-returning API.
    """

    PENDING = "pending"
    REJECTED = "rejected"  # failed on the guesstimated state, dropped
    ISSUED = "issued"
    COMMITTED = "committed"

    __slots__ = ("status", "issue_result", "commit_result", "key")

    #: One condition for every ticket: a gateway retains each ticket for
    #: the life of the daemon, so a per-ticket Event (a Condition and a
    #: Lock of its own) was most of what a ticket cost.  Waiters are
    #: rare, so waking all of them on each resolution is cheap.
    _resolved = threading.Condition()

    def __init__(self):
        self.status = IssueTicket.PENDING
        self.issue_result: bool | None = None
        self.commit_result: bool | None = None
        self.key: OpKey | None = None

    def _mark_rejected(self) -> None:
        with IssueTicket._resolved:
            self.status = IssueTicket.REJECTED
            self.issue_result = False
            IssueTicket._resolved.notify_all()

    def _mark_issued(self, key: OpKey) -> None:
        self.status = IssueTicket.ISSUED
        self.issue_result = True
        self.key = key

    def _mark_committed(self, result: bool) -> None:
        with IssueTicket._resolved:
            self.status = IssueTicket.COMMITTED
            self.commit_result = result
            IssueTicket._resolved.notify_all()

    def __bool__(self) -> bool:
        """True once the issue succeeded (compatible with the legacy
        boolean return of ``issue_operation``)."""
        return self.issue_result is True

    @property
    def done(self) -> bool:
        """True once the operation was rejected or committed."""
        return self.status in (IssueTicket.REJECTED, IssueTicket.COMMITTED)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until rejected/committed (call from a thread other than
        the scheduler's, which has to keep running to commit it)."""
        with IssueTicket._resolved:
            return IssueTicket._resolved.wait_for(lambda: self.done, timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IssueTicket(status={self.status!r}, key={self.key}, "
            f"commit_result={self.commit_result})"
        )


class Guesstimate:
    """The per-machine API facade over a :class:`MachineModel`."""

    _instance_counter = itertools.count(1)

    def __init__(self, model: MachineModel, host: Host | None = None):
        self.model = model
        self.host = host if host is not None else LocalHost()
        self.read_locks = ReadLockTable()
        self._subscriptions: set[str] = set()

    # -- object lifecycle ------------------------------------------------------

    def create_instance(
        self, cls: type, init_state: dict | None = None
    ) -> GSharedObject:
        """Create a shared object; returns the guesstimated replica.

        The object gets a unique id and is registered with GUESSTIMATE.
        Creation rides the commit stream (a :class:`CreateObjectOp` is
        issued) so every machine materializes it at the same position
        in the global order.
        """
        validate_shared_class(cls)
        unique_id = self._mint_id(cls)
        op = CreateObjectOp(unique_id, cls, init_state)
        issued = self.issue_operation(op, None)
        if not issued:  # pragma: no cover - fresh ids never collide
            raise OperationError(f"could not create instance {unique_id!r}")
        self._subscriptions.add(unique_id)
        return self.model.guess.get(unique_id)

    def join_instance(self, unique_id: str) -> GSharedObject:
        """Subscribe to an existing shared object; returns the replica.

        The object must already be visible on this machine (committed
        here, or created locally and still pending).
        """
        if self.model.guess.has(unique_id):
            self._subscriptions.add(unique_id)
            return self.model.guess.get(unique_id)
        if self.model.committed.has(unique_id):
            # Visible in committed but not yet refreshed into the
            # guesstimate store (possible right after a snapshot load).
            src = self.model.committed.get(unique_id)
            replica = src.clone()
            self.model.guess.adopt(unique_id, replica)
            self._subscriptions.add(unique_id)
            return replica
        raise UnknownObjectError(unique_id)

    def available_objects(self) -> list[str]:
        """Unique ids of all objects visible on this machine."""
        ids = set(self.model.committed.ids()) | set(self.model.guess.ids())
        return sorted(ids)

    def get_type(self, unique_id: str) -> type:
        """Type of a shared object, given its unique id."""
        store = self.model.guess if self.model.guess.has(unique_id) else self.model.committed
        return type(store.get(unique_id))

    def get_unique_id(self, obj: GSharedObject) -> str:
        """Unique id of a registered shared object."""
        return obj.unique_id

    def is_subscribed(self, unique_id: str) -> bool:
        return unique_id in self._subscriptions

    # -- operation construction --------------------------------------------------

    def create_operation(
        self, obj: GSharedObject | str, method_name: str, *args: Any
    ) -> PrimitiveOp:
        """Build (but do not issue) a primitive shared operation."""
        unique_id = obj if isinstance(obj, str) else obj.unique_id
        target = self._resolve_for_issue(unique_id)
        method = getattr(type(target), method_name, None)
        if method is None or not callable(method):
            from repro.errors import UnknownMethodError

            raise UnknownMethodError(type(target).__name__, method_name)
        return PrimitiveOp(unique_id, method_name, args)

    def create_atomic(self, ops: Sequence[SharedOp]) -> AtomicOp:
        """Combine operations with all-or-nothing semantics."""
        return AtomicOp(ops)

    def create_or_else(self, first: SharedOp, second: SharedOp) -> OrElseOp:
        """Combine two operations; at most one succeeds, priority first."""
        return OrElseOp(first, second)

    # -- issuing (rule R2) --------------------------------------------------------

    def issue_operation(
        self, op: SharedOp, completion: CompletionFn | None = None
    ) -> IssueTicket:
        """Issue ``op``: execute on the guesstimated state, queue for commit.

        Returns an :class:`IssueTicket`.  The ticket is truthy (status
        ``ISSUED``) if the operation succeeded on the guesstimated
        state and was queued — it will commit later on all machines, at
        which point ``completion`` runs with the commit-time result and
        the ticket resolves to ``COMMITTED``.  A falsy ticket (status
        ``REJECTED``) means the operation failed on the guesstimated
        state and was dropped entirely.

        Raises :class:`IssueBlockedError` inside a flush/update window;
        use :meth:`issue_when_possible` to defer instead.
        """
        window = self.host.active_window()
        if window is not None:
            raise IssueBlockedError(window)
        ticket = IssueTicket()
        self._attempt_issue(op, completion, ticket)
        return ticket

    def issue_when_possible(
        self, op: SharedOp, completion: CompletionFn | None = None
    ) -> IssueTicket:
        """Like :meth:`issue_operation` but never raises on windows.

        If a window is active the issue is deferred until it closes.
        The returned ticket tracks the operation through commit.
        """
        ticket = IssueTicket()

        def attempt() -> None:
            self._attempt_issue(op, completion, ticket)

        if self.host.active_window() is None:
            attempt()
        else:
            self.host.defer(attempt)
        return ticket

    def invoke(
        self,
        obj: GSharedObject | str,
        method_name: str,
        *args: Any,
        completion: CompletionFn | None = None,
        atomic_with: SharedOp | Sequence[SharedOp] | None = None,
    ) -> IssueTicket:
        """One-step issue: build the operation and issue it immediately.

        Collapses the ``create_operation`` + ``issue_operation``
        two-step for the common case::

            ticket = api.invoke(counter, "increment", 10)

        ``atomic_with`` bundles the new operation with previously built
        operation(s) into an all-or-nothing Atomic block (the new
        operation first).  Issuing is window-tolerant like
        :meth:`issue_when_possible` — inside a flush/update window the
        issue is deferred until the window closes, never raised.
        """
        op: SharedOp = self.create_operation(obj, method_name, *args)
        if atomic_with is not None:
            extras = (
                [atomic_with]
                if isinstance(atomic_with, SharedOp)
                else list(atomic_with)
            )
            op = self.create_atomic([op, *extras])
        return self.issue_when_possible(op, completion)

    def _attempt_issue(
        self,
        op: SharedOp,
        completion: CompletionFn | None,
        ticket: IssueTicket,
    ) -> None:
        """Shared issue path (rule R2); resolves ``ticket`` as it goes."""

        def completion_with_ticket(result: bool) -> None:
            ticket._mark_committed(result)
            if completion is not None:
                completion(result)

        if not self.model.guess.run(op):
            ticket._mark_rejected()
            self.host.notify_rejected(op)
            return
        entry = PendingEntry(
            key=self.model.next_op_key(),
            op=op,
            completion=completion_with_ticket,
            issue_result=True,
            issued_at=self.host.now(),
        )
        self.model.enqueue_pending(entry)
        ticket._mark_issued(entry.key)
        self.host.notify_issued(entry)

    # -- remote-update callbacks (paper sections 6/9 future work) ----------------

    def on_remote_update(
        self, obj: GSharedObject | str, callback: Callable[[str], None]
    ) -> Callable[[], None]:
        """Call ``callback(unique_id)`` whenever *remote* operations
        change the object's state.

        This is the API the paper wished for twice: "Additional API
        support, that provides a call back for changes to a shared
        object via remote operations, could provide an alternate
        solution" (section 6, the Sudoku refresh problem).  The
        callback runs right after the guesstimated state is refreshed
        from a synchronization, so reads inside it see the new state;
        it must not issue operations directly (the update window is
        still open) — use :meth:`issue_when_possible` instead.

        Returns a thunk that unsubscribes the callback.
        """
        return self.host.register_remote_callback(self._uid_of(obj), callback)

    # -- reads ---------------------------------------------------------------------

    def begin_read(self, obj: GSharedObject | str) -> None:
        """Start an isolated read of the guesstimated state."""
        self.read_locks.begin_read(self._uid_of(obj))

    def end_read(self, obj: GSharedObject | str) -> None:
        """End an isolated read started with :meth:`begin_read`."""
        self.read_locks.end_read(self._uid_of(obj))

    @contextmanager
    def reading(self, obj: GSharedObject | str) -> Iterator[GSharedObject]:
        """Context-manager sugar over BeginRead/EndRead."""
        unique_id = self._uid_of(obj)
        self.begin_read(unique_id)
        try:
            yield self._resolve_for_issue(unique_id)
        finally:
            self.end_read(unique_id)

    # -- internal --------------------------------------------------------------------

    def _mint_id(self, cls: type) -> str:
        count = next(Guesstimate._instance_counter)
        return f"{cls.__name__}:{self.model.machine_id}:{count}"

    def _uid_of(self, obj: GSharedObject | str) -> str:
        return obj if isinstance(obj, str) else obj.unique_id

    def _resolve_for_issue(self, unique_id: str) -> GSharedObject:
        if self.model.guess.has(unique_id):
            return self.model.guess.get(unique_id)
        raise NotSubscribedError(unique_id)

    @classmethod
    def _reset_id_counter(cls) -> None:
        """Reset global id numbering (tests only)."""
        cls._instance_counter = itertools.count(1)
