"""Replica stores and copy-on-write transaction views.

Each machine keeps two :class:`ObjectStore` replicas per the paper: one
for the committed state ``sc`` and one for the guesstimated state
``sg``.  Hierarchical (Atomic / OrElse) operations execute inside a
:class:`TransactionView`, which implements the paper's concurrency
control: "the first time an object is updated within an atomic
operation a temporary copy of its state is made and from then on all
updates within the atomic operation are made to this copy; if the
atomic operation succeeds, the temporary state is copied back to the
shared state."

Stores are **versioned**: every object carries a monotonically
increasing version stamp, bumped whenever the store observes a
mutation (create / adopt / remove bump automatically; in-place method
mutations are stamped by :meth:`ObjectStore.run`, the one call that
executes an operation against a store — the issue path, the commit
step and the pending replay all go through it).  The stamps buy two
asymptotic wins:

* :meth:`refresh_delta_from` — the ApplyUpdatesFromMesh "copy committed
  onto guess" step in O(objects touched) instead of O(total objects):
  only objects whose source version advanced since the last sync, plus
  objects the target itself dirtied (pending-op replays), plus an
  id-set diff when either store's membership changed, are copied.
* a version-keyed :meth:`snapshot_states` cache — late-joiner Welcome
  snapshots and WAL snapshotting stop re-deep-copying objects whose
  version has not moved.

:meth:`refresh_from` (the naive full copy) is kept as the semantic
oracle: ``refresh_delta_from`` must leave the store in exactly the
state a full refresh would, which the simfuzz refresh oracle and the
Hypothesis properties in ``tests/properties`` assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import DuplicateObjectError, UnknownObjectError
from repro.core.shared_object import GSharedObject

if TYPE_CHECKING:  # pragma: no cover - typing only (operations imports us)
    from repro.core.operations import SharedOp


class StateView:
    """Anything an operation can execute against: resolves ids to objects."""

    def get(self, unique_id: str) -> GSharedObject:
        raise NotImplementedError

    def has(self, unique_id: str) -> bool:
        raise NotImplementedError

    def create(self, unique_id: str, cls: type, state: dict | None) -> GSharedObject:
        raise NotImplementedError


class ObjectStore(StateView):
    """A flat map of unique id -> shared object replica, with versions."""

    def __init__(self, label: str = "store"):
        self.label = label
        self._objects: dict[str, GSharedObject] = {}
        #: per-object version stamp (every id in _objects has one)
        self._versions: dict[str, int] = {}
        #: monotone counter the version stamps are drawn from
        self._tick = 0
        #: bumped whenever the id set changes (create/adopt/remove)
        self._membership_version = 0
        #: ids mutated in place since the last refresh (refresh-target role)
        self._dirty: set[str] = set()
        #: source versions as of the last (full or delta) refresh
        self._synced_versions: dict[str, int] = {}
        self._synced_source_membership: int | None = None
        self._synced_own_membership: int | None = None
        #: version-keyed get_state cache: id -> (version, (type name, state))
        self._snapshot_cache: dict[str, tuple[int, tuple[str, dict]]] = {}
        self.snapshot_cache_hits = 0
        self.snapshot_cache_misses = 0

    # -- version bookkeeping ---------------------------------------------------

    def _stamp(self, unique_id: str) -> None:
        self._tick += 1
        self._versions[unique_id] = self._tick

    def mark_dirty(self, unique_ids: Iterable[str]) -> None:
        """Record in-place mutations of ``unique_ids`` (may-touch superset).

        The store cannot observe method calls on its objects, so
        whoever mutates one in place must report the touched ids here;
        for operations :meth:`run` does it, so only writes that bypass
        operations (a transaction's copy-back, a snapshot's
        ``copy_from``) call this by hand.  Over-approximating (ids an
        operation *may* touch) is safe; missing a mutated id is not,
        which is what the refresh oracle exists to catch.
        """
        self._tick += 1
        tick = self._tick
        for unique_id in unique_ids:
            if unique_id in self._objects:
                self._versions[unique_id] = tick
                self._dirty.add(unique_id)

    def run(self, op: "SharedOp") -> bool:
        """Execute ``op`` against this store and stamp its may-touch set.

        The one way the model and the runtime execute an operation: the
        stamp cannot be forgotten, and a failed operation may still
        have partially run, so it is stamped regardless of the result.
        """
        ok = op.execute(self)
        self.mark_dirty(op.object_ids())
        return ok

    def version(self, unique_id: str) -> int:
        """Current version stamp of ``unique_id`` (0 if absent)."""
        return self._versions.get(unique_id, 0)

    # -- StateView -----------------------------------------------------------

    def get(self, unique_id: str) -> GSharedObject:
        try:
            return self._objects[unique_id]
        except KeyError:
            raise UnknownObjectError(unique_id) from None

    def has(self, unique_id: str) -> bool:
        return unique_id in self._objects

    def create(self, unique_id: str, cls: type, state: dict | None) -> GSharedObject:
        """Instantiate ``cls`` under ``unique_id``, optionally seeding state."""
        if unique_id in self._objects:
            raise DuplicateObjectError(unique_id)
        obj = cls()
        if state is not None:
            obj.set_state(state)
        obj._bind_id(unique_id)
        self._objects[unique_id] = obj
        self._register_new(unique_id)
        return obj

    # -- store management ----------------------------------------------------

    def adopt(self, unique_id: str, obj: GSharedObject) -> None:
        """Register an already-built object under ``unique_id``."""
        if unique_id in self._objects:
            raise DuplicateObjectError(unique_id)
        obj._bind_id(unique_id)
        self._objects[unique_id] = obj
        self._register_new(unique_id)

    def _register_new(self, unique_id: str) -> None:
        self._stamp(unique_id)
        self._membership_version += 1
        self._dirty.add(unique_id)

    def remove(self, unique_id: str) -> None:
        if self._objects.pop(unique_id, None) is None:
            return
        self._membership_version += 1
        self._versions.pop(unique_id, None)
        self._dirty.discard(unique_id)
        self._synced_versions.pop(unique_id, None)
        self._snapshot_cache.pop(unique_id, None)

    def ids(self) -> list[str]:
        return list(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[tuple[str, GSharedObject]]:
        return iter(self._objects.items())

    # -- refresh (full oracle and delta fast path) ----------------------------

    def refresh_from(self, source: "ObjectStore") -> int:
        """Make this store's state identical to ``source`` (full copy).

        Objects present in ``source`` but absent here are created;
        present objects are overwritten via the programmer's
        ``copy_from``.  Returns the number of objects refreshed.  This
        is the "copy the committed state onto the guesstimated state"
        step of ApplyUpdatesFromMesh, implemented naively in O(total
        shared state) — kept as the oracle :meth:`refresh_delta_from`
        is checked against, and used by the recovery paths where the
        whole state legitimately changes.
        """
        refreshed = 0
        for unique_id, src in source:
            if unique_id in self._objects:
                self._objects[unique_id].copy_from(src)
                self._stamp(unique_id)
            else:
                replica = src.clone()
                replica._bind_id(unique_id)
                self._objects[unique_id] = replica
                self._stamp(unique_id)
                self._membership_version += 1
            self._synced_versions[unique_id] = source._versions[unique_id]
            refreshed += 1
        # A full refresh leaves us in sync with the source wholesale.
        self._dirty.clear()
        self._synced_source_membership = source._membership_version
        self._synced_own_membership = self._membership_version
        return refreshed

    def refresh_candidates(
        self, source: "ObjectStore", touched: Iterable[str] = ()
    ) -> set[str]:
        """Ids :meth:`refresh_delta_from` may copy for this (source, touched).

        Exposed separately so the synchronizer can take write locks on
        exactly this set instead of every committed id.
        """
        candidates = set(touched)
        candidates |= self._dirty
        if (
            source._membership_version != self._synced_source_membership
            or self._membership_version != self._synced_own_membership
        ):
            # Membership moved on either side since the last sync: an
            # id-set diff finds creations we must clone in, and a
            # version sweep catches remove-then-recreate under the same
            # id.  O(total ids) in dict lookups, but no state is copied
            # here — and rounds without membership churn skip it.
            for unique_id, src_version in source._versions.items():
                if (
                    unique_id not in self._objects
                    or self._synced_versions.get(unique_id) != src_version
                ):
                    candidates.add(unique_id)
        return candidates

    def refresh_delta_from(
        self, source: "ObjectStore", touched: Iterable[str] = ()
    ) -> int:
        """Delta refresh: equivalent to :meth:`refresh_from`, copying only
        objects that may differ.

        ``touched`` must cover every source id mutated in place since
        the previous refresh from ``source`` (the apply stage knows
        them from ``op.object_ids()``); creations, removals and this
        store's own dirtied objects are detected internally.  Returns
        the number of objects actually copied — the benchmarkable
        O(touched) versus the full refresh's O(total).
        """
        copied = 0
        for unique_id in sorted(self.refresh_candidates(source, touched)):
            src = source._objects.get(unique_id)
            if src is None:
                # Only ever existed on this side (e.g. a pending
                # create): the full refresh leaves it untouched too.
                continue
            src_version = source._versions[unique_id]
            if unique_id in self._objects:
                if (
                    unique_id not in self._dirty
                    and self._synced_versions.get(unique_id) == src_version
                ):
                    continue  # already holds exactly this source version
                self._objects[unique_id].copy_from(src)
                self._stamp(unique_id)
            else:
                replica = src.clone()
                replica._bind_id(unique_id)
                self._objects[unique_id] = replica
                self._stamp(unique_id)
                self._membership_version += 1
            self._synced_versions[unique_id] = src_version
            copied += 1
        self._dirty.clear()
        self._synced_source_membership = source._membership_version
        self._synced_own_membership = self._membership_version
        return copied

    # -- snapshots -------------------------------------------------------------

    def snapshot_states(self) -> dict[str, tuple[str, dict]]:
        """Serializable snapshot {id: (type name, state dict)}.

        Used by the master to welcome late joiners and by WAL
        snapshotting.  Type names are resolved back to classes by the
        type registry in :mod:`repro.core.serialization`.

        Entries are served from a version-keyed cache: an object whose
        version has not moved since the last call is not deep-copied
        again.  Returned entries are therefore shared across calls —
        callers must treat them as immutable (every existing consumer
        serializes or ``set_state``-copies them).
        """
        snapshot: dict[str, tuple[str, dict]] = {}
        for unique_id, obj in self._objects.items():
            version = self._versions[unique_id]
            cached = self._snapshot_cache.get(unique_id)
            if cached is not None and cached[0] == version:
                self.snapshot_cache_hits += 1
                snapshot[unique_id] = cached[1]
            else:
                self.snapshot_cache_misses += 1
                entry = (type(obj).__name__, obj.get_state())
                self._snapshot_cache[unique_id] = (version, entry)
                snapshot[unique_id] = entry
        return snapshot

    def state_equal(self, other: "ObjectStore") -> bool:
        """True if both stores hold the same objects with equal state."""
        if set(self._objects) != set(other._objects):
            return False
        return all(
            obj.state_equal(other._objects[unique_id])
            for unique_id, obj in self._objects.items()
        )


class TransactionView(StateView):
    """Copy-on-write view over a base view (object granularity).

    Objects are shadow-copied on first access; all reads and writes
    inside the transaction hit the shadow.  :meth:`commit` copies the
    shadows back to the base; :meth:`abort` simply discards them.
    Transactions nest (OrElse inside Atomic): a nested view shadows the
    outer view's shadows.
    """

    def __init__(self, base: StateView):
        self.base = base
        self._shadows: dict[str, GSharedObject] = {}
        self._created: list[tuple[str, type]] = []
        self._closed = False

    # -- StateView -----------------------------------------------------------

    def get(self, unique_id: str) -> GSharedObject:
        if unique_id not in self._shadows:
            self._shadows[unique_id] = self.base.get(unique_id).clone()
        return self._shadows[unique_id]

    def has(self, unique_id: str) -> bool:
        return unique_id in self._shadows or self.base.has(unique_id)

    def create(self, unique_id: str, cls: type, state: dict | None) -> GSharedObject:
        if self.has(unique_id):
            raise DuplicateObjectError(unique_id)
        obj = cls()
        if state is not None:
            obj.set_state(state)
        obj._bind_id(unique_id)
        self._shadows[unique_id] = obj
        self._created.append((unique_id, cls))
        return obj

    # -- lifecycle -----------------------------------------------------------

    @property
    def touched(self) -> list[str]:
        """Ids shadow-copied so far (ordered by first touch)."""
        return list(self._shadows)

    def commit(self) -> None:
        """Copy every shadow back into the base view."""
        assert not self._closed, "transaction already closed"
        created_ids = {unique_id for unique_id, _cls in self._created}
        for unique_id, cls in self._created:
            shadow = self._shadows[unique_id]
            self.base.create(unique_id, cls, shadow.get_state())
        for unique_id, shadow in self._shadows.items():
            if unique_id not in created_ids:
                self.base.get(unique_id).copy_from(shadow)
        if isinstance(self.base, ObjectStore):
            # Writes through base.get(...).copy_from bypass the store's
            # version stamps; report them so they stay coherent.
            self.base.mark_dirty(
                unique_id
                for unique_id in self._shadows
                if unique_id not in created_ids
            )
        self._closed = True

    def abort(self) -> None:
        """Discard all shadows; the base view is untouched."""
        assert not self._closed, "transaction already closed"
        self._shadows.clear()
        self._created.clear()
        self._closed = True
