"""The operation algebra (paper sections 2 and 3).

Shared operations are *data*: a primitive operation names a shared
object, a method and arguments, so the very same operation value can
execute against the issuing machine's guesstimated replica at issue
time and against every machine's committed replica at commit time.
Hierarchical operations follow the paper's grammar::

    SharedOp := PrimitiveOp | AtomicOp | OrElseOp
    AtomicOp := Atomic { SharedOp* }
    OrElseOp := SharedOp OrElse SharedOp

``AtomicOp`` has all-or-nothing semantics implemented with
copy-on-write (:class:`~repro.core.store.TransactionView`); ``OrElseOp``
runs its first alternative and falls back to the second, letting at
most one succeed.  Both nest arbitrarily.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.errors import NonBooleanResultError, OperationError, UnknownMethodError
from repro.core.shared_object import GSharedObject
from repro.core.store import StateView, TransactionView


@dataclass(frozen=True, order=True, slots=True)
class OpKey:
    """Global identity of an issued operation: (machineID, operation number).

    Commit order within a synchronization is the lexicographic order of
    these keys, exactly as in the paper's ApplyUpdatesFromMesh stage.
    """

    machine_id: str
    op_number: int

    def __str__(self) -> str:
        return f"{self.machine_id}#{self.op_number}"


class SharedOp:
    """Base class of the operation tree."""

    kind = "shared"
    __slots__ = ()

    def execute(self, view: StateView) -> bool:
        """Run the operation against ``view``; return success."""
        raise NotImplementedError

    def object_ids(self) -> set[str]:
        """All shared-object ids this operation may touch."""
        raise NotImplementedError

    def iter_primitives(self) -> Iterator["PrimitiveOp"]:
        """Yield every primitive leaf in the tree."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable form for traces and logs."""
        raise NotImplementedError


class PrimitiveOp(SharedOp):
    """Invoke ``method_name(*args)`` on one shared object.

    Built by ``Guesstimate.create_operation``.  The target method must
    return a bool; anything else is a programming error surfaced as
    :class:`NonBooleanResultError`.
    """

    kind = "primitive"
    __slots__ = ("object_id", "method_name", "args")

    def __init__(self, object_id: str, method_name: str, args: Sequence[Any] = ()):
        if not object_id:
            raise OperationError("object_id must be non-empty")
        if not method_name or method_name.startswith("_"):
            raise OperationError(
                f"method name {method_name!r} is not a public shared method"
            )
        # ``model.completed`` keeps every committed op on every replica,
        # each decoded from its own JSON: interning leaves one copy of the
        # two strings all operations on an object share.
        self.object_id = sys.intern(object_id)
        self.method_name = sys.intern(method_name)
        self.args = tuple(args)

    def execute(self, view: StateView) -> bool:
        obj = view.get(self.object_id)
        method = getattr(obj, self.method_name, None)
        if method is None or not callable(method):
            raise UnknownMethodError(type(obj).__name__, self.method_name)
        result = method(*self.args)
        if not isinstance(result, bool):
            raise NonBooleanResultError(self.method_name, result)
        return result

    def object_ids(self) -> set[str]:
        return {self.object_id}

    def iter_primitives(self) -> Iterator["PrimitiveOp"]:
        yield self

    def describe(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.object_id}.{self.method_name}({args})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrimitiveOp({self.describe()})"


class AtomicOp(SharedOp):
    """All-or-nothing composition: every child succeeds or none apply."""

    kind = "atomic"
    __slots__ = ("children",)

    def __init__(self, children: Sequence[SharedOp]):
        children = list(children)
        if not children:
            raise OperationError("Atomic requires at least one operation")
        if not all(isinstance(c, SharedOp) for c in children):
            raise OperationError("Atomic children must be shared operations")
        self.children = children

    def execute(self, view: StateView) -> bool:
        txn = TransactionView(view)
        for child in self.children:
            if not child.execute(txn):
                txn.abort()
                return False
        txn.commit()
        return True

    def object_ids(self) -> set[str]:
        ids: set[str] = set()
        for child in self.children:
            ids |= child.object_ids()
        return ids

    def iter_primitives(self) -> Iterator[PrimitiveOp]:
        for child in self.children:
            yield from child.iter_primitives()

    def describe(self) -> str:
        inner = "; ".join(c.describe() for c in self.children)
        return f"Atomic{{{inner}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicOp({self.children!r})"


class OrElseOp(SharedOp):
    """Alternative composition: try ``first``; on failure try ``second``.

    At most one alternative takes effect (priority to ``first``); if
    both fail the whole operation fails and the state is unchanged.
    """

    kind = "orelse"
    __slots__ = ("first", "second")

    def __init__(self, first: SharedOp, second: SharedOp):
        if not isinstance(first, SharedOp) or not isinstance(second, SharedOp):
            raise OperationError("OrElse operands must be shared operations")
        self.first = first
        self.second = second

    def execute(self, view: StateView) -> bool:
        txn = TransactionView(view)
        if self.first.execute(txn):
            txn.commit()
            return True
        txn.abort()
        txn = TransactionView(view)
        if self.second.execute(txn):
            txn.commit()
            return True
        txn.abort()
        return False

    def object_ids(self) -> set[str]:
        return self.first.object_ids() | self.second.object_ids()

    def iter_primitives(self) -> Iterator[PrimitiveOp]:
        yield from self.first.iter_primitives()
        yield from self.second.iter_primitives()

    def describe(self) -> str:
        return f"({self.first.describe()} OrElse {self.second.describe()})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrElseOp({self.first!r}, {self.second!r})"


class CreateObjectOp(SharedOp):
    """System operation that materializes a shared object everywhere.

    ``create_instance`` issues one of these so that object creation
    rides the ordinary commit stream: every machine instantiates the
    object at the same point in the global operation order, which keeps
    the committed stores identical without a separate directory
    protocol.  Idempotent by construction (succeeds only if the id is
    fresh).
    """

    kind = "create"
    __slots__ = ("object_id", "cls", "init_state")

    def __init__(self, object_id: str, cls: type, init_state: dict | None = None):
        if not (isinstance(cls, type) and issubclass(cls, GSharedObject)):
            raise OperationError("CreateObjectOp requires a GSharedObject subclass")
        self.object_id = object_id
        self.cls = cls
        self.init_state = init_state

    def execute(self, view: StateView) -> bool:
        if view.has(self.object_id):
            return False
        view.create(self.object_id, self.cls, self.init_state)
        return True

    def object_ids(self) -> set[str]:
        return {self.object_id}

    def iter_primitives(self) -> Iterator[PrimitiveOp]:
        return iter(())

    def describe(self) -> str:
        return f"create {self.cls.__name__} as {self.object_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CreateObjectOp({self.object_id!r}, {self.cls.__name__})"
