"""Contract decorators: requires / ensures / modifies / invariant.

Usage on a shared class::

    @invariant(lambda self: all(0 <= v <= 9 for row in self.grid for v in row),
               "cells hold 0..9")
    class SudokuBoard(GSharedObject):

        @requires(lambda self, r, c, v: 1 <= v <= 9, "value in range")
        @ensures(lambda old, self, result, r, c, v:
                 (not result) or self.grid[r - 1][c - 1] == v,
                 "on success the cell holds v")
        @modifies("grid")
        def update(self, r, c, v) -> bool:
            ...

Checking is global and switchable: ``set_checking(True)`` (default)
wraps every contracted call with precondition, postcondition,
frame (modifies) and invariant checks, raising
:class:`~repro.errors.ContractViolation` on failure — this is Spec#'s
"translated into runtime checks" mode.  A checked call copies the
object's fields once, before the body runs: the conformance and frame
checks compare the live fields with that copy and ``ensures`` clauses
receive it as ``old``.  After ``set_checking(False)`` a call pays
nothing but one flag test.

Every declared clause is also recorded as an :class:`Assertion` so the
verifier can attempt a static (bounded-exhaustive) proof of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.shared_object import copy_plain
from repro.errors import ContractViolation

_CHECKING = True


def set_checking(enabled: bool) -> bool:
    """Globally enable/disable runtime contract checks; returns previous."""
    global _CHECKING
    previous = _CHECKING
    _CHECKING = bool(enabled)
    return previous


def checking_enabled() -> bool:
    return _CHECKING


@dataclass(frozen=True)
class Assertion:
    """One declared contract clause, as seen by the verifier."""

    kind: str  # "requires" | "ensures" | "modifies" | "invariant"
    subject: str  # "Class.method" or "Class"
    description: str
    predicate: Callable = None  # type: ignore[assignment]
    fields: tuple[str, ...] = ()


class _SpecInfo:
    """Accumulated contract clauses for one method."""

    def __init__(self):
        self.requires: list[Assertion] = []
        self.ensures: list[Assertion] = []
        self.modifies: tuple[str, ...] | None = None


def _spec_of(fn: Callable) -> _SpecInfo:
    if not hasattr(fn, "__gspec__"):
        fn.__gspec__ = _SpecInfo()  # type: ignore[attr-defined]
    return fn.__gspec__  # type: ignore[attr-defined]


def _wrap(fn: Callable) -> Callable:
    """Wrap ``fn`` with contract checking (idempotent)."""
    if getattr(fn, "__gspec_wrapped__", False):
        return fn
    spec = _spec_of(fn)

    @functools.wraps(fn)
    def checked(self, *args: Any, **kwargs: Any):
        if not _CHECKING:
            return fn(self, *args, **kwargs)
        subject = f"{type(self).__name__}.{fn.__name__}"
        for clause in spec.requires:
            if not clause.predicate(self, *args, **kwargs):
                raise ContractViolation("requires", clause.description, subject)
        _check_invariants(self, subject, "entry")
        old = _snapshot(self)
        result = fn(self, *args, **kwargs)
        if result is False or spec.modifies is not None:
            changed = _changed_fields(self, old)
            if result is False and changed:
                raise ContractViolation(
                    "conformance",
                    "operation returned False but modified shared state",
                    subject,
                )
            if spec.modifies is not None:
                for field_name in changed:
                    if field_name not in spec.modifies:
                        raise ContractViolation(
                            "modifies",
                            f"field {field_name!r} changed but is not in the frame",
                            subject,
                        )
        for clause in spec.ensures:
            if not clause.predicate(old, self, result, *args, **kwargs):
                raise ContractViolation("ensures", clause.description, subject)
        _check_invariants(self, subject, "exit")
        return result

    checked.__gspec__ = spec  # type: ignore[attr-defined]
    checked.__gspec_wrapped__ = True  # type: ignore[attr-defined]
    checked.__gspec_raw__ = fn  # type: ignore[attr-defined]
    return checked


def requires(predicate: Callable, description: str = "precondition"):
    """Declare a precondition ``predicate(self, *args) -> bool``."""

    def decorate(fn: Callable) -> Callable:
        raw = getattr(fn, "__gspec_raw__", fn)
        wrapped = _wrap(raw)
        clause = Assertion("requires", raw.__qualname__, description, predicate)
        wrapped.__gspec__.requires.insert(0, clause)  # type: ignore[attr-defined]
        return wrapped

    return decorate


def ensures(predicate: Callable, description: str = "postcondition"):
    """Declare a postcondition ``predicate(old, self, result, *args)``.

    ``old`` is a dict snapshot of the instance fields before the call
    (compare e.g. ``old["grid"]`` with ``self.grid``).  It shares nothing
    with the live object and is the only copy a checked call makes.
    """

    def decorate(fn: Callable) -> Callable:
        raw = getattr(fn, "__gspec_raw__", fn)
        wrapped = _wrap(raw)
        clause = Assertion("ensures", raw.__qualname__, description, predicate)
        wrapped.__gspec__.ensures.insert(0, clause)  # type: ignore[attr-defined]
        return wrapped

    return decorate


def modifies(*fields: str):
    """Declare the write frame: only the named fields may change."""

    def decorate(fn: Callable) -> Callable:
        raw = getattr(fn, "__gspec_raw__", fn)
        wrapped = _wrap(raw)
        wrapped.__gspec__.modifies = tuple(fields)  # type: ignore[attr-defined]
        return wrapped

    return decorate


#: attribute carrying the @commutative marker on a (wrapped) method
COMMUTATIVE_ATTR = "__g_commutative__"


def commutative(fn: Callable) -> Callable:
    """Mark an operation as commuting with every op of its class.

    A bare marker, no runtime semantics of its own: glint's GL007
    certifies it against the inferred interference matrix and the
    simfuzz commute probe re-executes adjacent committed pairs of
    marked ops in both orders.  Apply it
    *outermost* (above ``@requires``/``@ensures``/``@modifies``) so the
    marker lands on the wrapped function the class actually holds.
    """
    setattr(fn, COMMUTATIVE_ATTR, True)
    return fn


def is_commutative(cls: type, method_name: str) -> bool:
    """Does ``cls.method_name`` carry the @commutative marker?"""
    return bool(getattr(getattr(cls, method_name, None), COMMUTATIVE_ATTR, False))


def invariant(predicate: Callable, description: str = "object invariant"):
    """Class decorator declaring an object invariant ``predicate(self)``.

    Checked on entry and exit of every contracted method.  Stack as
    many as needed; they accumulate.
    """

    def decorate(cls: type) -> type:
        existing = list(getattr(cls, "__ginvariants__", ()))
        existing.append(Assertion("invariant", cls.__name__, description, predicate))
        cls.__ginvariants__ = tuple(existing)  # type: ignore[attr-defined]
        return cls

    return decorate


def _check_invariants(obj: Any, subject: str, where: str) -> None:
    for clause in getattr(type(obj), "__ginvariants__", ()):
        if not clause.predicate(obj):
            raise ContractViolation(
                "invariant", f"{clause.description} (at {where})", subject
            )


_ABSENT = object()


def _snapshot(obj: Any) -> dict[str, Any]:
    """Independent copy of the instance fields (runtime ``_g_`` ones excluded)."""
    return {
        key: copy_plain(value)
        for key, value in obj.__dict__.items()
        if not key.startswith("_g_")
    }


def _changed_fields(obj: Any, old: dict[str, Any]) -> list[str]:
    """Fields whose live value differs from ``old``; created and deleted count."""
    live = obj.__dict__
    changed = [key for key, then in old.items() if live.get(key, _ABSENT) != then]
    return changed + [
        key for key in live if key not in old and not key.startswith("_g_")
    ]


def state_of(obj: Any) -> dict[str, Any]:
    """``obj.get_state()`` where there is one, else the contract snapshot."""
    get_state = getattr(obj, "get_state", None)
    return get_state() if callable(get_state) else _snapshot(obj)


def contract_assertions(cls: type) -> list[Assertion]:
    """Every assertion declared on ``cls``: invariants + per-method clauses.

    ``modifies`` frames contribute one assertion per protected field
    per method (each is an independently checkable claim), mirroring
    how verifiers explode frame conditions into per-location checks.
    """
    assertions: list[Assertion] = list(getattr(cls, "__ginvariants__", ()))
    contracted: set[str] = set()
    for klass in cls.__mro__:
        for name, member in vars(klass).items():
            if getattr(member, "__gspec__", None) is not None:
                contracted.add(name)
    for name in sorted(contracted):
        member = getattr(cls, name)
        spec = getattr(member, "__gspec__", None)
        if spec is None:  # pragma: no cover - filtered already
            continue
        assertions.extend(spec.requires)
        assertions.extend(spec.ensures)
        # Built-in conformance obligation for every contracted method.
        assertions.append(
            Assertion(
                "conformance",
                f"{cls.__name__}.{name}",
                "returns False implies shared state unchanged",
            )
        )
        if spec.modifies is not None:
            probe = cls()
            frame_fields = [
                field_name
                for field_name in vars(probe)
                if not field_name.startswith("_g_")
                and field_name not in spec.modifies
            ]
            for field_name in frame_fields:
                assertions.append(
                    Assertion(
                        "modifies",
                        f"{cls.__name__}.{name}",
                        f"field {field_name!r} is never written",
                        fields=(field_name,),
                    )
                )
    return assertions
