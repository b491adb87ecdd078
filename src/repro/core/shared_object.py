"""Shared-object base class.

Programmers declare shared state by deriving from :class:`GSharedObject`
and implementing ``copy_from`` — exactly the contract the paper's C#
``GSharedObject`` abstract class imposes.  Beyond that the class is
ordinary Python; shared methods are plain methods that return a bool
(True = the operation succeeded, False = the state is unchanged).

Two additional hooks have defaults suitable for plain-data classes and
can be overridden:

* ``get_state`` / ``set_state`` — the wire format used to ship initial
  state to other machines and to snapshot committed state for late
  joiners.  The default copies the instance ``__dict__`` with
  :func:`copy_plain`: lists and dicts are rebuilt by a direct walk, and
  only a value that is neither (a tuple, a set, a subclass, an arbitrary
  object) pays for ``copy.deepcopy``.
* ``clone`` — builds a fresh replica (used by copy-on-write).  The
  default requires a no-argument constructor, which mirrors the paper's
  ``CreateInstance(typeof(...))`` pattern.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.errors import SharedObjectError

#: Attribute names the runtime plants on replicas; never part of state.
_RUNTIME_FIELDS = ("_g_unique_id",)

_SCALARS = frozenset((str, int, float, bool, type(None)))


def copy_plain(value: Any) -> Any:
    """An independent copy of ``value``, cheap when it is plain data.

    Scalars are returned as they are, exact ``list`` and exact ``dict``
    are rebuilt recursively (keys are kept: they are hashable), anything
    else falls back to ``copy.deepcopy``.  State must be JSON-plain to
    ship at all, so like JSON this keeps no memo: aliasing inside a
    value is not preserved.
    """
    cls = type(value)
    if cls is list:
        return [
            item if type(item) in _SCALARS else copy_plain(item) for item in value
        ]
    if cls is dict:
        return {
            key: item if type(item) in _SCALARS else copy_plain(item)
            for key, item in value.items()
        }
    if cls in _SCALARS:
        return value
    return copy.deepcopy(value)


class GSharedObject:
    """Base class for all shared objects.

    Subclasses must be constructible with no arguments and must
    implement :meth:`copy_from`.
    """

    def copy_from(self, src: "GSharedObject") -> None:
        """Copy the shared state of ``src`` into ``self``.

        The paper makes this the one method every shared class must
        provide.  Subclasses must override it; the base implementation
        raises to force a conscious decision about what is state.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement copy_from(src)"
        )

    # -- identity ------------------------------------------------------------

    @property
    def unique_id(self) -> str:
        """The system-wide identifier assigned at CreateInstance time."""
        uid = getattr(self, "_g_unique_id", None)
        if uid is None:
            raise SharedObjectError(
                f"{type(self).__name__} instance is not registered with "
                "GUESSTIMATE; create it with create_instance/join_instance"
            )
        return uid

    @property
    def is_registered(self) -> bool:
        return getattr(self, "_g_unique_id", None) is not None

    def _bind_id(self, unique_id: str) -> None:
        self._g_unique_id = unique_id

    # -- state transfer ------------------------------------------------------

    def get_state(self) -> dict[str, Any]:
        """Return an independent copy of the shared state as a dict.

        Default: :func:`copy_plain` of every instance attribute except
        runtime-internal ones.  Override for non-copyable resources.
        """
        return {
            key: copy_plain(value)
            for key, value in self.__dict__.items()
            if key not in _RUNTIME_FIELDS
        }

    def set_state(self, state: dict[str, Any]) -> None:
        """Restore state previously produced by :meth:`get_state`."""
        for key in list(self.__dict__):
            if key not in _RUNTIME_FIELDS:
                del self.__dict__[key]
        for key, value in state.items():
            self.__dict__[key] = copy_plain(value)

    def clone(self) -> "GSharedObject":
        """Build a fresh replica with the same state (copy-on-write)."""
        try:
            replica = type(self)()
        except TypeError as exc:  # pragma: no cover - defensive
            raise SharedObjectError(
                f"{type(self).__name__} must have a no-argument constructor "
                "(or override clone)"
            ) from exc
        replica.copy_from(self)
        uid = getattr(self, "_g_unique_id", None)
        if uid is not None:
            replica._bind_id(uid)
        return replica

    # -- comparison helpers (used heavily by tests and the spec checker) -----

    def state_equal(self, other: "GSharedObject") -> bool:
        """True if both objects hold identical shared state.

        Compares the live ``__dict__``s (minus runtime fields) without
        deep-copying either object — ``get_state`` would copy both
        whole states just to discard them, and this method runs inside
        every invariant probe and spec check.  Classes that override
        ``get_state`` define their own notion of state, so they fall
        back to comparing those snapshots.
        """
        if type(self) is not type(other):
            return False
        if type(self).get_state is not GSharedObject.get_state:
            return self.get_state() == other.get_state()
        a, b = self.__dict__, other.__dict__
        for key in a.keys() | b.keys():
            if key in _RUNTIME_FIELDS:
                continue
            if key not in a or key not in b or a[key] != b[key]:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        uid = getattr(self, "_g_unique_id", "<unregistered>")
        return f"<{type(self).__name__} id={uid}>"


def validate_shared_class(cls: type) -> None:
    """Raise unless ``cls`` is a usable shared class.

    Checks the three structural requirements: derives from
    GSharedObject, has a no-argument constructor, and overrides
    copy_from.
    """
    if not (isinstance(cls, type) and issubclass(cls, GSharedObject)):
        raise SharedObjectError(
            f"{getattr(cls, '__name__', cls)!r} does not derive from GSharedObject"
        )
    if cls.copy_from is GSharedObject.copy_from:
        raise SharedObjectError(f"{cls.__name__} must override copy_from")
    try:
        probe = cls()
    except TypeError as exc:
        raise SharedObjectError(
            f"{cls.__name__} must have a no-argument constructor"
        ) from exc
    if not isinstance(probe, GSharedObject):  # pragma: no cover - impossible
        raise SharedObjectError(f"{cls.__name__} constructor returned a non-object")
