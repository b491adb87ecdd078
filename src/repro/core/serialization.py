"""Wire format for operations and object state.

The simulated mesh could pass Python objects by reference, but real
transports cannot — and sharing mutable operation objects between
simulated machines would silently break replica isolation.  Everything
that crosses the mesh is therefore encoded to plain JSON-compatible
values and decoded on arrival.

Shared classes announce themselves to the :func:`shared_type` registry
(a decorator) so type names in the wire format can be resolved back to
classes on any machine.
"""

from __future__ import annotations

import json
from typing import Any, Type

from repro.errors import SerializationError
from repro.core.operations import (
    AtomicOp,
    CreateObjectOp,
    OrElseOp,
    PrimitiveOp,
    SharedOp,
)
from repro.core.shared_object import _RUNTIME_FIELDS, GSharedObject
from repro.core.shared_object import validate_shared_class

_TYPE_REGISTRY: dict[str, Type[GSharedObject]] = {}


def shared_type(cls: Type[GSharedObject]) -> Type[GSharedObject]:
    """Class decorator: register ``cls`` for wire-format resolution.

    Also validates the structural requirements (GSharedObject base,
    no-arg constructor, copy_from override) at import time, which turns
    a class of late failures into immediate ones.
    """
    validate_shared_class(cls)
    existing = _TYPE_REGISTRY.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise SerializationError(
            f"shared type name {cls.__name__!r} already registered by a "
            "different class"
        )
    _TYPE_REGISTRY[cls.__name__] = cls
    return cls


def resolve_shared_type(type_name: str) -> Type[GSharedObject]:
    """Look up a registered shared class by name."""
    try:
        return _TYPE_REGISTRY[type_name]
    except KeyError:
        raise SerializationError(
            f"shared type {type_name!r} is not registered; decorate the "
            "class with @shared_type"
        ) from None


def registered_type_names() -> list[str]:
    return sorted(_TYPE_REGISTRY)


# ---------------------------------------------------------------------------
# Operation encoding
# ---------------------------------------------------------------------------


def encode_op(op: SharedOp) -> dict[str, Any]:
    """Encode an operation tree to plain dicts/lists/scalars."""
    if isinstance(op, PrimitiveOp):
        return {
            "kind": "primitive",
            "object": op.object_id,
            "method": op.method_name,
            "args": _check_plain(list(op.args)),
        }
    if isinstance(op, AtomicOp):
        return {"kind": "atomic", "children": [encode_op(c) for c in op.children]}
    if isinstance(op, OrElseOp):
        return {
            "kind": "orelse",
            "first": encode_op(op.first),
            "second": encode_op(op.second),
        }
    if isinstance(op, CreateObjectOp):
        return {
            "kind": "create",
            "object": op.object_id,
            "type": op.cls.__name__,
            "state": _check_plain(op.init_state),
        }
    raise SerializationError(f"cannot encode operation of type {type(op).__name__}")


def decode_op(data: dict[str, Any]) -> SharedOp:
    """Decode the output of :func:`encode_op`."""
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise SerializationError(f"malformed operation payload: {data!r}") from None
    if kind == "primitive":
        return PrimitiveOp(data["object"], data["method"], tuple(data["args"]))
    if kind == "atomic":
        return AtomicOp([decode_op(c) for c in data["children"]])
    if kind == "orelse":
        return OrElseOp(decode_op(data["first"]), decode_op(data["second"]))
    if kind == "create":
        cls = resolve_shared_type(data["type"])
        return CreateObjectOp(data["object"], cls, data["state"])
    raise SerializationError(f"unknown operation kind {kind!r}")


def roundtrip_op(op: SharedOp) -> SharedOp:
    """Encode then decode — what the mesh effectively does to every op."""
    return decode_op(encode_op(op))


# ---------------------------------------------------------------------------
# Value hygiene
# ---------------------------------------------------------------------------

_PLAIN_SCALARS = (str, int, float, bool, type(None))


def _check_plain(value: Any) -> Any:
    """Verify ``value`` is JSON-compatible; returns it unchanged.

    Operation arguments and object state must survive a real transport,
    so reject anything that would not (functions, arbitrary objects,
    sets, ...).  ``json.dumps`` is the exact test a real wire imposes.
    """
    if isinstance(value, _PLAIN_SCALARS):
        return value
    try:
        json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"value {value!r} is not serializable for transport"
        ) from exc
    return value


def encode_state(obj: GSharedObject) -> dict[str, Any]:
    """Encode a shared object's state for snapshot transfer."""
    state = obj.get_state()
    _check_plain(state)
    return {"type": type(obj).__name__, "state": state}


def dumps_state(obj: GSharedObject, fields: dict[str, Any]) -> str:
    """``fields`` plus the object's ``type`` and ``state`` as JSON text,
    in one ``json.dumps`` (the plainness check) and without
    :func:`encode_state`'s copy: the text is done before the object can
    change, so the default ``get_state`` yields to the live fields."""
    if type(obj).get_state is GSharedObject.get_state:
        state = {k: v for k, v in obj.__dict__.items() if k not in _RUNTIME_FIELDS}
    else:
        state = obj.get_state()
    document = {**fields, "type": type(obj).__name__, "state": state}
    try:
        return json.dumps(document, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{type(obj).__name__} state is not plain") from exc


def decode_state(data: dict[str, Any]) -> GSharedObject:
    """Materialize a shared object from :func:`encode_state` output."""
    cls = resolve_shared_type(data["type"])
    obj = cls()
    obj.set_state(data["state"])
    return obj
