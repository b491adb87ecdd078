"""Registry-based deterministic serializer (JSON lines).

Everything the durability layer writes — and everything a future real
transport would ship — is a frozen dataclass of plain values.  This
module maps each registered class to a canonical JSON object::

    {"t": "<type name>", "d": {<field>: <value>, ...}}

encoded with sorted keys and minimal separators, so the same value
always produces the same bytes (CRC framing in the WAL depends on
this).  JSON cannot represent tuples, so each registered class may
declare per-field *revivers* that rebuild tuples (or other plain
shapes) on decode; round-tripping any registered value through
:func:`encode_line`/:func:`decode_line` is the identity.

All protocol messages from :mod:`repro.runtime.messages` are registered
here at import time; storage records register themselves in
:mod:`repro.storage.store`.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Type

from repro.errors import SerializationError
from repro.runtime import messages as msg

#: type name -> (class, {field name: reviver})
_WIRE_REGISTRY: dict[str, tuple[type, dict[str, Callable[[Any], Any]]]] = {}

#: type name -> tuple of field names, resolved once per class — the
#: hot encode path runs per message per peer, so the per-call
#: ``dataclasses.fields`` walk (descriptor lookups + tuple build) is
#: measurable; see docs/PROFILING.md.
_FIELD_CACHE: dict[str, tuple[str, ...]] = {}


def register_wire_type(
    cls: Type | None = None, **revivers: Callable[[Any], Any]
):
    """Register a dataclass for wire encoding.

    Usable as a plain call or a decorator.  ``revivers`` maps field
    names to functions applied on decode (e.g. ``order=tuple`` to turn
    the JSON list back into the tuple the dataclass was built with).
    """

    def _register(target: Type) -> Type:
        if not is_dataclass(target):
            raise SerializationError(
                f"wire types must be dataclasses, got {target.__name__}"
            )
        field_names = {f.name for f in fields(target)}
        unknown = set(revivers) - field_names
        if unknown:
            raise SerializationError(
                f"revivers for unknown fields {sorted(unknown)} on "
                f"{target.__name__}"
            )
        existing = _WIRE_REGISTRY.get(target.__name__)
        if existing is not None and existing[0] is not target:
            raise SerializationError(
                f"wire type name {target.__name__!r} already registered by "
                "a different class"
            )
        _WIRE_REGISTRY[target.__name__] = (target, dict(revivers))
        return target

    if cls is not None:
        return _register(cls)
    return _register


def registered_wire_types() -> list[str]:
    return sorted(_WIRE_REGISTRY)


def encode_wire(obj: Any) -> dict[str, Any]:
    """Encode a registered dataclass instance to a plain dict."""
    name = type(obj).__name__
    entry = _WIRE_REGISTRY.get(name)
    if entry is None or not isinstance(obj, entry[0]):
        raise SerializationError(
            f"{name!r} is not a registered wire type; call register_wire_type"
        )
    names = _FIELD_CACHE.get(name)
    if names is None:
        names = tuple(f.name for f in fields(entry[0]))
        _FIELD_CACHE[name] = names
    data = {field_name: getattr(obj, field_name) for field_name in names}
    return {"t": name, "d": data}


def decode_wire(payload: dict[str, Any]) -> Any:
    """Decode the output of :func:`encode_wire` back to an instance."""
    try:
        name = payload["t"]
        data = payload["d"]
    except (TypeError, KeyError):
        raise SerializationError(f"malformed wire payload: {payload!r}") from None
    if not isinstance(data, dict):
        raise SerializationError(f"malformed wire payload: {payload!r}")
    entry = _WIRE_REGISTRY.get(name)
    if entry is None:
        raise SerializationError(f"unknown wire type {name!r}")
    cls, revivers = entry
    if revivers:
        # Only classes with revivers need the defensive copy; for the
        # rest the payload dict is consumed as-is (it is always fresh
        # from json.loads on the decode path).
        data = dict(data)
        for field_name, revive in revivers.items():
            if field_name in data:
                data[field_name] = revive(data[field_name])
    try:
        return cls(**data)
    except TypeError as exc:
        raise SerializationError(
            f"cannot rebuild {name} from wire payload: {exc}"
        ) from None


def encode_line(obj: Any) -> bytes:
    """One canonical JSON line (newline-terminated UTF-8 bytes)."""
    try:
        text = json.dumps(
            encode_wire(obj), sort_keys=True, separators=(",", ":")
        )
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"value of type {type(obj).__name__} is not JSON-encodable: {exc}"
        ) from None
    return text.encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Any:
    """Inverse of :func:`encode_line`."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"malformed wire line: {exc}") from None
    return decode_wire(payload)


# ---------------------------------------------------------------------------
# Revivers for the protocol message fields JSON flattens
# ---------------------------------------------------------------------------


def _tuple_of_strings(value: list) -> tuple[str, ...]:
    return tuple(value)


def _tuple_of_pairs(value: list) -> tuple[tuple, ...]:
    return tuple(tuple(item) for item in value)


def _snapshot_dict(value: dict) -> dict:
    """Welcome snapshots map id -> (type name, state dict)."""
    return {unique_id: tuple(entry) for unique_id, entry in value.items()}


def _optional_pair(value: list | None) -> tuple | None:
    """Hello.recovered_tail: JSON list back to the OpKey pair (or None)."""
    return None if value is None else tuple(value)


register_wire_type(msg.StartSync, order=_tuple_of_strings)
register_wire_type(msg.YourTurn, order=_tuple_of_strings)
register_wire_type(msg.FlushDone)
register_wire_type(
    msg.BeginApply, order=_tuple_of_strings, counts=_tuple_of_pairs
)
register_wire_type(msg.ApplyAck)
register_wire_type(msg.ResendOpsRequest, have=_tuple_of_pairs)
register_wire_type(msg.SyncComplete)
register_wire_type(msg.WorkReady)
register_wire_type(msg.Hello, recovered_tail=_optional_pair)
register_wire_type(msg.Welcome, snapshot=_snapshot_dict, backlog=_tuple_of_pairs)
register_wire_type(msg.WelcomeAck)
register_wire_type(msg.Goodbye)
register_wire_type(msg.ParticipantRemoved)
register_wire_type(msg.Restart)


def _batch_ops(value: list) -> tuple[tuple, ...]:
    """OpBatch.ops: JSON lists back to ((op_number, payload), ...)."""
    return tuple((op_number, payload) for op_number, payload in value)


register_wire_type(msg.OpBatch, ops=_batch_ops)
