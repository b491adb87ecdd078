"""Unit tests for the deterministic wire codec."""

import pytest

from repro.errors import SerializationError
from repro.runtime import messages as msg
from repro.storage.codec import (
    decode_line,
    decode_wire,
    encode_line,
    encode_wire,
    register_wire_type,
    registered_wire_types,
)
from repro.storage.store import CommitRecord


class TestRoundTrips:
    def test_simple_message(self):
        original = msg.FlushDone(7, "m03", 12)
        assert decode_line(encode_line(original)) == original

    def test_tuple_fields_survive(self):
        original = msg.StartSync(1, ("m01", "m02", "m03"), parallel=True)
        rebuilt = decode_line(encode_line(original))
        assert rebuilt == original
        assert isinstance(rebuilt.order, tuple)

    def test_nested_tuples_survive(self):
        original = msg.BeginApply(4, ("m01", "m02"), (("m01", 3), ("m02", 0)))
        rebuilt = decode_line(encode_line(original))
        assert rebuilt == original
        assert all(isinstance(pair, tuple) for pair in rebuilt.counts)

    def test_welcome_snapshot_and_backlog(self):
        original = msg.Welcome(
            machine_id="m02",
            master_id="m01",
            snapshot={"obj1": ("Counter", {"value": 3})},
            completed_count=5,
            backlog_from=3,
            backlog=(
                ("m01", 1, {"kind": "primitive", "object": "obj1"}, True, 1.5),
                ("m02", 1, {"kind": "primitive", "object": "obj1"}, False, 2.0),
            ),
        )
        rebuilt = decode_line(encode_line(original))
        assert rebuilt == original
        assert isinstance(rebuilt.snapshot["obj1"], tuple)
        assert isinstance(rebuilt.backlog[0], tuple)

    def test_commit_record(self):
        original = CommitRecord(
            round_id=9,
            entries=(("m01", 4, {"kind": "primitive"}, True, 3.25),),
            completed_after=17,
        )
        assert decode_line(encode_line(original)) == original

    def test_op_message_payload_dict(self):
        original = msg.OpBatch(
            2, "m01", 0, 1, ((5, {"kind": "atomic", "children": []}),)
        )
        assert decode_line(encode_line(original)) == original


class TestDeterminism:
    def test_same_value_same_bytes(self):
        a = msg.BeginApply(4, ("m01", "m02"), (("m01", 3), ("m02", 0)))
        b = msg.BeginApply(4, ("m01", "m02"), (("m01", 3), ("m02", 0)))
        assert encode_line(a) == encode_line(b)

    def test_lines_are_newline_terminated_single_lines(self):
        line = encode_line(msg.SyncComplete(3))
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1


class TestRegistry:
    def test_every_protocol_message_is_registered(self):
        registered = set(registered_wire_types())
        for name in (
            "StartSync", "YourTurn", "FlushDone", "BeginApply", "ApplyAck",
            "ResendOpsRequest", "SyncComplete", "WorkReady", "Hello", "Welcome",
            "WelcomeAck", "Goodbye", "ParticipantRemoved", "Restart",
            "OpBatch", "CommitRecord",
        ):
            assert name in registered

    def test_unregistered_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_wire(object())

    def test_unknown_type_name_rejected(self):
        with pytest.raises(SerializationError):
            decode_wire({"t": "NoSuchThing", "d": {}})

    def test_malformed_payload_rejected(self):
        with pytest.raises(SerializationError):
            decode_wire({"nope": 1})
        with pytest.raises(SerializationError):
            decode_line(b"not json at all \xff")

    def test_non_dataclass_rejected(self):
        with pytest.raises(SerializationError):
            register_wire_type(dict)

    def test_reviver_for_unknown_field_rejected(self):
        from dataclasses import dataclass

        with pytest.raises(SerializationError):

            @dataclass(frozen=True)
            class Oops:
                x: int

            register_wire_type(Oops, nope=tuple)
