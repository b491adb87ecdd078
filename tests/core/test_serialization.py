"""Wire-format tests: op and state encoding."""

import json

import pytest

from repro.core.operations import AtomicOp, CreateObjectOp, OrElseOp, PrimitiveOp
from repro.core.serialization import (
    decode_op,
    decode_state,
    encode_op,
    encode_state,
    registered_type_names,
    resolve_shared_type,
    roundtrip_op,
    shared_type,
)
from repro.core.store import ObjectStore
from repro.errors import SerializationError
from repro.core.shared_object import GSharedObject
from tests.helpers import Counter, Ledger


class TestTypeRegistry:
    def test_registered_types_resolve(self):
        assert resolve_shared_type("Counter") is Counter
        assert resolve_shared_type("Ledger") is Ledger

    def test_unknown_type_raises(self):
        with pytest.raises(SerializationError):
            resolve_shared_type("Nope")

    def test_reregistering_same_class_is_fine(self):
        assert shared_type(Counter) is Counter

    def test_name_collision_rejected(self):
        class Counter(GSharedObject):  # same name, different class
            def __init__(self):
                self.value = 0

            def copy_from(self, src):
                self.value = src.value

        with pytest.raises(SerializationError, match="already registered"):
            shared_type(Counter)

    def test_registry_listing(self):
        assert "Counter" in registered_type_names()


class TestOpEncoding:
    def test_primitive_roundtrip(self):
        op = PrimitiveOp("c1", "increment", (5,))
        back = roundtrip_op(op)
        assert isinstance(back, PrimitiveOp)
        assert back.object_id == "c1"
        assert back.method_name == "increment"
        assert back.args == (5,)

    def test_atomic_roundtrip(self):
        op = AtomicOp(
            [PrimitiveOp("a", "increment", (1,)), PrimitiveOp("b", "increment", (2,))]
        )
        back = roundtrip_op(op)
        assert isinstance(back, AtomicOp)
        assert len(back.children) == 2

    def test_or_else_roundtrip(self):
        op = OrElseOp(
            PrimitiveOp("a", "increment", (1,)), PrimitiveOp("a", "increment", (2,))
        )
        back = roundtrip_op(op)
        assert isinstance(back, OrElseOp)
        assert back.first.args == (1,)

    def test_nested_roundtrip_executes_identically(self):
        op = AtomicOp(
            [
                OrElseOp(
                    PrimitiveOp("c1", "increment", (0,)),  # always fails
                    PrimitiveOp("c1", "increment", (10,)),
                ),
                PrimitiveOp("c1", "increment", (10,)),
            ]
        )
        store_a, store_b = ObjectStore(), ObjectStore()
        store_a.create("c1", Counter, None)
        store_b.create("c1", Counter, None)
        assert op.execute(store_a) is True
        assert roundtrip_op(op).execute(store_b) is True
        assert store_a.state_equal(store_b)

    def test_create_roundtrip(self):
        op = CreateObjectOp("c9", Counter, {"value": 4})
        back = roundtrip_op(op)
        assert isinstance(back, CreateObjectOp)
        assert back.cls is Counter
        assert back.init_state == {"value": 4}

    def test_ops_decoded_from_separate_frames_share_their_names(self):
        # Each replica decodes each committed op from its own JSON and
        # ``model.completed`` keeps it: the strings every operation on
        # an object repeats must be one object, not one per op per node.
        op = PrimitiveOp("obj-7f3a", "increment", (5,))
        a, b = (
            decode_op(json.loads(json.dumps(encode_op(op)))) for _ in range(2)
        )
        assert a is not b
        assert a.object_id is b.object_id is op.object_id
        assert a.method_name is b.method_name is op.method_name
        assert encode_op(a) == encode_op(b) == encode_op(op)
        assert a.args == b.args == (5,)

    def test_operations_carry_no_instance_dict(self):
        leaf = PrimitiveOp("c1", "increment", (1,))
        for op in (
            leaf,
            AtomicOp([leaf]),
            OrElseOp(leaf, leaf),
            CreateObjectOp("c9", Counter, None),
        ):
            assert not hasattr(op, "__dict__")

    def test_unserializable_args_rejected(self):
        op = PrimitiveOp("c1", "increment", (lambda: 1,))
        with pytest.raises(SerializationError):
            encode_op(op)

    def test_malformed_payload_rejected(self):
        with pytest.raises(SerializationError):
            decode_op({"kind": "martian"})
        with pytest.raises(SerializationError):
            decode_op("not a dict")

    def test_decoded_op_is_independent_value(self):
        # The decoded op must not alias the original's mutable args.
        op = PrimitiveOp("c1", "add", ([1, 2],)) if False else PrimitiveOp(
            "c1", "increment", (5,)
        )
        encoded = encode_op(op)
        encoded["args"].append(99)
        assert op.args == (5,)


class TestStateEncoding:
    def test_state_roundtrip(self):
        ledger = Ledger()
        ledger.deposit(10, "x")
        data = encode_state(ledger)
        back = decode_state(data)
        assert isinstance(back, Ledger)
        assert back.state_equal(ledger)

    def test_encode_includes_type_name(self):
        assert encode_state(Counter())["type"] == "Counter"

    def test_decode_unknown_type(self):
        with pytest.raises(SerializationError):
            decode_state({"type": "Martian", "state": {}})
