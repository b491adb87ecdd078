"""Protocol message value semantics (wire-safety guarantees)."""

from dataclasses import FrozenInstanceError

import pytest

from repro.runtime import messages as msg


class TestImmutability:
    def test_messages_are_frozen(self):
        start = msg.StartSync(1, ("m01", "m02"))
        with pytest.raises(FrozenInstanceError):
            start.round_id = 2  # type: ignore[misc]

    def test_value_equality(self):
        a = msg.FlushDone(3, "m02", 5)
        b = msg.FlushDone(3, "m02", 5)
        assert a == b
        assert a != msg.FlushDone(3, "m02", 6)

    def test_start_sync_defaults_to_serial(self):
        assert msg.StartSync(1, ("m01",)).parallel is False

    def test_begin_apply_counts_are_tuples(self):
        begin = msg.BeginApply(1, ("m01", "m02"), (("m01", 2), ("m02", 0)))
        assert dict(begin.counts) == {"m01": 2, "m02": 0}

    def test_op_message_carries_the_paper_triple(self):
        """The operations channel's one frame: (machineID, opnumber, op)."""
        payload = {"kind": "primitive", "object": "x", "method": "f", "args": []}
        batch = msg.OpBatch(4, "m03", 0, 1, ((7, payload),))
        assert (batch.machine_id, *batch.ops[0]) == ("m03", 7, payload)

    def test_welcome_equality_ignores_nothing(self):
        a = msg.Welcome("m04", "m01", {"x": ("T", {})}, 3)
        b = msg.Welcome("m04", "m01", {"x": ("T", {})}, 3)
        assert a == b


class TestRecoveryMessages:
    def test_participant_removed_drop_flag(self):
        removed = msg.ParticipantRemoved(2, "m03", drop_ops=True)
        assert removed.drop_ops
        assert msg.ParticipantRemoved(2, "m03", drop_ops=False) != removed

    def test_resend_request_have_is_hashable_shape(self):
        request = msg.ResendOpsRequest(2, "m02", (("m01", 1), ("m03", 2)))
        assert ("m01", 1) in request.have
