"""MachineModel tests: numbering, queues, the convergence invariant."""

from repro.core.machine import CompletedEntry, MachineModel, PendingEntry
from repro.core.operations import OpKey, PrimitiveOp
from tests.helpers import Counter


def make_entry(model, op, result=True, at=0.0):
    return PendingEntry(
        key=model.next_op_key(),
        op=op,
        completion=None,
        issue_result=result,
        issued_at=at,
    )


class TestNumbering:
    def test_keys_are_sequential(self):
        model = MachineModel("m01")
        assert model.next_op_key() == OpKey("m01", 1)
        assert model.next_op_key() == OpKey("m01", 2)

    def test_keys_carry_machine_id(self):
        assert MachineModel("m07").next_op_key().machine_id == "m07"


class TestQueues:
    def test_enqueue_and_take(self):
        model = MachineModel("m01")
        op = PrimitiveOp("c1", "increment", (5,))
        entry = make_entry(model, op)
        model.enqueue_pending(entry)
        taken = model.take_pending()
        assert taken == [entry]
        assert model.pending == []

    def test_take_preserves_order(self):
        model = MachineModel("m01")
        op = PrimitiveOp("c1", "increment", (5,))
        entries = [make_entry(model, op) for _ in range(3)]
        for entry in entries:
            model.enqueue_pending(entry)
        assert [e.key.op_number for e in model.take_pending()] == [1, 2, 3]

    def test_completed_bookkeeping(self):
        model = MachineModel("m01")
        op = PrimitiveOp("c1", "increment", (5,))
        model.committed.create("c1", Counter, None)
        assert model.commit(OpKey("m02", 1), op, 1.0) is True
        assert model.completed == [CompletedEntry(OpKey("m02", 1), op, True, 1.0)]
        assert model.committed.get("c1").value == 1
        assert model.op_high_water == {"m02": 1}


class TestConvergenceInvariant:
    def test_holds_when_empty(self):
        model = MachineModel("m01")
        assert model.check_convergence_invariant()

    def test_holds_with_replayed_pending(self):
        model = MachineModel("m01")
        model.committed.create("c1", Counter, None)
        model.guess.refresh_from(model.committed)
        op = PrimitiveOp("c1", "increment", (5,))
        op.execute(model.guess)
        model.enqueue_pending(make_entry(model, op))
        assert model.check_convergence_invariant()

    def test_detects_divergence(self):
        model = MachineModel("m01")
        model.committed.create("c1", Counter, None)
        model.guess.refresh_from(model.committed)
        model.guess.get("c1").value = 42  # mutated without a pending op
        assert not model.check_convergence_invariant()

    def test_quiesced(self):
        model = MachineModel("m01")
        assert model.quiesced()
        model.enqueue_pending(
            make_entry(model, PrimitiveOp("c1", "increment", (5,)))
        )
        assert not model.quiesced()
