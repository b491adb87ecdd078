"""Per-machine model state — the (λ, C, sc, P, sg) tuple of section 3.

:class:`MachineModel` is deliberately runtime-free: it owns the two
replica stores, the pending and completed operation sequences, and the
operation counter, but knows nothing about meshes or synchronization.
The synchronizer (:mod:`repro.runtime`) drives it, and the semantics
oracle (:mod:`repro.semantics`) checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.operations import OpKey, SharedOp
from repro.core.store import ObjectStore

#: Completion routines: called with the commit-time boolean result.
CompletionFn = Callable[[bool], None]


@dataclass(slots=True)
class PendingEntry:
    """One entry of the pending sequence P.

    Carries everything needed to commit the operation later: its global
    key, the operation tree, the completion routine (run on the issuing
    machine only), and bookkeeping used by the evaluation (issue-time
    result and virtual timestamps).
    """

    key: OpKey
    op: SharedOp
    completion: CompletionFn | None
    issue_result: bool
    issued_at: float
    executions: int = 1  # issue counts as the first execution


@dataclass(slots=True)
class CompletedEntry:
    """One entry of the completed sequence C (identical on all machines)."""

    key: OpKey
    op: SharedOp
    result: bool
    committed_at: float


@dataclass
class MachineModel:
    """State of one machine: local state λ, C, sc, P, sg."""

    machine_id: str
    local_state: dict[str, Any] = field(default_factory=dict)
    committed: ObjectStore = field(default_factory=lambda: ObjectStore("committed"))
    guess: ObjectStore = field(default_factory=lambda: ObjectStore("guess"))
    completed: list[CompletedEntry] = field(default_factory=list)
    pending: list[PendingEntry] = field(default_factory=list)
    _op_counter: int = 0
    #: highest committed op number seen per machine — survives C being
    #: truncated to a suffix, so the master can tell a rejoining machine
    #: the numbering floor it must not reuse (Welcome.op_floor)
    op_high_water: dict[str, int] = field(default_factory=dict, compare=False)

    # -- operation numbering ---------------------------------------------------

    def next_op_key(self) -> OpKey:
        """Mint the next (machineID, operation number) pair."""
        self._op_counter += 1
        return OpKey(self.machine_id, self._op_counter)

    # -- pending queue ---------------------------------------------------------

    def enqueue_pending(self, entry: PendingEntry) -> None:
        self.pending.append(entry)

    def take_pending(self) -> list[PendingEntry]:
        """Remove and return all pending entries (the flush step)."""
        taken = self.pending
        self.pending = []
        return taken

    def replay_pending(self) -> list[PendingEntry]:
        """Rebuild the guess on a freshly refreshed ``sg``: re-apply P.

        Results are ignored, exactly like the semantics' ``[o]``
        notation.  Returns the replayed entries so the runtime can
        account for the executions.
        """
        for entry in self.pending:
            self.guess.run(entry.op)
            entry.executions += 1
        return self.pending

    # -- completed sequence ------------------------------------------------------

    def commit(self, key: OpKey, op: SharedOp, committed_at: float) -> bool:
        """Rule R3 on this machine: execute ``op`` on ``sc``, append to C.

        Every route by which an operation reaches this replica — a
        live round, WAL recovery, a Welcome backlog — commits through
        here, and C records the result *this* execution computed.
        """
        result = self.committed.run(op)
        self.record_completed(CompletedEntry(key, op, result, committed_at))
        return result

    def record_completed(self, entry: CompletedEntry) -> None:
        self.completed.append(entry)
        if entry.key.op_number > self.op_high_water.get(entry.key.machine_id, 0):
            self.op_high_water[entry.key.machine_id] = entry.key.op_number

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    # -- invariant checks (used by tests and the model checker) -----------------

    def check_convergence_invariant(self) -> bool:
        """Check the paper's invariant ``[P](sc) = sg``.

        Replays the pending sequence on a scratch copy of the committed
        store and compares against the guesstimated store.  Operation
        results are ignored during replay, exactly like the semantics'
        ``[o]`` notation.
        """
        scratch = ObjectStore("scratch")
        scratch.refresh_from(self.committed)
        for entry in self.pending:
            entry.op.execute(scratch)
        return scratch.state_equal(self.guess)

    def quiesced(self) -> bool:
        """True when no operations are pending on this machine."""
        return not self.pending
