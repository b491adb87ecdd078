"""Protocol messages exchanged on the Signals and Operations meshes.

All messages are frozen dataclasses of plain values (op payloads are the
encoded wire format from :mod:`repro.core.serialization`), so they are
safe to share across simulated machines and trivially portable to a
real transport.

Signals channel (control plane):

* :class:`StartSync` / :class:`YourTurn` / :class:`FlushDone` — stage 1,
  AddUpdatesToMesh (everyone at once on ``StartSync``, or the paper's
  serial master-granted turns).
* :class:`BeginApply` / :class:`ApplyAck` / :class:`ResendOpsRequest` —
  stage 2, ApplyUpdatesFromMesh.
* :class:`SyncComplete` — stage 3, FlagCompletion.
* :class:`WorkReady` — a machine holding operations wakes an idle
  master (concurrent collection).
* :class:`Hello` / :class:`Welcome` / :class:`WelcomeAck` /
  :class:`Goodbye` — membership.
* :class:`ParticipantRemoved` / :class:`Restart` — fault recovery.

A signal goes to whoever reads it: the master's announcements and
``ResendOpsRequest`` / ``Hello`` / ``Goodbye`` are broadcasts, while
``FlushDone``, ``ApplyAck`` and ``WorkReady`` — which only the master
consumes — are sent to the master alone.

Operations channel (data plane):

* :class:`OpBatch` — a size-capped frame of flushed operations from
  one machine, each the paper's "(machineID, operation number,
  operation)" triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Stage 1: AddUpdatesToMesh
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StartSync:
    """Master → all: a synchronization round begins; ``order`` is the
    turn order (master first).  With ``parallel`` set (the section-9
    extension) every machine flushes immediately instead of waiting for
    its turn."""

    round_id: int
    order: tuple[str, ...]
    parallel: bool = False


@dataclass(frozen=True, slots=True)
class YourTurn:
    """Master → one machine: flush your pending operations now.

    Carries the order so a machine that missed StartSync can still
    bootstrap its round state (this *is* the "resent signal" of the
    paper's recovery story).
    """

    round_id: int
    machine_id: str
    order: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class FlushDone:
    """One machine → master: my flush finished; I sent ``count`` operations."""

    round_id: int
    machine_id: str
    count: int


# ---------------------------------------------------------------------------
# Stage 2: ApplyUpdatesFromMesh
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BeginApply:
    """Master → all: stage 1 done; apply.  ``counts`` maps every
    participating machine to the number of operations it flushed, which
    tells receivers exactly what to wait for."""

    round_id: int
    order: tuple[str, ...]
    counts: tuple[tuple[str, int], ...]  # sorted (machine_id, count) pairs


@dataclass(frozen=True, slots=True)
class ApplyAck:
    """One machine → master: I applied (and logged) every operation.
    ``pending`` says I already hold operations for the next round."""

    round_id: int
    machine_id: str
    pending: bool = False


@dataclass(frozen=True, slots=True)
class ResendOpsRequest:
    """A machine missing operations asks their origins to resend.

    ``have`` lists the (machine_id, op_number) keys already received so
    each origin can resend exactly the complement of its flush.
    """

    round_id: int
    machine_id: str
    have: tuple[tuple[str, int], ...]


# ---------------------------------------------------------------------------
# Stage 3: FlagCompletion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SyncComplete:
    """Master → all: the round is over.  ``idle`` (concurrent
    collection only) says no next round is scheduled: a machine that
    holds or issues operations must wake the master with
    :class:`WorkReady`."""

    round_id: int
    idle: bool = False


@dataclass(frozen=True, slots=True)
class WorkReady:
    """One machine → master: I hold operations; start a round."""

    machine_id: str


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Hello:
    """A machine entering the system announces itself.

    ``recovered_count`` is set by a machine that rebuilt committed
    state from its durable log (snapshot + WAL replay): the global |C|
    it already holds.  The master then welcomes it with just the
    committed backlog past that point instead of a full state snapshot.
    ``None`` means no durable state — the ordinary join.

    ``recovered_tail`` is the ``(machine_id, op_number)`` key of the
    last entry in the recovered completed sequence (``None`` when the
    recovery replayed no WAL entries).  A count alone cannot prove the
    recovered history is a prefix of the global order — a machine that
    logged rounds out of order holds the right *number* of entries in
    the wrong positions — so the master cross-checks the tail against
    its own completed sequence before serving a delta backlog, and
    falls back to a full snapshot on mismatch.
    """

    machine_id: str
    recovered_count: int | None = None
    recovered_tail: tuple | None = None


@dataclass(frozen=True, slots=True)
class Welcome:
    """Master → new machine: the snapshot needed to initialize.

    ``snapshot`` maps unique object id → encoded state (type name +
    state dict); ``completed_count`` is the global |C| at the snapshot
    point, used to align committed-sequence comparisons.

    When the joiner announced durable recovered state (``Hello`` with
    ``recovered_count``) that the master can serve, ``backlog_from`` is
    that count and ``backlog`` carries the committed operations from
    there to ``completed_count`` — each entry a
    ``(machine_id, op_number, encoded op, result, committed_at)``
    tuple — and ``snapshot`` is empty: the joiner replays the delta on
    top of its recovered state instead of discarding it.
    """

    machine_id: str
    master_id: str
    snapshot: dict = field(hash=False)
    completed_count: int = 0
    backlog_from: int | None = None
    backlog: tuple = field(default=(), hash=False)
    #: highest op number the joiner has ever had committed — it must
    #: resume numbering above this or reuse keys (a crash can wipe the
    #: joiner's counter while its last flush commits cluster-side)
    op_floor: int = 0


@dataclass(frozen=True, slots=True)
class WelcomeAck:
    """New machine → master: initialized; include me from the next round."""

    machine_id: str


@dataclass(frozen=True, slots=True)
class Goodbye:
    """A machine leaving the system (graceful)."""

    machine_id: str


# ---------------------------------------------------------------------------
# Fault recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ParticipantRemoved:
    """Master → all: ``machine_id`` is out of round ``round_id``.

    ``drop_ops`` tells receivers to discard any operations already
    received from that machine this round (true only for stage-1
    removals, where the machine never confirmed its flush).
    """

    round_id: int
    machine_id: str
    drop_ops: bool


@dataclass(frozen=True, slots=True)
class Restart:
    """Master → one machine: shut down and re-enter the system."""

    machine_id: str


# ---------------------------------------------------------------------------
# Operations channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OpBatch:
    """A size-capped frame of flushed operations from one machine.

    ``ops`` is a tuple of ``(op_number, encoded op)`` pairs, all
    originated by ``machine_id`` — with the round id, the paper's
    (machineID, opnumber, op) triples, amortizing per-message overhead
    over a frame.  ``seq`` / ``total`` number the frames of one flush
    so receivers and the deterministic ``(machine_id, seq)`` arrival
    order are stable; the consolidated list is still applied in global
    ``(machineID, opnumber)`` order.
    """

    round_id: int
    machine_id: str
    seq: int
    total: int
    ops: tuple = field(hash=False)  # tuple[(op_number, payload dict), ...]
