"""Invariant probes: the oracles a fuzz run is judged against.

Three layers, from cheapest to deepest:

* :func:`checkpoint_probe` — valid at *any* time: the committed
  sequences of all clean nodes agree position-for-position on the
  global positions they share (commits happen in one global order, so
  even mid-round no two machines may disagree on a committed slot).
* :func:`quiescence_probe` — valid at quiescent points: the runtime's
  own invariant checks, the formal invariants of
  :mod:`repro.semantics.invariants` over a projection of the live
  system, and the full :func:`repro.model.simulation_relation.replay_check`
  replay against the reference executor.
* :func:`storage_probe` — after every recovery and at the end: for
  each durably-backed node, recovering ``snapshot + WAL`` from its
  store and replaying must reproduce exactly the committed state and
  global position the live node holds.

The workload zoo adds four *convergence* probes, each tuned to one
workload's conflict structure but safe to run in any scenario:

* :func:`guess_divergence_probe` — pairwise bound on guess-state
  divergence: two active machines may disagree on an object only while
  one of them has unsettled activity on it (pending or in-flight
  operations, an unrefreshed apply, or commits the other has not
  applied yet).  Objects outside that set must be byte-identical.
* :func:`list_oracle_probe` — linearization check: the committed edit
  stream of every :class:`~repro.apps.listdoc.SharedDoc` is replayed
  against an independent pure-Python oracle; every committed result
  and the final document must match.
* :func:`counter_conservation_probe` — flow check: the counter sum of
  every :class:`~repro.apps.presence.PresenceCounters` equals the net
  of its successfully committed bumps (transfers only move value).
* :func:`atomic_probe` — all-or-nothing check: every
  :class:`~repro.apps.marketplace.Marketplace` replica satisfies the
  money-conservation law ``sum(balances) == minted`` and item
  uniqueness — the laws a partially-applied Atomic breaks first.

Two *effect* probes close the loop with glint's static effect engine
(:mod:`repro.analysis.effects`), replaying the committed stream on
fresh local replicas:

* :func:`footprint_probe` — every committed primitive op's *observed*
  dirty attribute set must be a subset of its statically inferred
  write footprint (a write outside the footprint is exactly the kind
  that dodges ``mark_dirty`` and GL006).
* :func:`commute_probe` — adjacent committed pairs of runtime
  ``@commutative`` operations on the same object are re-executed in
  both orders; final public state and both results must agree.

Each probe returns a list of human-readable violation strings (empty =
all invariants hold), so the runner can aggregate across probes without
aborting mid-scenario.
"""

from __future__ import annotations

import itertools
import json
from typing import TYPE_CHECKING

from repro.apps.listdoc import SharedDoc
from repro.apps.marketplace import Marketplace
from repro.apps.presence import PresenceCounters
from repro.core.operations import AtomicOp, CreateObjectOp, PrimitiveOp, SharedOp
from repro.errors import GuesstimateError
from repro.model.simulation_relation import replay_check
from repro.semantics import invariants as formal
from repro.semantics.state import AbstractMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.node import GuesstimateNode
    from repro.runtime.system import DistributedSystem


def _aligned_completed(node: "GuesstimateNode") -> dict[int, tuple[str, bool]]:
    """Global position -> (op key, result) for the suffix this node holds."""
    return {
        node.completed_offset + index: (str(entry.key), bool(entry.result))
        for index, entry in enumerate(node.model.completed)
    }


def checkpoint_probe(system: "DistributedSystem") -> list[str]:
    """Mid-run committed-prefix agreement (safe at any simulated time)."""
    nodes = [
        node
        for node in system.nodes.values()
        if node.state in ("active", "offline")
    ]
    if len(nodes) < 2:
        return []
    violations = []
    merged: dict[int, tuple[str, tuple[str, bool]]] = {}
    for node in nodes:
        for position, entry in _aligned_completed(node).items():
            if position in merged:
                holder, reference = merged[position]
                if entry != reference:
                    violations.append(
                        "committed-prefix disagreement at global position "
                        f"{position}: {holder} has {reference}, "
                        f"{node.machine_id} has {entry}"
                    )
            else:
                merged[position] = (node.machine_id, entry)
    return violations


def _canonical_state(store) -> str:
    """A shared store as one comparable scalar (canonical JSON)."""
    return json.dumps(store.snapshot_states(), sort_keys=True)


def _project_abstract(system: "DistributedSystem") -> tuple[AbstractMachine, ...] | None:
    """Project the quiesced runtime onto the formal state space.

    At quiescence every pending queue is empty, so each machine is
    ``(λ, C, sc, (), sg)`` with sc/sg rendered as canonical JSON.  The
    global completed prefix a late joiner missed is filled in from a
    full-history node; with no full-history node the projection is
    undefined and we skip (replay_check reports that case itself).
    """
    nodes = system.active_nodes()
    full = [node for node in nodes if node.completed_offset == 0]
    if not nodes or not full:
        return None
    reference = [
        (str(entry.key), bool(entry.result)) for entry in full[0].model.completed
    ]
    machines = []
    for node in nodes:
        own = [
            (str(entry.key), bool(entry.result)) for entry in node.model.completed
        ]
        completed = tuple(reference[: node.completed_offset] + own)
        machines.append(
            AbstractMachine(
                lam=(node.machine_id,),
                completed=completed,
                sc=_canonical_state(node.model.committed),
                pending=(),
                sg=_canonical_state(node.model.guess),
            )
        )
    return tuple(machines)


def quiescence_probe(system: "DistributedSystem") -> list[str]:
    """All paper invariants at a quiescent point (deep, three layers)."""
    violations = []
    if not system.quiesced():
        return ["quiescence_probe called on a non-quiescent system"]

    try:
        system.check_all_invariants()
    except GuesstimateError as exc:
        violations.append(f"runtime invariant: {exc}")

    state = _project_abstract(system)
    if state is not None:
        violations.extend(
            f"formal invariant: {name}" for name in formal.check_all(state)
        )

    try:
        replay_check(system)
    except GuesstimateError as exc:
        violations.append(f"simulation relation: {exc}")

    return violations


def storage_probe(system: "DistributedSystem") -> list[str]:
    """Durable state must replay to exactly the live committed state."""
    violations = []
    for node in system.nodes.values():
        if node.state not in ("active", "offline"):
            continue
        try:
            recovered = node.storage.recover()
        except GuesstimateError as exc:  # pragma: no cover - corrupt store
            violations.append(f"storage recover failed on {node.machine_id}: {exc}")
            continue
        if recovered is None:
            continue  # durability off for this node
        rebuilt = node._rebuild_from_storage(recovered)
        if not rebuilt.committed.state_equal(node.model.committed):
            violations.append(
                f"storage replay of {node.machine_id} does not reproduce "
                "its committed state"
            )
        durable_position = recovered.base_offset + rebuilt.completed_count
        live_position = node.completed_offset + node.model.completed_count
        if durable_position != live_position:
            violations.append(
                f"storage replay of {node.machine_id} stops at global "
                f"position {durable_position}, live node is at {live_position}"
            )
    return violations


# ---------------------------------------------------------------------------
# Workload-zoo convergence probes
# ---------------------------------------------------------------------------


def _unsettled_ids(node: "GuesstimateNode") -> set[str]:
    """Objects on which ``node``'s guess may legitimately lead or lag:
    targets of pending and in-flight operations, plus applied rounds
    whose guess refresh has not run yet (the apply/refresh callback
    gap)."""
    ids = set(node.synchronizer.refresh_backlog)
    for entry in node.model.pending:
        ids |= entry.op.object_ids()
    for entry in node.synchronizer.in_flight.values():
        ids |= entry.op.object_ids()
    return ids


def guess_divergence_probe(system: "DistributedSystem") -> list[str]:
    """Pairwise guess-state divergence bound (safe at any time).

    For every pair of *active* machines, an object the two guess stores
    disagree on must be explained by unsettled activity: one side has
    pending/in-flight/unrefreshed operations touching it, or holds
    commits past the pair's common global position.  Anything else is a
    guess replica that silently drifted — the bug class the per-round
    refresh oracle can only see on the node it runs on, never *across*
    machines.
    """
    nodes = [node for node in system.nodes.values() if node.state == "active"]
    if len(nodes) < 2:
        return []
    snapshots = {
        node.machine_id: node.model.guess.snapshot_states() for node in nodes
    }
    unsettled = {node.machine_id: _unsettled_ids(node) for node in nodes}
    position = {
        node.machine_id: node.completed_offset + node.model.completed_count
        for node in nodes
    }
    # Object ids each global commit position touched, from every node
    # that holds the entry: a node welcomed by snapshot holds none for
    # the commits its snapshot covers, though its state reflects them.
    touched: dict[int, set[str]] = {}
    for node in nodes:
        for index, entry in enumerate(node.model.completed):
            touched.setdefault(node.completed_offset + index, entry.op.object_ids())
    violations = []
    for left, right in itertools.combinations(nodes, 2):
        allowed = unsettled[left.machine_id] | unsettled[right.machine_id]
        common = min(position[left.machine_id], position[right.machine_id])
        ahead = max(position[left.machine_id], position[right.machine_id])
        for index in range(common, ahead):
            allowed |= touched.get(index, set())
        left_snap = snapshots[left.machine_id]
        right_snap = snapshots[right.machine_id]
        for uid in sorted(set(left_snap) | set(right_snap)):
            if uid in allowed:
                continue
            if left_snap.get(uid) != right_snap.get(uid):
                violations.append(
                    f"guess divergence on {uid}: {left.machine_id} and "
                    f"{right.machine_id} disagree with no pending, in-flight, "
                    "unrefreshed or unshared-commit activity on it"
                )
    return violations


class _DocOracle:
    """Pure-Python mirror of :class:`SharedDoc` (no contracts, no
    stores): the independent implementation the committed edit stream
    is linearized against."""

    def __init__(self):
        self.lines: list[list[str]] = []
        self.line_limit = 400

    @staticmethod
    def _valid_line(author, text) -> bool:
        return isinstance(author, str) and bool(author) and isinstance(text, str)

    @staticmethod
    def _valid_index(index) -> bool:
        return isinstance(index, int) and not isinstance(index, bool)

    def apply(self, method: str, args: tuple) -> bool | None:
        """Run one edit; returns its result, or None if unmodelled."""
        try:
            if method == "insert_at":
                index, author, text = args
                if not self._valid_line(author, text) or not self._valid_index(index):
                    return False
                if not 0 <= index <= len(self.lines):
                    return False
                if len(self.lines) >= self.line_limit:
                    return False
                self.lines.insert(index, [author, text])
                return True
            if method == "delete_at":
                index, author = args
                if not (isinstance(author, str) and author):
                    return False
                if not self._valid_index(index) or not 0 <= index < len(self.lines):
                    return False
                del self.lines[index]
                return True
            if method == "replace_at":
                index, author, text = args
                if not self._valid_line(author, text) or not self._valid_index(index):
                    return False
                if not 0 <= index < len(self.lines):
                    return False
                self.lines[index] = [author, text]
                return True
            if method == "append_line":
                author, text = args
                if not self._valid_line(author, text):
                    return False
                if len(self.lines) >= self.line_limit:
                    return False
                self.lines.append([author, text])
                return True
        except (TypeError, ValueError):
            return None
        return None


def list_oracle_probe(system: "DistributedSystem") -> list[str]:
    """Linearize committed ``SharedDoc`` edits against a fresh oracle.

    On every active full-history node, replay the committed operation
    stream (which is the one global serialization of all edits) through
    :class:`_DocOracle`; each committed result and the final document
    must agree with the oracle.  Documents touched by composed or
    unmodelled operations are skipped rather than guessed at.
    """
    violations = []
    for node in system.nodes.values():
        if node.state != "active" or node.completed_offset != 0:
            continue
        docs: dict[str, _DocOracle] = {}
        tainted: set[str] = set()
        for index, entry in enumerate(node.model.completed):
            op = entry.op
            if isinstance(op, CreateObjectOp) and op.cls is SharedDoc:
                if entry.result and op.init_state is None:
                    docs[op.object_id] = _DocOracle()
                else:
                    tainted.add(op.object_id)
                continue
            if isinstance(op, PrimitiveOp):
                oracle = docs.get(op.object_id)
                if oracle is None or op.object_id in tainted:
                    continue
                expected = oracle.apply(op.method_name, op.args)
                if expected is None:
                    tainted.add(op.object_id)
                elif expected != entry.result:
                    violations.append(
                        f"list oracle divergence on {node.machine_id} at "
                        f"global position {index}: {op.describe()} committed "
                        f"{entry.result}, oracle says {expected}"
                    )
                    tainted.add(op.object_id)
            else:
                tainted |= op.object_ids() & set(docs)
        for uid, oracle in docs.items():
            if uid in tainted or not node.model.committed.has(uid):
                continue
            live = node.model.committed.get(uid).lines
            if live != oracle.lines:
                violations.append(
                    f"list oracle divergence on {node.machine_id}: {uid} "
                    f"committed lines {live!r} != oracle lines {oracle.lines!r}"
                )
    return violations


def _net_bumps(op: SharedOp, uid: str, result: bool) -> tuple[int, bool]:
    """(counter-sum delta, tainted) contributed by one committed op.

    Transfers and presence ops never change the sum; an aborted Atomic
    contributes nothing; an ``OrElse`` touching the hub is ambiguous
    (the committed result does not say which branch ran), so the hub is
    tainted instead of guessed at.
    """
    if isinstance(op, PrimitiveOp):
        if op.object_id != uid:
            return 0, False
        if op.method_name == "bump":
            return (op.args[1] if result else 0), False
        if op.method_name in ("transfer", "check_in", "check_out", "tally"):
            return 0, False
        return 0, True
    if isinstance(op, AtomicOp):
        if not result:
            return 0, False  # aborted: all-or-nothing means nothing
        delta = 0
        for child in op.children:
            child_delta, child_tainted = _net_bumps(child, uid, True)
            if child_tainted:
                return 0, True
            delta += child_delta
        return delta, False
    return (0, True) if uid in op.object_ids() else (0, False)


def counter_conservation_probe(system: "DistributedSystem") -> list[str]:
    """Counter sums equal the net of successfully committed bumps.

    ``bump`` is the only operation that changes a
    :class:`PresenceCounters` sum; ``transfer`` conserves it.  A leaky
    transfer (or any lost/duplicated delta in the commit pipeline)
    breaks the equality even though every replica still *agrees* — this
    is a flow law, not an agreement law, so no pairwise comparison can
    see it.
    """
    violations = []
    for node in system.nodes.values():
        if node.state != "active" or node.completed_offset != 0:
            continue
        expected: dict[str, int] = {}
        tainted: set[str] = set()
        for entry in node.model.completed:
            op = entry.op
            if isinstance(op, CreateObjectOp) and op.cls is PresenceCounters:
                if entry.result and op.init_state is None:
                    expected[op.object_id] = 0
                else:
                    tainted.add(op.object_id)
                continue
            for uid in op.object_ids() & set(expected):
                delta, bad = _net_bumps(op, uid, entry.result)
                if bad:
                    tainted.add(uid)
                else:
                    expected[uid] += delta
        for uid, net in expected.items():
            if uid in tainted or not node.model.committed.has(uid):
                continue
            live = sum(node.model.committed.get(uid).counters.values())
            if live != net:
                violations.append(
                    f"counter conservation broken on {node.machine_id}: {uid} "
                    f"sums to {live}, net of committed bumps is {net}"
                )
    return violations


def atomic_probe(system: "DistributedSystem") -> list[str]:
    """Marketplace conservation laws on every replica (committed and
    guess stores of every clean node).

    Money enters only through ``mint`` and every later movement is a
    balanced debit/credit pair inside one Atomic, so
    ``sum(balances) == minted`` holds at every observable point — an
    Atomic that keeps partial effects breaks it on the first lost race.
    Item uniqueness (stock xor escrow) breaks the same way.
    """
    violations = []
    for node in system.nodes.values():
        if node.state not in ("active", "offline"):
            continue
        for store_name in ("committed", "guess"):
            store = getattr(node.model, store_name)
            for uid, obj in store:
                if not isinstance(obj, Marketplace):
                    continue
                total = sum(obj.balances.values())
                if total != obj.minted:
                    violations.append(
                        f"atomic all-or-nothing broken on {node.machine_id} "
                        f"({store_name}): {uid} holds {total} coins but "
                        f"minted {obj.minted}"
                    )
                placed: list[str] = [
                    item for items in obj.stock.values() for item in items
                ] + list(obj.offers)
                if len(placed) != len(set(placed)):
                    violations.append(
                        f"atomic all-or-nothing broken on {node.machine_id} "
                        f"({store_name}): {uid} has duplicated items"
                    )
    return violations


# ---------------------------------------------------------------------------
# effect probes: runtime twins of the glint effect engine


_APP_EFFECTS: dict[str, dict[str, set[str] | None]] | None = None


def _static_app_effects() -> dict[str, dict[str, set[str] | None]]:
    """Class name -> method -> statically inferred write-attribute set.

    Built lazily (glint never runs during normal simulation) from the
    same interprocedural effect engine GL006 uses, over every shared
    class in :mod:`repro.apps`.  ``None`` marks a footprint the engine
    could not fully infer; the probes taint such objects rather than
    accuse on a guess.
    """
    global _APP_EFFECTS
    if _APP_EFFECTS is None:
        from pathlib import Path

        import repro.apps as apps_package
        from repro.analysis.context import LIFECYCLE_METHODS, build_context
        from repro.analysis.effects import effect_engine
        from repro.analysis.loader import load_paths

        modules = load_paths([Path(apps_package.__file__).parent])
        context = build_context(modules)
        engine = effect_engine(context)
        table: dict[str, dict[str, set[str] | None]] = {}
        for class_name, info in context.shared_classes.items():
            methods: dict[str, set[str] | None] = {}
            for method_name in info.methods:
                if method_name in LIFECYCLE_METHODS:
                    continue
                footprint = engine.footprint(class_name, method_name)
                methods[method_name] = (
                    set(footprint.writes) if footprint.trusted else None
                )
            table[class_name] = methods
        _APP_EFFECTS = table
    return _APP_EFFECTS


_MISSING = object()


def _public_state(obj: object) -> dict[str, object]:
    """Deep copy of the instance fields the contract layer considers state."""
    import copy

    return {
        key: copy.deepcopy(value)
        for key, value in obj.__dict__.items()
        if not key.startswith("_g_")
    }


def _fresh_replicas(node: "GuesstimateNode"):
    """Drive a committed-stream replay on fresh local replicas.

    Yields ``(index, entry, op, obj)`` for every replayable committed
    :class:`PrimitiveOp`; creation, composed ops, unknown classes and
    tainting are handled here so both effect probes share one walk.
    The caller executes the op itself (so it can snapshot around it)
    and reports taint back via the returned ``taint`` callable.
    """
    table = _static_app_effects()
    replicas: dict[str, object] = {}
    tainted: set[str] = set()
    for index, entry in enumerate(node.model.completed):
        op = entry.op
        if isinstance(op, CreateObjectOp):
            if (
                entry.result
                and op.init_state is None
                and op.cls.__name__ in table
            ):
                replicas[op.object_id] = op.cls()
            else:
                tainted.add(op.object_id)
            continue
        if isinstance(op, PrimitiveOp):
            obj = replicas.get(op.object_id)
            if obj is None or op.object_id in tainted:
                continue
            yield index, entry, op, obj, tainted
        else:
            tainted |= op.object_ids() & set(replicas)


def footprint_probe(system: "DistributedSystem") -> list[str]:
    """Observed dirty-sets stay inside statically inferred footprints.

    On every active full-history node, replay the committed stream on
    fresh replicas (contract checking off — the live run already paid
    for it) and diff public state around each primitive op.  Any
    attribute that changed but is missing from the engine's inferred
    write footprint is a violation: such a write dodges ``mark_dirty``
    on the real runtime and GL006 in the linter, so the probe is the
    dynamic witness for both.  Objects touched by composed ops,
    unknown methods, or incompletely inferred footprints are tainted
    rather than guessed at.
    """
    from repro.spec.contracts import set_checking

    table = _static_app_effects()
    violations = []
    for node in system.nodes.values():
        if node.state != "active" or node.completed_offset != 0:
            continue
        snapshots: dict[str, dict[str, object]] = {}
        previous = set_checking(False)
        try:
            for index, entry, op, obj, tainted in _fresh_replicas(node):
                inferred = table[type(obj).__name__].get(op.method_name, None)
                if inferred is None:
                    tainted.add(op.object_id)
                    continue
                if op.object_id not in snapshots:
                    snapshots[op.object_id] = _public_state(obj)
                before = snapshots[op.object_id]
                try:
                    getattr(obj, op.method_name)(*op.args)
                except Exception:
                    tainted.add(op.object_id)
                    continue
                after = _public_state(obj)
                changed = sorted(
                    key
                    for key in set(before) | set(after)
                    if before.get(key, _MISSING) != after.get(key, _MISSING)
                )
                stray = [key for key in changed if key not in inferred]
                if stray:
                    violations.append(
                        f"footprint violation on {node.machine_id} at global "
                        f"position {index}: {op.describe()} wrote "
                        f"{stray!r} outside its inferred footprint "
                        f"{sorted(inferred)!r}"
                    )
                    tainted.add(op.object_id)
                snapshots[op.object_id] = after
        finally:
            set_checking(previous)
    return violations


def _reexecute(cls, pre_state, first, second):
    """Run ``first`` then ``second`` on a fresh replica seeded with
    ``pre_state``; returns ``(results, final public state)`` or ``None``
    if either op raised (taint, not a verdict)."""
    import copy

    obj = cls()
    obj.__dict__.update(copy.deepcopy(pre_state))
    results = []
    for op in (first, second):
        try:
            results.append(getattr(obj, op.method_name)(*op.args))
        except Exception:
            return None
    return results, _public_state(obj)


def commute_probe(system: "DistributedSystem") -> list[str]:
    """Committed adjacent ``@commutative`` pairs commute in fact.

    Walk each full-history committed stream; whenever two consecutive
    primitive ops on the same object both carry the runtime
    ``@commutative`` marker, re-execute the pair in both orders from
    the state that preceded the first op.  A certified-commutative
    pair must produce identical final public state *and* identical
    per-op results either way — the exact property a
    commutativity-aware synchronizer would rely on to skip
    re-execution after a reordered commit.
    """
    from repro.spec.contracts import is_commutative, set_checking

    violations = []
    for node in system.nodes.values():
        if node.state != "active" or node.completed_offset != 0:
            continue
        # object uid -> (previous commutative op, state before it)
        pending: dict[str, tuple[PrimitiveOp, dict[str, object]]] = {}
        previous = set_checking(False)
        try:
            for index, entry, op, obj, tainted in _fresh_replicas(node):
                marked = is_commutative(type(obj), op.method_name)
                pre_state = _public_state(obj) if marked else None
                pair = pending.pop(op.object_id, None)
                if pair is not None and marked:
                    prior_op, prior_pre = pair
                    forward = _reexecute(type(obj), prior_pre, prior_op, op)
                    reverse = _reexecute(type(obj), prior_pre, op, prior_op)
                    if forward is None or reverse is None:
                        tainted.add(op.object_id)
                        continue
                    (res_ab, state_ab), (res_ba, state_ba) = forward, reverse
                    if state_ab != state_ba or [res_ab[0], res_ab[1]] != [
                        res_ba[1],
                        res_ba[0],
                    ]:
                        violations.append(
                            f"commutativity violation on {node.machine_id} at "
                            f"global position {index}: {prior_op.describe()} "
                            f"and {op.describe()} are both marked "
                            "@commutative but do not commute "
                            f"(state {state_ab!r} vs {state_ba!r})"
                        )
                        tainted.add(op.object_id)
                        continue
                try:
                    getattr(obj, op.method_name)(*op.args)
                except Exception:
                    tainted.add(op.object_id)
                    continue
                if marked:
                    pending[op.object_id] = (op, pre_state)
        finally:
            set_checking(previous)
    return violations
