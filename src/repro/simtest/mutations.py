"""Protocol and application mutations for fuzzer self-tests.

A fuzzer that has never seen a bug proves nothing.  Each mutation here
is a small, named, *known* violation patched into the runtime for the
duration of one run; the self-test (:func:`repro.simtest.fuzz.selftest`)
asserts that fuzzing with the mutation active reports a violation, that
the failing seed replays bit-identically, and that the shrinker reduces
it to a tiny scenario.

The families:

* **protocol mutations** (``commit_order``, ``double_apply``) patch
  :func:`repro.runtime.synchronizer.consolidated_order` — the single
  seam through which every machine derives the global apply order —
  breaking the paper's core agreement guarantee (C(i) = C(j),
  sc(i) = sc(j)).  The classic probes (checkpoint agreement, formal
  invariants, replay) catch these.
* **semantic mutations** (``list_drift``, ``counter_leak``,
  ``atomic_partial``) patch an *application or operation-algebra
  method* so that every replica computes the same wrong answer.
  Agreement holds perfectly — only the workload-zoo convergence probes
  (independent oracle, conservation laws) can see them, which is
  exactly what their planted-mutation tests demonstrate.
* **cadence mutation** (``no_wake``) makes an idle concurrent master
  ignore every :class:`~repro.runtime.messages.WorkReady`, so the
  first operation issued on a quiet cluster never commits; the run
  fails to quiesce.
* **storage mutation** (``wal_tail``): ``WriteAheadLog.replay`` loses
  its newest record.  Simulated nodes log through the daemons' WAL, so
  :func:`repro.simtest.probes.storage_probe` sees the replay fall behind.
* **catch-up mutation** (``welcome_gap``): a backlog catch-up — the
  delta Welcome a recovered node earns — drops its first missed entry
  at the one seam, :func:`repro.runtime.node.catch_up`, through which
  committed state arrives from outside a round.  The joiner's committed
  prefix gets a hole that the cluster's lacks.
* **effect mutations** (``footprint``, ``commute``) plant the two
  hazards the glint effect engine reasons about: a write outside the
  inferred footprint of an operation (invisible to contracts,
  invariants and conservation laws alike — only
  :func:`repro.simtest.probes.footprint_probe` sees it) and an
  order-dependent ``@commutative`` operation (every replica still
  agrees, only :func:`repro.simtest.probes.commute_probe`'s
  both-orders re-execution sees it).

Each registry entry is ``(holder, attribute, factory)``: ``factory``
receives the pristine attribute and returns the mutant bound in its
place while :func:`apply_mutation` is active.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.apps.listdoc import SharedDoc
from repro.apps.presence import PresenceCounters
from repro.core.operations import AtomicOp
from repro.runtime import node as node_mod
from repro.runtime import synchronizer as sync_mod
from repro.storage.wal import WriteAheadLog


def _commit_order(pristine):
    """Slaves apply each round in *reversed* consolidated order.

    With two or more ops in a round, slave committed stores and
    completed sequences diverge from the master's.
    """

    def mutant(node, round_state):
        keys = pristine(node, round_state)
        if not node.is_master and len(keys) > 1:
            return list(reversed(keys))
        return keys

    return mutant


def _double_apply(pristine):
    """Slaves apply the first op of a multi-op round twice.

    Duplicate keys in C and a diverged sc — caught by both the
    runtime checks and the replay oracle.
    """

    def mutant(node, round_state):
        keys = pristine(node, round_state)
        if not node.is_master and len(keys) > 1:
            return [keys[0]] + keys
        return keys

    return mutant


def _list_drift(pristine):
    """Interior inserts land one position late — on *every* replica.

    The classic OT off-by-one: results, contracts ("grew by one") and
    cross-machine agreement all still hold, because every machine makes
    the same mistake.  Only replaying the committed stream against the
    independent oracle (:func:`repro.simtest.probes.list_oracle_probe`)
    exposes the drift.
    """

    def mutant(self, index, author, text):
        if (
            isinstance(index, int)
            and not isinstance(index, bool)
            and 0 < index < len(self.lines)
        ):
            return pristine(self, index + 1, author, text)
        return pristine(self, index, author, text)

    return mutant


def _counter_leak(pristine):
    """Transfers of more than one unit leak one unit in flight.

    The destination receives ``amount - 1``: the ``@ensures`` contract
    only pins the *source* leg, both replicas agree on the (wrong)
    state, and the roster invariants still hold — but the counter sum
    no longer equals the net of committed bumps, which is exactly the
    flow law :func:`repro.simtest.probes.counter_conservation_probe`
    checks.
    """

    def mutant(self, src, dst, amount):
        ok = pristine(self, src, dst, amount)
        if ok and isinstance(amount, int) and amount > 1:
            self.counters[dst] -= 1
        return ok

    return mutant


def _atomic_partial(pristine):
    """Atomic keeps the legs that ran before the first failure.

    The textbook broken transaction: children execute directly against
    the backing view instead of a copy-on-write buffer, so an aborted
    purchase leaves the buyer debited with no item.  Money conservation
    (:func:`repro.simtest.probes.atomic_probe`) breaks on the first
    lost race.
    """

    def mutant(self, view):
        for child in self.children:
            if not child.execute(view):
                return False
        return True

    return mutant


def _footprint(pristine):
    """Successful check-outs also bump ``arrivals`` — off-frame.

    ``arrivals`` is outside ``check_out``'s declared *and* inferred
    ``@modifies`` frame, so the runtime would never ``mark_dirty`` it
    on a delta refresh.  The poke happens *after* the wrapped pristine
    call returns, so the in-wrap frame/ensures checks are already
    done; every replica agrees, no invariant mentions ``arrivals``,
    and the conservation law ignores it.  Only the static/dynamic
    footprint comparison (:func:`repro.simtest.probes.footprint_probe`)
    can see the stray write.
    """

    def mutant(self, user):
        ok = pristine(self, user)
        if ok:
            self.arrivals += 1
        return ok

    return mutant


def _commute(pristine):
    """``tally`` keeps an order-sensitive digest — no longer commutes.

    The digest folds each tag into ``sightings["#order"]`` with a
    non-commutative polynomial step, so two tallies of *different*
    tags produce different digests depending on commit order — yet
    every replica applies the same order and still agrees, the
    invariant (non-negative ints) holds, and the per-tag ensures
    clause is untouched.  The mutant keeps the runtime
    ``@commutative`` marker (a real bug of this shape would too: the
    marker is the stale *claim*), so only
    :func:`repro.simtest.probes.commute_probe`'s both-orders
    re-execution exposes it.
    """

    def mutant(self, tag):
        ok = pristine(self, tag)
        if ok:
            acc = self.sightings.get("#order", 0)
            self.sightings["#order"] = (acc * 31 + sum(tag.encode())) % 1000003
        return ok

    mutant.__g_commutative__ = True
    return mutant


def _no_wake(pristine):
    """The master ignores every WorkReady: once a concurrent round
    finishes idle, no later issue starts another one."""

    def mutant(self, ready):
        return None

    return mutant


def _wal_tail(pristine):
    """Replay loses the newest record, as if its append never happened."""

    def mutant(wal):
        return pristine(wal)[:-1]

    return mutant


def _welcome_gap(pristine):
    """A backlog catch-up (no states to install) loses its first entry."""

    def mutant(model, states, entries):
        if states is None:
            entries = entries[1:]
        return pristine(model, states, entries)

    return mutant


#: name -> (holder, attribute, mutant factory)
MUTATIONS = {
    "commit_order": (sync_mod, "consolidated_order", _commit_order),
    "double_apply": (sync_mod, "consolidated_order", _double_apply),
    "list_drift": (SharedDoc, "insert_at", _list_drift),
    "counter_leak": (PresenceCounters, "transfer", _counter_leak),
    "atomic_partial": (AtomicOp, "execute", _atomic_partial),
    "footprint": (PresenceCounters, "check_out", _footprint),
    "commute": (PresenceCounters, "tally", _commute),
    "no_wake": (sync_mod.MasterControl, "_on_work_ready", _no_wake),
    "wal_tail": (WriteAheadLog, "replay", _wal_tail),
    "welcome_gap": (node_mod, "catch_up", _welcome_gap),
}


@contextmanager
def apply_mutation(name: str | None):
    """Context manager: patch the named mutation in, restore on exit."""
    if name is None:
        yield
        return
    try:
        holder, attribute, factory = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}"
        ) from None
    pristine = getattr(holder, attribute)
    setattr(holder, attribute, factory(pristine))
    try:
        yield
    finally:
        setattr(holder, attribute, pristine)
