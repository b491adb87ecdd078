"""Workload adapters: application traffic for fuzz scenarios.

Wraps the measurement drivers of :mod:`repro.workloads.drivers` behind
one small interface (``setup`` / ``start`` / ``stop`` / ``on_join``) so
the runner can treat "users solving Sudoku" and "users posting to a
message board" uniformly.  All randomness comes from streams derived
from the scenario seed — never from a shared or wall-clock-seeded rng —
so a workload is as replayable as the protocol underneath it.

Beyond the paper's two measurement workloads (Sudoku, message board)
this module hosts the **workload zoo** — four adapters chosen for the
conflict structures they stress rather than for paper fidelity:

* :class:`ListDocWorkload` — positional insert/delete races on shared
  documents (checked against a sequential oracle by
  :func:`repro.simtest.probes.list_oracle_probe`);
* :class:`CounterWorkload` — every machine hammering *one* shared
  counters/presence object (counter-sum conservation probe);
* :class:`MarketWorkload` — Atomic/OrElse escrow settlements where a
  broken all-or-nothing implementation destroys money (atomic probe);
* :class:`HostileWorkload` — an adversarial client profile: op floods,
  unknown objects/methods, malformed arguments and stale-spec edits,
  all of which the runtime must reject cleanly rather than crash on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.listdoc import SharedDoc
from repro.apps.marketplace import Marketplace
from repro.apps.message_board import MessageBoard
from repro.apps.presence import PresenceCounters
from repro.core.operations import AtomicOp, OrElseOp, PrimitiveOp, SharedOp
from repro.errors import (
    IssueBlockedError,
    NodeCrashedError,
    NotSubscribedError,
    UnknownMethodError,
    UnknownObjectError,
)
from repro.sim.rand import derive_seed, seeded_stream
from repro.workloads.activity import ActivityModel
from repro.workloads.drivers import MixedAppSession, SudokuSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.system import DistributedSystem
    from repro.simtest.scenario import ScenarioSpec

#: Exceptions a workload action may legitimately hit mid-churn: the
#: machine is inside a sync window, crashed, or has not (re)joined far
#: enough to see the object.  The user simply loses a turn.
ISSUE_HAZARDS = (
    IssueBlockedError,
    NodeCrashedError,
    UnknownObjectError,
    NotSubscribedError,
)


class SudokuWorkload:
    """The paper's measurement workload: N players, shared grids."""

    def __init__(self, spec: "ScenarioSpec", system: "DistributedSystem"):
        self.session = SudokuSession(
            system,
            n_grids=spec.n_grids,
            activity=ActivityModel.busy(spec.think_mean),
            seed=derive_seed(spec.seed, "sudoku-session"),
            clues=40,
        )

    def setup(self) -> None:
        self.session.setup(quiesce_time=120.0)

    def start(self) -> None:
        self.session.start()

    def stop(self) -> None:
        self.session.stop()

    def on_join(self, machine_id: str) -> None:
        self.session.add_player(machine_id)

    def actions(self) -> int:
        return self.session.stats.actions


class _SessionWorkload:
    """Shared plumbing for the session adapters (board and the zoo).

    Subclasses create their shared objects in :meth:`_create_objects`
    and describe per-machine traffic in :meth:`_thunks`; everything
    else (session lifecycle, churn-tolerant issuing) lives here.
    """

    stream_name = "zoo"

    def __init__(self, spec: "ScenarioSpec", system: "DistributedSystem"):
        self.system = system
        self.spec = spec
        self.rng = seeded_stream(f"{self.stream_name}-actions", spec.seed)
        self.session: MixedAppSession | None = None
        self._counter = 0

    def setup(self) -> None:
        creator = self.system.api(self.system.machine_ids()[0])
        self._create_objects(creator)
        self.system.run_until_quiesced(max_time=120.0)
        users = {
            machine_id: self._thunks(machine_id)
            for machine_id in self.system.machine_ids()
        }
        self.session = MixedAppSession(
            self.system,
            users,
            activity=ActivityModel.busy(self.spec.think_mean),
            seed=derive_seed(self.spec.seed, f"{self.stream_name}-session"),
        )

    def start(self) -> None:
        assert self.session is not None
        self.session.start()

    def stop(self) -> None:
        if self.session is not None:
            self.session.stop()

    def on_join(self, machine_id: str) -> None:
        assert self.session is not None
        self._welcome(machine_id)
        self.session.users[machine_id] = self._thunks(machine_id)
        self.session._schedule(machine_id)

    def actions(self) -> int:
        return self.session.stats.actions if self.session is not None else 0

    # -- subclass hooks ----------------------------------------------------------

    def _create_objects(self, creator) -> None:
        raise NotImplementedError

    def _thunks(self, machine_id: str) -> list[tuple[float, callable]]:
        raise NotImplementedError

    def _welcome(self, machine_id: str) -> None:
        """Per-machine setup for a mid-run joiner (optional)."""

    # -- helpers -----------------------------------------------------------------

    def _issuable(self, machine_id: str) -> bool:
        node = self.system.nodes.get(machine_id)
        return node is not None and node.state in ("active", "offline")

    def _invoke(self, machine_id: str, object_id: str, method: str, *args) -> None:
        if not self._issuable(machine_id):
            return
        try:
            self.system.api(machine_id).invoke(object_id, method, *args)
        except ISSUE_HAZARDS:
            pass

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}-{self._counter}"


class BoardWorkload(_SessionWorkload):
    """Low-conflict contrast workload: everyone posts to shared topics.

    Unlike Sudoku players, board users keep posting while *offline*
    (state ``offline`` issues against the guesstimate and merges on
    return), which is exactly the reconnection path worth fuzzing.
    """

    stream_name = "board"

    def _create_objects(self, creator) -> None:
        board = creator.create_instance(MessageBoard)
        self.board_id = board.unique_id
        self.topics = [f"topic-{index}" for index in range(self.spec.n_grids)]
        for topic in self.topics:
            creator.invoke(board, "create_topic", topic)

    def _thunks(self, machine_id: str) -> list[tuple[float, callable]]:
        return [
            (5.0, lambda: self._post(machine_id)),
            (1.0, lambda: self._delete(machine_id)),
        ]

    # An absent or crashed machine draws nothing: the issuable check
    # comes before the topic draw, as the rng stream expects.

    def _post(self, machine_id: str) -> None:
        if self._issuable(machine_id):
            topic = self.rng.choice(self.topics)
            self._invoke(
                machine_id, self.board_id, "post", topic, machine_id, self._fresh("msg")
            )

    def _delete(self, machine_id: str) -> None:
        if self._issuable(machine_id):
            topic = self.rng.choice(self.topics)
            index = self.rng.randrange(4)
            self._invoke(
                machine_id, self.board_id, "delete_post", topic, index, machine_id
            )


class ListDocWorkload(_SessionWorkload):
    """Concurrent positional edits on ``n_grids`` shared documents.

    Every index is drawn from a small hot window at the head of the
    document, so inserts and deletes from different machines constantly
    race for the same positions — the exact conflict structure the
    committed-prefix list oracle linearizes and checks.
    """

    stream_name = "listdoc"

    def _create_objects(self, creator) -> None:
        self.doc_ids: list[str] = []
        for _ in range(self.spec.n_grids):
            doc = creator.create_instance(SharedDoc)
            self.doc_ids.append(doc.unique_id)
            for index in range(6):
                creator.invoke(doc, "append_line", "seed", f"seed-{index}")

    def _thunks(self, machine_id: str) -> list[tuple[float, callable]]:
        return [
            (5.0, lambda: self._edit(machine_id, "insert_at", 5, with_text=True)),
            (2.0, lambda: self._edit(machine_id, "delete_at", 6)),
            (2.0, lambda: self._edit(machine_id, "replace_at", 6, with_text=True)),
            (1.0, lambda: self._append(machine_id)),
        ]

    def _edit(self, machine_id: str, method: str, span: int, with_text: bool = False) -> None:
        doc_id = self.rng.choice(self.doc_ids)
        index = self.rng.randrange(span)
        args = [index, machine_id]
        if with_text:
            args.append(self._fresh("txt"))
        self._invoke(machine_id, doc_id, method, *args)

    def _append(self, machine_id: str) -> None:
        doc_id = self.rng.choice(self.doc_ids)
        self._invoke(machine_id, doc_id, "append_line", machine_id, self._fresh("txt"))


class CounterWorkload(_SessionWorkload):
    """High fan-in: every machine hammers one counters/presence hub."""

    stream_name = "counters"

    def _create_objects(self, creator) -> None:
        hub = creator.create_instance(PresenceCounters)
        self.hub_id = hub.unique_id
        self.pots = [f"pot-{index}" for index in range(max(2, self.spec.n_grids))]
        for pot in self.pots:
            creator.invoke(hub, "bump", pot, 40)
        self.tags = [f"tag-{index}" for index in range(4)]
        self._present: dict[str, bool] = {}

    def _thunks(self, machine_id: str) -> list[tuple[float, callable]]:
        return [
            (4.0, lambda: self._bump(machine_id)),
            (3.0, lambda: self._transfer(machine_id)),
            (3.0, lambda: self._tally(machine_id)),
            (2.0, lambda: self._toggle_presence(machine_id)),
        ]

    def _bump(self, machine_id: str) -> None:
        pot = self.rng.choice(self.pots)
        amount = self.rng.choice([-4, -2, -1, 1, 2, 3, 5])
        self._invoke(machine_id, self.hub_id, "bump", pot, amount)

    def _transfer(self, machine_id: str) -> None:
        src, dst = self.rng.sample(self.pots, 2)
        amount = self.rng.randint(1, 6)
        self._invoke(machine_id, self.hub_id, "transfer", src, dst, amount)

    def _tally(self, machine_id: str) -> None:
        # The certified-@commutative op: adjacent committed pairs feed
        # the commute probe's both-orders re-execution.
        tag = self.rng.choice(self.tags)
        self._invoke(machine_id, self.hub_id, "tally", tag)

    def _toggle_presence(self, machine_id: str) -> None:
        # λ-state toggle on the *issue attempt*: mismatches with the
        # committed roster are expected and produce clean conflicts.
        if self._present.get(machine_id, False):
            self._invoke(machine_id, self.hub_id, "check_out", machine_id)
        else:
            self._invoke(machine_id, self.hub_id, "check_in", machine_id)
        self._present[machine_id] = not self._present.get(machine_id, False)


class MarketWorkload(_SessionWorkload):
    """Escrow settlements under contention: Atomic/OrElse-heavy flows.

    A small pool of hot offers guarantees lost races, i.e. Atomics that
    succeed on the guess and fail at commit — exactly the rollbacks the
    all-or-nothing probe audits via the money-conservation law.
    """

    stream_name = "market"

    def _create_objects(self, creator) -> None:
        market = creator.create_instance(Marketplace)
        self.market_id = market.unique_id
        machine_ids = self.system.machine_ids()
        items_per_user = max(2, self.spec.n_grids)
        item_index = 0
        for machine_id in machine_ids:
            creator.invoke(market, "register", machine_id)
            creator.invoke(market, "mint", machine_id, 150)
            for _ in range(items_per_user):
                item = f"item-{item_index}"
                item_index += 1
                creator.invoke(market, "stock_item", machine_id, item)
                if item_index % 2 == 0:
                    creator.invoke(
                        market, "list_item", machine_id, item, 5 + item_index % 7
                    )

    def _welcome(self, machine_id: str) -> None:
        self._invoke(machine_id, self.market_id, "register", machine_id)
        self._invoke(machine_id, self.market_id, "mint", machine_id, 150)

    def _thunks(self, machine_id: str) -> list[tuple[float, callable]]:
        return [
            (5.0, lambda: self._buy(machine_id)),
            (3.0, lambda: self._sell(machine_id)),
            (2.0, lambda: self._bargain(machine_id)),
            (1.0, lambda: self._invoke(
                machine_id, self.market_id, "mint", machine_id,
                self.rng.randint(5, 20),
            )),
            (1.0, lambda: self._delist(machine_id)),
        ]

    def _purchase_op(self, api, buyer: str, item: str, seller: str, price: int):
        return api.create_atomic(
            [
                api.create_operation(self.market_id, "debit", buyer, price),
                api.create_operation(self.market_id, "take_offer", item, buyer, price),
                api.create_operation(self.market_id, "credit", seller, price),
            ]
        )

    def _open_offers(self, api, exclude: str | None = None):
        with api.reading(self.market_id) as market:
            return [
                offer
                for offer in market.open_offers()
                if exclude is None or offer[1] != exclude
            ]

    def _buy(self, machine_id: str) -> None:
        if not self._issuable(machine_id):
            return
        api = self.system.api(machine_id)
        try:
            offers = self._open_offers(api, exclude=machine_id)
            if not offers:
                return
            item, seller, price = self.rng.choice(offers)
            api.issue_when_possible(
                self._purchase_op(api, machine_id, item, seller, price)
            )
        except ISSUE_HAZARDS:
            pass

    def _bargain(self, machine_id: str) -> None:
        if not self._issuable(machine_id):
            return
        api = self.system.api(machine_id)
        try:
            offers = self._open_offers(api, exclude=machine_id)
            if len(offers) < 2:
                return
            picks = self.rng.sample(offers, 2)
            alternatives = [
                self._purchase_op(api, machine_id, item, seller, price)
                for item, seller, price in picks
            ]
            api.issue_when_possible(
                api.create_or_else(alternatives[0], alternatives[1])
            )
        except ISSUE_HAZARDS:
            pass

    def _sell(self, machine_id: str) -> None:
        if not self._issuable(machine_id):
            return
        api = self.system.api(machine_id)
        try:
            with api.reading(self.market_id) as market:
                held = market.holdings(machine_id)
            if not held:
                self._invoke(
                    machine_id, self.market_id, "stock_item",
                    machine_id, self._fresh(f"craft-{machine_id}"),
                )
                return
            item = self.rng.choice(held)
            self._invoke(
                machine_id, self.market_id, "list_item",
                machine_id, item, self.rng.randint(3, 12),
            )
        except ISSUE_HAZARDS:
            pass

    def _delist(self, machine_id: str) -> None:
        if not self._issuable(machine_id):
            return
        api = self.system.api(machine_id)
        try:
            mine = [
                item
                for item, seller, _price in self._open_offers(api)
                if seller == machine_id
            ]
            if mine:
                self._invoke(
                    machine_id, self.market_id, "delist",
                    machine_id, self.rng.choice(mine),
                )
        except ISSUE_HAZARDS:
            pass


class HostileWorkload(_SessionWorkload):
    """An adversarial client profile: everything a hostile or broken
    client can throw at the public API surface.

    Op floods, unknown objects and methods, malformed argument types,
    wrong arity, and stale-spec edits must all end in clean rejections
    (a falsy ticket or a typed error) — never a crashed node or a
    convergence violation.  A slice of legitimate traffic rides along
    so the scenario still commits real work.
    """

    stream_name = "hostile"

    def _create_objects(self, creator) -> None:
        doc = creator.create_instance(SharedDoc)
        self.doc_id = doc.unique_id
        for index in range(6):
            creator.invoke(doc, "append_line", "seed", f"seed-{index}")
        hub = creator.create_instance(PresenceCounters)
        self.hub_id = hub.unique_id
        creator.invoke(hub, "bump", "pot", 30)

    def _thunks(self, machine_id: str) -> list[tuple[float, callable]]:
        return [
            (3.0, lambda: self._legit_edit(machine_id)),
            (2.0, lambda: self._flood(machine_id)),
            (2.0, lambda: self._malformed_args(machine_id)),
            (1.0, lambda: self._unknown_object(machine_id)),
            (1.0, lambda: self._unknown_method(machine_id)),
            (1.0, lambda: self._wrong_arity(machine_id)),
            (1.0, lambda: self._stale_spec(machine_id)),
        ]

    def _legit_edit(self, machine_id: str) -> None:
        if self.rng.random() < 0.5:
            self._invoke(
                machine_id, self.doc_id, "insert_at",
                self.rng.randrange(4), machine_id, self._fresh("txt"),
            )
        else:
            self._invoke(
                machine_id, self.hub_id, "bump", "pot",
                self.rng.choice([-2, -1, 1, 2]),
            )

    def _flood(self, machine_id: str) -> None:
        """A burst of ops in one simulated instant (rate-limit abuse)."""
        for _ in range(self.rng.randint(4, 12)):
            self._invoke(
                machine_id, self.doc_id, "insert_at",
                0, machine_id, self._fresh("flood"),
            )

    def _malformed_args(self, machine_id: str) -> None:
        """Type-confused and out-of-range arguments: rejected tickets."""
        attack = self.rng.choice(
            [
                lambda: ("insert_at", "zero", machine_id, "x"),
                lambda: ("insert_at", True, machine_id, "x"),
                lambda: ("insert_at", 10**6, machine_id, "x"),
                lambda: ("delete_at", -5, machine_id),
                lambda: ("insert_at", 0, "", "x"),
                lambda: ("insert_at", 0, machine_id, 12345),
            ]
        )
        self._invoke(machine_id, self.doc_id, *attack())

    def _unknown_object(self, machine_id: str) -> None:
        self._invoke(
            machine_id, f"SharedDoc:{machine_id}:999999", "insert_at",
            0, machine_id, "ghost",
        )

    def _unknown_method(self, machine_id: str) -> None:
        if not self._issuable(machine_id):
            return
        try:
            self.system.api(machine_id).invoke(self.doc_id, "drop_table", 1)
        except ISSUE_HAZARDS:
            pass
        except UnknownMethodError:
            pass  # the typed rejection a hostile client must receive

    def _wrong_arity(self, machine_id: str) -> None:
        if not self._issuable(machine_id):
            return
        api = self.system.api(machine_id)
        try:
            op = api.create_operation(self.doc_id, "insert_at", 0)
            api.issue_operation(op)
        except ISSUE_HAZARDS:
            pass
        except TypeError:
            pass  # missing arguments surface as a clean TypeError

    def _stale_spec(self, machine_id: str) -> None:
        """Edit against a read of the guess: by commit time the read is
        stale and the op conflicts (succeeds at issue, fails at commit)."""
        if not self._issuable(machine_id):
            return
        api = self.system.api(machine_id)
        try:
            with api.reading(self.doc_id) as doc:
                length = doc.line_count()
            if length:
                self._invoke(machine_id, self.doc_id, "delete_at", length - 1, machine_id)
        except ISSUE_HAZARDS:
            pass


WORKLOAD_ADAPTERS = {
    "sudoku": SudokuWorkload,
    "board": BoardWorkload,
    "listdoc": ListDocWorkload,
    "counters": CounterWorkload,
    "market": MarketWorkload,
    "hostile": HostileWorkload,
}


def build_workload(spec: "ScenarioSpec", system: "DistributedSystem"):
    try:
        adapter = WORKLOAD_ADAPTERS[spec.workload]
    except KeyError:
        raise ValueError(f"unknown workload {spec.workload!r}") from None
    return adapter(spec, system)


# ---------------------------------------------------------------------------
# Standalone op-stream sampler (property tests, codec round-trips)
# ---------------------------------------------------------------------------

#: Workloads `sample_op_stream` can model without a live system.
SAMPLED_WORKLOADS = ("listdoc", "counters", "market", "hostile")


def sample_op_stream(workload: str, seed: int, count: int = 40) -> list[SharedOp]:
    """A deterministic, representative operation stream for ``workload``.

    Pure function of ``(workload, seed, count)``: builds the same op
    trees — same vocabulary and tree shapes the live adapter issues —
    without a running system, so property tests can pin per-seed
    determinism and registry-codec round-trips cheaply.
    """
    if workload not in SAMPLED_WORKLOADS:
        raise ValueError(
            f"unknown sampled workload {workload!r}; known: {SAMPLED_WORKLOADS}"
        )
    rng = seeded_stream(f"sample-{workload}", seed)
    builder = {
        "listdoc": _sample_listdoc_op,
        "counters": _sample_counters_op,
        "market": _sample_market_op,
        "hostile": _sample_hostile_op,
    }[workload]
    return [builder(rng, index) for index in range(count)]


def _sample_listdoc_op(rng, index: int) -> SharedOp:
    doc = f"SharedDoc:m01:{rng.randint(1, 3)}"
    author = f"m{rng.randint(1, 5):02d}"
    kind = rng.choice(["insert_at", "delete_at", "replace_at", "append_line"])
    if kind == "insert_at":
        return PrimitiveOp(doc, kind, (rng.randrange(6), author, f"txt-{index}"))
    if kind == "delete_at":
        return PrimitiveOp(doc, kind, (rng.randrange(6), author))
    if kind == "replace_at":
        return PrimitiveOp(doc, kind, (rng.randrange(6), author, f"txt-{index}"))
    return PrimitiveOp(doc, kind, (author, f"txt-{index}"))


def _sample_counters_op(rng, index: int) -> SharedOp:
    hub = "PresenceCounters:m01:1"
    user = f"m{rng.randint(1, 5):02d}"
    kind = rng.choice(["bump", "transfer", "check_in", "check_out"])
    if kind == "bump":
        return PrimitiveOp(hub, kind, (f"pot-{rng.randrange(3)}", rng.choice([-3, -1, 1, 2, 5])))
    if kind == "transfer":
        return PrimitiveOp(hub, kind, (f"pot-{rng.randrange(3)}", f"pot-{3 + rng.randrange(3)}", rng.randint(1, 6)))
    return PrimitiveOp(hub, kind, (user,))


def _sample_market_purchase(rng, index: int) -> AtomicOp:
    market = "Marketplace:m01:1"
    buyer = f"m{rng.randint(1, 5):02d}"
    seller = f"m{rng.randint(1, 5):02d}"
    price = rng.randint(3, 12)
    item = f"item-{rng.randrange(8)}"
    return AtomicOp(
        [
            PrimitiveOp(market, "debit", (buyer, price)),
            PrimitiveOp(market, "take_offer", (item, buyer, price)),
            PrimitiveOp(market, "credit", (seller, price)),
        ]
    )


def _sample_market_op(rng, index: int) -> SharedOp:
    market = "Marketplace:m01:1"
    user = f"m{rng.randint(1, 5):02d}"
    kind = rng.choice(["buy", "bargain", "list", "mint"])
    if kind == "buy":
        return _sample_market_purchase(rng, index)
    if kind == "bargain":
        return OrElseOp(
            _sample_market_purchase(rng, index),
            _sample_market_purchase(rng, index),
        )
    if kind == "list":
        return PrimitiveOp(
            market, "list_item", (user, f"item-{rng.randrange(8)}", rng.randint(3, 12))
        )
    return PrimitiveOp(market, "mint", (user, rng.randint(5, 20)))


def _sample_hostile_op(rng, index: int) -> SharedOp:
    doc = "SharedDoc:m01:1"
    user = f"m{rng.randint(1, 5):02d}"
    kind = rng.choice(["legit", "type_confusion", "out_of_range", "flood"])
    if kind == "legit":
        return PrimitiveOp(doc, "insert_at", (rng.randrange(4), user, f"txt-{index}"))
    if kind == "type_confusion":
        return PrimitiveOp(doc, "insert_at", (rng.choice(["zero", True, None]), user, f"txt-{index}"))
    if kind == "out_of_range":
        return PrimitiveOp(doc, "delete_at", (rng.choice([-5, 10**6]), user))
    return PrimitiveOp(doc, "insert_at", (0, user, f"flood-{index}"))
