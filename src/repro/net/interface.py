"""The broadcast channel, implemented once for both transports.

The runtime (:mod:`repro.runtime.node`, :mod:`repro.runtime.synchronizer`)
is written against :class:`BroadcastChannel` — which is what lets the
same node/synchronizer state machines run on virtual time in one process
or over real TCP sockets unmodified.

:class:`BroadcastChannel` implements everything that does not depend on
the transport: the member table, the sender checks, fault injection
(crashed senders and recipients, the per-recipient drop decision), the
stats, the observer events and arrival (an :class:`Envelope` to the
recipient's handler).  A carrier subclass supplies one hook,
:meth:`~BroadcastChannel._carrier`: move a payload to a recipient and
hand it back to :meth:`~BroadcastChannel._arrive` later.  The simulated
:class:`~repro.net.mesh.Mesh` does that after a sampled latency;
:class:`~repro.transport.netmesh.NetworkMesh` does it over a socket.  So
the fault and arrival code simfuzz exercises is the code that ships.

The contract is pinned by a conformance test parametrized over both
carriers (``tests/transport/test_mesh_contract.py``).  Beyond the
methods, a channel exposes four attributes the runtime and test
harnesses rely on:

``name``
    The channel name (``"signals"`` or ``"operations"``).
``stats``
    A :class:`MeshStats` the channel keeps current.
``observers``
    A mutable list of :data:`MeshObserver` callbacks, invoked as
    ``observer(event, info)`` for ``"deliver"``, ``"drop"`` and
    ``"undeliverable"`` events (the simfuzz trace recorder hooks these).
``faults``
    A :class:`~repro.net.faults.FaultInjector`.  The synchronizer
    consults ``faults.crash_at_commit`` at commit points, and test
    harnesses may *assign* an injector to induce drops; the default is
    :class:`~repro.net.faults.NoFaults`.

Delivery semantics the runtime depends on:

* ``broadcast`` never delivers back to the sender (nodes self-dispatch
  via :meth:`~repro.runtime.node.GuesstimateNode.broadcast_signal`).
* Deliveries are *asynchronous*: handlers run from a scheduler callback
  after the sending call returned, never reentrantly inside it.
* Per sender→recipient pair, messages arrive in send order or not at
  all (loss is allowed; reordering is not).  The protocol's stall
  timeouts and Hello retries recover from loss.
* Sending to an absent recipient is a normal event (counted
  ``undeliverable``), never an exception; broadcasting *from* a node
  that has not joined raises :class:`~repro.errors.NotInMeshError`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NotInMeshError
from repro.net.faults import FaultInjector, NoFaults
from repro.sim.scheduler import Scheduler

Handler = Callable[["Envelope"], None]

#: Observer callback: ``(event, info)`` where event is one of
#: ``"deliver"``, ``"drop"`` or ``"undeliverable"``.  The simulation
#: fuzzer's trace recorder hooks these to log every mesh decision.
MeshObserver = Callable[[str, dict], None]


@dataclass(frozen=True)
class Envelope:
    """One delivered message: who sent what, on which channel, when.

    ``sent_at``/``delivered_at`` are scheduler times; over a real
    network the two come from different clocks, so only
    ``delivered_at`` is meaningful for local arithmetic.
    """

    channel: str
    sender: str
    recipient: str
    payload: object
    sent_at: float
    delivered_at: float


@dataclass
class MeshStats:
    """Counters for tests and the evaluation harness."""

    broadcasts: int = 0
    unicasts: int = 0
    deliveries: int = 0
    dropped: int = 0
    undeliverable: int = 0  # recipient crashed or absent at delivery time
    #: scheduled sends by payload type name (one count per recipient) —
    #: lets tests and benchmarks report message-frame counts.
    payload_counts: dict = field(default_factory=dict)

    def count_payload(self, payload: object) -> None:
        name = type(payload).__name__
        self.payload_counts[name] = self.payload_counts.get(name, 0) + 1


class BroadcastChannel(ABC):
    """One broadcast channel (see module docstring for the contract)."""

    def __init__(
        self,
        name: str,
        scheduler: Scheduler,
        faults: FaultInjector | None,
        rng: random.Random,
    ):
        self.name = name
        self.scheduler = scheduler
        self.faults = faults if faults is not None else NoFaults()
        self.rng = rng
        self.stats = MeshStats()
        self.observers: list[MeshObserver] = []
        self._handlers: dict[str, Handler] = {}

    # -- membership ----------------------------------------------------------

    @property
    def members(self) -> list[str]:
        """Current member ids in join order."""
        return list(self._handlers)

    def join(self, node_id: str, handler: Handler) -> None:
        """Add ``node_id``; its ``handler`` receives every delivery."""
        self._handlers[node_id] = handler

    def leave(self, node_id: str) -> None:
        """Remove ``node_id``; in-flight deliveries to it are lost."""
        self._handlers.pop(node_id, None)

    def is_member(self, node_id: str) -> bool:
        """Whether ``node_id`` is currently reachable on this channel."""
        return node_id in self._handlers

    # -- sending -------------------------------------------------------------

    def broadcast(self, sender: str, payload: object) -> int:
        """Deliver ``payload`` to every *other* member.

        Returns the number of deliveries scheduled (drops and link
        failures still count — the sender cannot observe the loss,
        exactly like a real broadcast).
        """
        self._require_member(sender)
        self.stats.broadcasts += 1
        now = self.scheduler.now()
        if self.faults.is_crashed(now, sender):
            return 0  # a crashed machine's sends go nowhere
        recipients = [member for member in self.members if member != sender]
        carry = self._carrier(sender, payload, now)
        for recipient in recipients:
            if not self._lost(sender, recipient, payload, now):
                carry(recipient)
        return len(recipients)

    def send(self, sender: str, recipient: str, payload: object) -> None:
        """Unicast ``payload`` to a single member.

        Sending to a machine that has left the channel is a normal
        distributed-systems event (the sender cannot know), so it is
        counted as undeliverable rather than raised.
        """
        self._require_member(sender)
        self.stats.unicasts += 1
        now = self.scheduler.now()
        if not self.is_member(recipient):
            self.stats.undeliverable += 1
            return
        if self.faults.is_crashed(now, sender):
            return
        if not self._lost(sender, recipient, payload, now):
            self._carrier(sender, payload, now)(recipient)

    @abstractmethod
    def _carrier(
        self, sender: str, payload: object, sent_at: float
    ) -> Callable[[str], None]:
        """A function that moves ``payload`` to one recipient.

        The channel calls it once per recipient that survived the loss
        decision; it must hand the payload to :meth:`_arrive` from a
        later scheduler callback, or report it lost with :meth:`_drop`.
        """

    # -- internal ------------------------------------------------------------

    def _require_member(self, node_id: str) -> None:
        if node_id not in self._handlers:
            raise NotInMeshError(node_id, self.name)

    def _lost(self, sender: str, recipient: str, payload: object, now: float) -> bool:
        """Count one send and ask the fault injector whether it is eaten."""
        self.stats.count_payload(payload)
        if self.faults.should_drop(now, self.name, sender, recipient, self.rng, payload):
            self._drop(sender, recipient, payload, now)
            return True
        return False

    def _drop(self, sender: str, recipient: str, payload: object, at: float) -> None:
        self.stats.dropped += 1
        self._notify("drop", sender, recipient, payload, at)

    def _arrive(
        self, sender: str, recipient: str, payload: object, sent_at: float
    ) -> None:
        """Hand a carried payload to its recipient's handler, unless the
        recipient left or crashed while it travelled."""
        delivered_at = self.scheduler.now()
        handler = self._handlers.get(recipient)
        if handler is None or self.faults.is_crashed(delivered_at, recipient):
            self.stats.undeliverable += 1
            self._notify("undeliverable", sender, recipient, payload, delivered_at)
            return
        self.stats.deliveries += 1
        self._notify("deliver", sender, recipient, payload, delivered_at)
        handler(
            Envelope(self.name, sender, recipient, payload, sent_at, delivered_at)
        )

    def _notify(
        self, event: str, sender: str, recipient: str, payload: object, at: float
    ) -> None:
        if not self.observers:
            return
        info = {
            "channel": self.name,
            "sender": sender,
            "recipient": recipient,
            "payload": type(payload).__name__,
            "at": at,
        }
        for observer in self.observers:
            observer(event, info)


class ChannelPair:
    """The runtime's two channels: ``signals`` and ``operations``.

    Mirrors the paper: "The GUESSTIMATE runtime uses two meshes, one for
    sending signals and another for passing operations.  Both meshes
    contain all participating machines."  ``make_channel`` builds one
    channel from its name.
    """

    def __init__(self, make_channel: Callable[[str], BroadcastChannel]):
        self.signals = make_channel("signals")
        self.operations = make_channel("operations")

    def join(self, node_id: str, signal_handler: Handler, ops_handler: Handler) -> None:
        self.signals.join(node_id, signal_handler)
        self.operations.join(node_id, ops_handler)

    def leave(self, node_id: str) -> None:
        self.signals.leave(node_id)
        self.operations.leave(node_id)

    @property
    def members(self) -> list[str]:
        return self.signals.members
