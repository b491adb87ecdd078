"""The broadcast-channel contract both transports implement.

The runtime (:mod:`repro.runtime.node`, :mod:`repro.runtime.synchronizer`)
is written against :class:`BroadcastChannel`, not against the simulated
:class:`~repro.net.mesh.Mesh` — which is what lets the same
node/synchronizer state machines run on virtual time in one process or
over real TCP sockets (:mod:`repro.transport.netmesh`) unmodified.

The contract is pinned by a conformance test parametrized over both
implementations (``tests/transport/test_mesh_contract.py``).  Beyond
the abstract methods, an implementation must expose four attributes the
runtime and test harnesses rely on:

``name``
    The channel name (``"signals"`` or ``"operations"``).
``stats``
    A :class:`MeshStats` the implementation keeps current.
``observers``
    A mutable list of :data:`MeshObserver` callbacks, invoked as
    ``observer(event, info)`` for ``"deliver"``, ``"drop"`` and
    ``"undeliverable"`` events (the simfuzz trace recorder hooks these).
``faults``
    A :class:`~repro.net.faults.FaultInjector`.  The synchronizer
    consults ``faults.crash_at_commit`` at commit points, and test
    harnesses may *assign* an injector to induce drops; a transport
    with no fault induction uses :class:`~repro.net.faults.NoFaults`.

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

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

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
    """Abstract broadcast channel (see module docstring for the contract)."""

    @property
    @abstractmethod
    def members(self) -> list[str]:
        """Current member ids (local members plus known peers)."""

    @abstractmethod
    def join(self, node_id: str, handler: Handler) -> None:
        """Add ``node_id``; its ``handler`` receives every delivery."""

    @abstractmethod
    def leave(self, node_id: str) -> None:
        """Remove ``node_id``; in-flight deliveries to it are lost."""

    @abstractmethod
    def is_member(self, node_id: str) -> bool:
        """Whether ``node_id`` is currently reachable on this channel."""

    @abstractmethod
    def broadcast(self, sender: str, payload: object) -> int:
        """Deliver ``payload`` to every *other* member.

        Returns the number of deliveries scheduled (drops and link
        failures still count — the sender cannot observe the loss,
        exactly like a real broadcast).
        """

    @abstractmethod
    def send(self, sender: str, recipient: str, payload: object) -> None:
        """Unicast ``payload`` to a single member (lossy, see module doc)."""
