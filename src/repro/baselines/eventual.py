"""Last-writer-wins eventual consistency baseline.

A Bayou-adjacent point in the design space: operations apply locally
(zero issue latency, like unsynchronized replication), but replicas
exchange *timestamped full object states* and keep the newest version,
so they eventually converge.  Convergence is bought by *losing
updates*: when two machines write concurrently, one write's effects are
discarded wholesale — the anomaly GUESSTIMATE's commit-time completion
routines exist to avoid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.operations import SharedOp
from repro.core.serialization import decode_state, encode_state
from repro.core.store import ObjectStore
from repro.net.interface import Envelope
from repro.net.latency import LatencyModel
from repro.net.mesh import Mesh
from repro.sim.scheduler import Scheduler


@dataclass(frozen=True)
class _VersionedState:
    object_id: str
    version: tuple[int, str]  # (lamport counter, machine id) — total order
    payload: dict


@dataclass
class EventualMetrics:
    ops_issued: int = 0
    states_gossiped: int = 0
    overwrites: int = 0  # a replica discarded a version it had applied
    issue_latencies: list[float] = field(default_factory=list)


class LastWriterWins:
    """Timestamped full-state gossip with last-writer-wins merge."""

    def __init__(
        self,
        n_machines: int,
        scheduler: Scheduler,
        latency: LatencyModel,
        rng: random.Random | None = None,
    ):
        self.scheduler = scheduler
        self.mesh = Mesh("lww", scheduler, latency, rng=rng)
        self.metrics = EventualMetrics()
        self.machine_ids = [f"e{index + 1:02d}" for index in range(n_machines)]
        self.replicas: dict[str, ObjectStore] = {
            machine_id: ObjectStore(machine_id) for machine_id in self.machine_ids
        }
        #: per machine: object id -> version currently held
        self.versions: dict[str, dict[str, tuple[int, str]]] = {
            machine_id: {} for machine_id in self.machine_ids
        }
        self._clock: dict[str, int] = {m: 0 for m in self.machine_ids}
        for machine_id in self.machine_ids:
            self.mesh.join(machine_id, self._make_handler(machine_id))

    def issue(
        self,
        machine_id: str,
        op: SharedOp,
        completion: Callable[[bool], None] | None = None,
    ) -> bool:
        """Apply locally, stamp the touched objects, gossip their states."""
        self.metrics.ops_issued += 1
        store = self.replicas[machine_id]
        result = op.execute(store)
        self.metrics.issue_latencies.append(0.0)
        if result:
            self._clock[machine_id] += 1
            stamp = (self._clock[machine_id], machine_id)
            for object_id in op.object_ids():
                if not store.has(object_id):  # pragma: no cover - create failed
                    continue
                self.versions[machine_id][object_id] = stamp
                message = _VersionedState(
                    object_id, stamp, encode_state(store.get(object_id))
                )
                self.metrics.states_gossiped += 1
                self.mesh.broadcast(machine_id, message)
        if completion is not None:
            completion(result)
        return result

    def _make_handler(self, machine_id: str):
        def handle(envelope: Envelope) -> None:
            payload = envelope.payload
            if not isinstance(payload, _VersionedState):  # pragma: no cover
                return
            held = self.versions[machine_id].get(payload.object_id)
            if held is not None and held >= payload.version:
                return  # ours is newer (or the same); ignore
            # Lamport bump so our next write beats what we just saw.
            self._clock[machine_id] = max(
                self._clock[machine_id], payload.version[0]
            )
            store = self.replicas[machine_id]
            incoming = decode_state(payload.payload)
            if store.has(payload.object_id):
                if held is not None:
                    self.metrics.overwrites += 1
                store.get(payload.object_id).copy_from(incoming)
            else:
                store.adopt(payload.object_id, incoming)
            self.versions[machine_id][payload.object_id] = payload.version

        return handle

    # -- probes ------------------------------------------------------------------------

    def all_replicas_equal(self) -> bool:
        stores = list(self.replicas.values())
        return all(store.state_equal(stores[0]) for store in stores[1:])

    def divergent_pairs(self) -> int:
        stores = list(self.replicas.values())
        return sum(
            1
            for i, left in enumerate(stores)
            for right in stores[i + 1 :]
            if not left.state_equal(right)
        )
