"""Unsynchronized replicated execution baseline.

The other extreme of the trade-off: every machine applies operations to
its local replica immediately (zero issue latency) and broadcasts them;
receivers apply on arrival, in whatever order the network delivers.
Nothing reconciles conflicting outcomes, so replicas *diverge* — the
ablation counts both the zero latency and the divergence this buys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.operations import SharedOp
from repro.core.serialization import decode_op, encode_op
from repro.core.store import ObjectStore
from repro.net.interface import Envelope
from repro.net.latency import LatencyModel
from repro.net.mesh import Mesh
from repro.sim.scheduler import Scheduler


@dataclass(frozen=True)
class _Gossip:
    origin: str
    payload: dict


@dataclass
class ReplicatedMetrics:
    ops_issued: int = 0
    remote_applies: int = 0
    remote_failures: int = 0  # op succeeded at origin, failed on a replica
    issue_latencies: list[float] = field(default_factory=list)  # all zero


class UnsynchronizedReplicas:
    """Apply-locally-and-broadcast, no ordering, no reconciliation."""

    def __init__(
        self,
        n_machines: int,
        scheduler: Scheduler,
        latency: LatencyModel,
        rng: random.Random | None = None,
    ):
        self.scheduler = scheduler
        self.mesh = Mesh("replicated", scheduler, latency, rng=rng)
        self.metrics = ReplicatedMetrics()
        self.machine_ids = [f"r{index + 1:02d}" for index in range(n_machines)]
        self.replicas: dict[str, ObjectStore] = {
            machine_id: ObjectStore(machine_id) for machine_id in self.machine_ids
        }
        for machine_id in self.machine_ids:
            self.mesh.join(machine_id, self._make_handler(machine_id))

    def issue(
        self,
        machine_id: str,
        op: SharedOp,
        completion: Callable[[bool], None] | None = None,
    ) -> bool:
        """Apply locally (synchronously — zero latency) and gossip."""
        self.metrics.ops_issued += 1
        result = op.execute(self.replicas[machine_id])
        self.metrics.issue_latencies.append(0.0)
        if result:
            self.mesh.broadcast(machine_id, _Gossip(machine_id, encode_op(op)))
        if completion is not None:
            completion(result)
        return result

    def _make_handler(self, machine_id: str):
        def handle(envelope: Envelope) -> None:
            payload = envelope.payload
            if not isinstance(payload, _Gossip):  # pragma: no cover
                return
            self.metrics.remote_applies += 1
            ok = decode_op(payload.payload).execute(self.replicas[machine_id])
            if not ok:
                # The op succeeded at its origin but fails here — the
                # replicas have diverged and nothing will fix it.
                self.metrics.remote_failures += 1

        return handle

    # -- probes -----------------------------------------------------------------------

    def divergent_pairs(self) -> int:
        """Number of replica pairs whose states differ."""
        stores = list(self.replicas.values())
        count = 0
        for i, left in enumerate(stores):
            for right in stores[i + 1 :]:
                if not left.state_equal(right):
                    count += 1
        return count

    def all_replicas_equal(self) -> bool:
        return self.divergent_pairs() == 0
