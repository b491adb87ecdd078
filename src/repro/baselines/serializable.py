"""One-copy serializability baseline.

Every operation is sent to a coordinator, applied there in arrival
order, and broadcast to all replicas; the *issuing client blocks* until
it sees its own operation come back applied.  This is the classic
"best consistency, worst responsiveness" point: issue latency is at
least a coordinator round trip, versus GUESSTIMATE's zero.

Implementation notes: runs on the same scheduler/mesh primitives as the
real runtime.  Results are reported through completion callbacks (the
event-loop analogue of blocking), and per-operation issue->result
latency is recorded — the headline number of the ablation.
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
class _Request:
    """Client -> coordinator."""

    client_id: str
    request_id: int
    payload: dict


@dataclass(frozen=True)
class _Apply:
    """Coordinator -> everyone: op #seq is decided."""

    seq: int
    client_id: str
    request_id: int
    payload: dict
    result: bool


@dataclass
class BaselineMetrics:
    """What the ablation reads off a baseline run."""

    ops_issued: int = 0
    ops_applied: int = 0
    issue_latencies: list[float] = field(default_factory=list)

    def mean_issue_latency(self) -> float:
        if not self.issue_latencies:
            return 0.0
        return sum(self.issue_latencies) / len(self.issue_latencies)


class OneCopySerializable:
    """A coordinator-ordered, blocking-write replicated store."""

    def __init__(
        self,
        n_machines: int,
        scheduler: Scheduler,
        latency: LatencyModel,
        rng: random.Random | None = None,
    ):
        self.scheduler = scheduler
        self.mesh = Mesh("serializable", scheduler, latency, rng=rng)
        self.metrics = BaselineMetrics()
        self.machine_ids = [f"s{index + 1:02d}" for index in range(n_machines)]
        self.coordinator_id = self.machine_ids[0]
        self.replicas: dict[str, ObjectStore] = {
            machine_id: ObjectStore(machine_id) for machine_id in self.machine_ids
        }
        self._seq = 0
        self._next_request = 0
        self._waiting: dict[tuple[str, int], tuple[float, Callable[[bool], None]]] = {}
        # Per-replica in-order delivery: the mesh reorders broadcasts
        # (independent latencies), but serializability requires applying
        # decisions in sequence order, so each replica holds back
        # early arrivals.
        self._next_to_apply: dict[str, int] = {m: 1 for m in self.machine_ids}
        self._holdback: dict[str, dict[int, _Apply]] = {
            m: {} for m in self.machine_ids
        }
        for machine_id in self.machine_ids:
            self.mesh.join(machine_id, self._make_handler(machine_id))

    # -- client API -----------------------------------------------------------------

    def issue(
        self,
        machine_id: str,
        op: SharedOp,
        completion: Callable[[bool], None] | None = None,
    ) -> None:
        """Submit ``op``; ``completion`` fires when the client unblocks.

        The client is blocked from issue until its own _Apply arrives —
        the latency recorded is exactly that blocking time.
        """
        self.metrics.ops_issued += 1
        self._next_request += 1
        request = _Request(machine_id, self._next_request, encode_op(op))
        key = (machine_id, request.request_id)
        self._waiting[key] = (self.scheduler.now(), completion or (lambda _ok: None))
        if machine_id == self.coordinator_id:
            self._coordinate(request)
        else:
            self.mesh.send(machine_id, self.coordinator_id, request)

    # -- message handling --------------------------------------------------------------

    def _make_handler(self, machine_id: str):
        def handle(envelope: Envelope) -> None:
            payload = envelope.payload
            if isinstance(payload, _Request) and machine_id == self.coordinator_id:
                self._coordinate(payload)
            elif isinstance(payload, _Apply):
                self._apply(machine_id, payload)

        return handle

    def _coordinate(self, request: _Request) -> None:
        """Order and apply at the coordinator, then broadcast."""
        op = decode_op(request.payload)
        result = op.execute(self.replicas[self.coordinator_id])
        self._seq += 1
        decision = _Apply(
            self._seq, request.client_id, request.request_id, request.payload, result
        )
        self.metrics.ops_applied += 1
        self._next_to_apply[self.coordinator_id] = decision.seq + 1
        self.mesh.broadcast(self.coordinator_id, decision)
        self._complete_if_local(self.coordinator_id, decision)

    def _apply(self, machine_id: str, decision: _Apply) -> None:
        self._holdback[machine_id][decision.seq] = decision
        while True:
            seq = self._next_to_apply[machine_id]
            ready = self._holdback[machine_id].pop(seq, None)
            if ready is None:
                return
            decode_op(ready.payload).execute(self.replicas[machine_id])
            self._next_to_apply[machine_id] = seq + 1
            self._complete_if_local(machine_id, ready)

    def _complete_if_local(self, machine_id: str, decision: _Apply) -> None:
        if decision.client_id != machine_id:
            return
        key = (decision.client_id, decision.request_id)
        waiting = self._waiting.pop(key, None)
        if waiting is None:  # pragma: no cover - duplicate delivery
            return
        issued_at, completion = waiting
        self.metrics.issue_latencies.append(self.scheduler.now() - issued_at)
        completion(decision.result)

    # -- probes ----------------------------------------------------------------------------

    def all_replicas_equal(self) -> bool:
        reference = self.replicas[self.coordinator_id]
        return all(store.state_equal(reference) for store in self.replicas.values())

    def pending(self) -> int:
        return len(self._waiting)
