"""Real asyncio TCP transport for the GUESSTIMATE runtime.

The paper's implementation ran on real machines over .NET PeerChannel;
everything in this reproduction so far ran the same runtime over the
simulated :class:`~repro.net.mesh.Mesh`.  This package closes the gap:
:class:`~repro.transport.netmesh.NetworkMesh` carries the
:class:`~repro.net.interface.BroadcastChannel` over length-prefixed
TCP frames (the registry codec of
:mod:`repro.storage.codec` on the wire), so ``GuesstimateNode`` and
``Synchronizer`` run over real sockets unmodified.

Layers, bottom to top:

* :mod:`repro.transport.framing` — length-prefixed wire frames with an
  incremental decoder (split/partial/coalesced reads).
* :mod:`repro.transport.scheduler` — :class:`AsyncioScheduler`, the
  :class:`~repro.sim.scheduler.Scheduler` adapter over an asyncio loop.
* :mod:`repro.transport.netmesh` — :class:`NodeTransport` (one TCP
  server + one outbound :class:`PeerLink` per peer, reconnect with
  exponential backoff, per-channel sequence numbers) and
  :class:`NetworkMesh`/:class:`NetworkMeshPair`, the socket carrier of
  the shared channel.
* :mod:`repro.transport.config` — ``cluster.yaml`` loading with
  ``${VAR}`` environment expansion.
* :mod:`repro.transport.daemon` — the per-node process behind
  ``python -m repro.cli serve``.
* :mod:`repro.transport.loopback` — the verification twin: whole
  clusters on 127.0.0.1 sockets in one process, on which simfuzz's one
  scenario runner (``run_scenario(..., transport="loopback")``) runs
  the same workloads and probes as on the simulator.
"""

from repro.transport.framing import FrameDecoder, WireFrame, encode_frame
from repro.transport.netmesh import (
    NetworkMesh,
    NetworkMeshPair,
    NodeTransport,
    TransportStats,
)
from repro.transport.scheduler import AsyncioScheduler

__all__ = [
    "AsyncioScheduler",
    "FrameDecoder",
    "NetworkMesh",
    "NetworkMeshPair",
    "NodeTransport",
    "TransportStats",
    "WireFrame",
    "encode_frame",
]
