"""The per-node daemon: ``python -m repro.cli serve``.

One OS process runs one :class:`~repro.runtime.node.GuesstimateNode`
over the socket transport.  The daemon reads its address, role and peer
table from a ``cluster.yaml`` (see :mod:`repro.transport.config`),
binds its TCP server, dials its peers, and boots the node:

* the **master** starts founding (it owns round numbering and welcomes
  everyone else), first rebuilding committed state from its durable
  store when one exists;
* every **non-master** boots through the crash-recovery path —
  :meth:`~repro.runtime.node.GuesstimateNode.recover_and_rejoin` — which
  uniformly covers the fresh join (no durable state → Hello → snapshot
  Welcome) and the restart-after-kill (WAL replay → Hello announcing
  the recovered position → delta Welcome with just the missed commits).

If the config names this node as the gateway host, the HTTP/WebSocket
gateway of :mod:`repro.gateway` is attached to the same event loop.

``--ready-file PATH`` makes the daemon write a small JSON document once
the node reaches the active state — launchers and tests poll it instead
of sleeping.  SIGINT/SIGTERM trigger a graceful Goodbye and shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.runtime.metrics import SystemMetrics
from repro.runtime.node import GuesstimateNode
from repro.transport.config import ClusterConfig, load_cluster_config
from repro.transport.netmesh import NetworkMeshPair, NodeTransport
from repro.transport.scheduler import AsyncioScheduler


def boot_master(node: GuesstimateNode) -> None:
    """Found the cluster, resuming from durable state when present.

    The master cannot Hello anyone (there is nobody senior to welcome
    it), so instead of the recover-and-rejoin path it rebuilds committed
    state directly from its store and starts rounds from there; slaves
    then catch up through Welcome.

    A *restarted* master does not get its slaves back: it runs rounds
    alone, because slaves that are still active never send Hello
    (ROADMAP item 3; pinned by an xfail in
    ``tests/storage/test_crash_recovery.py``).
    """
    assert node.master is not None
    node.start(founding=True)
    node.resume_from_storage()
    node.master.start(None)


class NodeDaemon:
    """One node's full runtime stack on one asyncio loop."""

    def __init__(
        self,
        cluster: ClusterConfig,
        node_id: str,
        data_dir: str | None = None,
        ready_file: str | None = None,
    ):
        self.cluster = cluster
        self.spec = cluster.node(node_id)
        self.node_id = node_id
        self.data_dir = data_dir
        self.ready_file = ready_file
        self.node: GuesstimateNode | None = None
        self.transport: NodeTransport | None = None
        self.gateway = None
        self.scheduler: AsyncioScheduler | None = None
        self._stop = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind, dial, boot the node, attach the gateway if configured."""
        import repro.apps  # noqa: F401 - registers every shared type

        config = self.cluster.runtime_for(self.node_id)
        if self.data_dir is not None:
            import dataclasses

            config = dataclasses.replace(
                config, durability="disk", data_dir=self.data_dir
            )

        self.scheduler = AsyncioScheduler(asyncio.get_running_loop())
        self.transport = NodeTransport(
            self.node_id,
            host=self.spec.host,
            port=self.spec.port,
            scheduler=self.scheduler,
        )
        await self.transport.start()
        self.transport.set_peers(self.cluster.peers_for(self.node_id))
        meshes = NetworkMeshPair(self.transport)

        self.node = GuesstimateNode(
            machine_id=self.node_id,
            scheduler=self.scheduler,
            meshes=meshes,
            config=config,
            metrics_system=SystemMetrics(),
            is_master=self.spec.master,
        )
        if self.spec.master:
            boot_master(self.node)
        else:
            # Initial state is "stopped" — exactly what the crash-
            # recovery entry point expects, whether or not a durable
            # store exists yet.
            self.node.recover_and_rejoin()

        gateway_spec = self.cluster.gateway
        if gateway_spec is not None and gateway_spec.node == self.node_id:
            from repro.gateway.server import GatewayServer

            self.gateway = GatewayServer(
                self.node, host=gateway_spec.host, port=gateway_spec.port
            )
            await self.gateway.start()

        if self.ready_file is not None:
            asyncio.get_running_loop().create_task(self._write_ready_file())

    async def _write_ready_file(self) -> None:
        assert self.node is not None and self.transport is not None
        while self.node.state != GuesstimateNode.STATE_ACTIVE:
            await asyncio.sleep(0.02)
        document = {
            "node_id": self.node_id,
            "state": self.node.state,
            "port": self.transport.port,
            "gateway_port": self.gateway.port if self.gateway is not None else None,
        }
        assert self.ready_file is not None
        with open(self.ready_file, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    def request_stop(self) -> None:
        self._stop.set()

    async def run(self) -> None:
        """Start, serve until signalled, shut down cleanly."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        await self._stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        if self.gateway is not None:
            await self.gateway.stop()
        if self.node is not None:
            if self.node.state == GuesstimateNode.STATE_ACTIVE:
                self.node.leave()  # Goodbye + storage close
            else:
                self.node.halt()
        # Let the Goodbye frame drain out of the socket buffers.
        await asyncio.sleep(0.05)
        if self.transport is not None:
            await self.transport.stop()


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli serve", description="Run one GUESSTIMATE node daemon."
    )
    parser.add_argument("--node-id", required=True, help="node id from the config")
    parser.add_argument("--config", required=True, help="path to cluster.yaml")
    parser.add_argument(
        "--data-dir", default=None, help="override this node's durable data dir"
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write a JSON status document here once the node is active",
    )
    args = parser.parse_args(argv)

    cluster = load_cluster_config(args.config)
    daemon = NodeDaemon(
        cluster,
        args.node_id,
        data_dir=args.data_dir,
        ready_file=args.ready_file,
    )
    print(
        f"[{args.node_id}] serving on {daemon.spec.host}:{daemon.spec.port}"
        f" ({'master' if daemon.spec.master else 'slave'})",
        file=sys.stderr,
    )
    asyncio.run(daemon.run())
    print(f"[{args.node_id}] stopped", file=sys.stderr)
    return 0
