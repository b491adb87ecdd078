"""Loopback harness: a whole cluster of real TCP nodes on 127.0.0.1.

:class:`LoopbackCluster` shares the driver surface of
:class:`~repro.runtime.system.DistributedSystem` (``nodes``, ``api``,
the invariant checks — one :class:`~repro.runtime.system.Cluster` base)
and supplies its own clock (``loop.call_later``, ``run_for``,
``run_until_quiesced``), so workload sessions, simfuzz workloads and
probes run *unmodified* — the only difference is that ``run_for``
advances wall clock with sockets underneath instead of virtual time.
All nodes live on one asyncio loop in one process, each with its own
:class:`~repro.transport.netmesh.NodeTransport` (own TCP server, own
peer links), so every inter-node message really crosses a socket.

This makes it the simulator's verification twin: simfuzz runs its
scenarios on it through the one runner
(``repro.simtest.runner.run_scenario(spec, transport="loopback")``),
judged by every probe a simulated run faces.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time

from repro.errors import ExperimentError, SimulationError
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import SystemMetrics
from repro.runtime.node import GuesstimateNode
from repro.runtime.system import Cluster
from repro.transport.netmesh import NetworkMeshPair, NodeTransport
from repro.transport.scheduler import AsyncioScheduler


class LoopbackCluster(Cluster):
    """N socket-backed nodes on one asyncio loop, one per transport."""

    def __init__(
        self,
        n_machines: int,
        config: RuntimeConfig | None = None,
        seed: int = 0,
    ):
        if n_machines < 1:
            raise ExperimentError("need at least one machine")
        self.n_machines = n_machines
        self.config = config if config is not None else RuntimeConfig()
        self.seed = seed
        self.aio_loop = asyncio.new_event_loop()
        #: Scheduler facade — what workload drivers call ``system.loop``.
        self.loop = AsyncioScheduler(self.aio_loop)
        self.metrics = SystemMetrics()
        self.nodes: dict[str, GuesstimateNode] = {}
        self.transports: dict[str, NodeTransport] = {}
        self._thread: threading.Thread | None = None

    # -- construction --------------------------------------------------------

    def boot(self) -> None:
        """Bind every server, dial every link, start every node."""
        self.aio_loop.run_until_complete(self._start_transports())
        machine_ids = list(self.transports)
        for index, machine_id in enumerate(machine_ids):
            node = GuesstimateNode(
                machine_id=machine_id,
                scheduler=self.loop,
                meshes=NetworkMeshPair(self.transports[machine_id]),
                config=self.config,
                metrics_system=self.metrics,
                is_master=(index == 0),
            )
            self.nodes[machine_id] = node
            node.start(founding=True)
        master = self.master_node.master
        assert master is not None
        master.participants.extend(machine_ids[1:])

    async def _start_transports(self) -> None:
        machine_ids = [f"m{i:02d}" for i in range(1, self.n_machines + 1)]
        addresses: dict[str, tuple[str, int]] = {}
        for machine_id in machine_ids:
            transport = NodeTransport(machine_id, port=0, scheduler=self.loop)
            host, port = await transport.start()
            self.transports[machine_id] = transport
            addresses[machine_id] = (host, port)
        for machine_id, transport in self.transports.items():
            transport.set_peers(
                {mid: addr for mid, addr in addresses.items() if mid != machine_id}
            )

    # -- the clock (the rest of the driver surface is Cluster's) -------------

    def run_for(self, seconds: float) -> None:
        """Run the loop (sockets, timers, handlers) for wall-clock time."""
        self.aio_loop.run_until_complete(asyncio.sleep(seconds))

    def run_until_quiesced(self, max_time: float = 30.0) -> float:
        deadline = time.monotonic() + max_time
        while time.monotonic() < deadline:
            if self.quiesced():
                return self.loop.now()
            self.run_for(0.02)
        if self.quiesced():
            return self.loop.now()
        raise SimulationError(
            f"cluster did not quiesce within {max_time}s of wall-clock time"
        )

    # -- teardown ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop rounds, close every socket, close the loop."""
        if self._thread is not None:
            self.stop_thread()
        self.stop()
        self.aio_loop.run_until_complete(self._stop_transports())
        self.aio_loop.run_until_complete(asyncio.sleep(0))
        self.aio_loop.close()

    async def _stop_transports(self) -> None:
        for transport in self.transports.values():
            await transport.stop()

    # -- threaded mode (for blocking external clients, e.g. the gateway) -----

    def run_in_thread(self) -> None:
        """Run the loop on a daemon thread until :meth:`stop_thread`.

        Needed when a *blocking* client (the gateway's test client, say)
        must talk to the cluster from the main thread: the loop has to
        keep serving while the caller blocks in ``urllib``.
        """
        if self._thread is not None:
            return

        def run() -> None:
            asyncio.set_event_loop(self.aio_loop)
            self.aio_loop.run_forever()

        self._thread = threading.Thread(target=run, name="loopback-loop", daemon=True)
        self._thread.start()

    def call(self, fn, timeout: float = 10.0):
        """Run ``fn()`` on the loop thread; return its result (threaded mode)."""
        future: concurrent.futures.Future = concurrent.futures.Future()

        def invoke() -> None:
            try:
                future.set_result(fn())
            except BaseException as exc:  # noqa: BLE001 - marshal to caller
                future.set_exception(exc)

        self.aio_loop.call_soon_threadsafe(invoke)
        return future.result(timeout=timeout)

    def stop_thread(self) -> None:
        if self._thread is None:
            return
        self.aio_loop.call_soon_threadsafe(self.aio_loop.stop)
        self._thread.join(timeout=10.0)
        self._thread = None
