"""Loopback harness: the real transport under the simulator's oracles.

The deterministic simulator is the reproduction's verification twin;
this module points the same workloads and invariant probes at a
cluster of nodes that genuinely talk TCP on 127.0.0.1.

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

:func:`run_scenario_loopback` runs the faultless projection of a
simfuzz scenario against sockets and judges it with the simulator's own
probes (committed-prefix agreement, storage replay, runtime
invariants); :func:`sweep_seeds` is the CI sweep driver mirroring
:func:`repro.simtest.fuzz.run_seeds`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.core.guesstimate import Guesstimate
from repro.errors import ExperimentError, GuesstimateError, SimulationError
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
        machine_prefix: str = "m",
    ):
        if n_machines < 1:
            raise ExperimentError("need at least one machine")
        self.n_machines = n_machines
        self.config = config if config is not None else RuntimeConfig()
        self.seed = seed
        self.machine_prefix = machine_prefix
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
        machine_ids = [
            f"{self.machine_prefix}{i:02d}" for i in range(1, self.n_machines + 1)
        ]
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


# ---------------------------------------------------------------------------
# simfuzz over sockets
# ---------------------------------------------------------------------------


@dataclass
class LoopbackOutcome:
    """One scenario's socket run (mirrors ``fuzz.SeedOutcome``)."""

    seed: int
    violations: list[str]
    committed_total: int
    actions: int
    virtual_end: float
    trace_digest: str | None = None  # loopback runs record no trace


@dataclass
class LoopbackReport:
    """A loopback seed sweep (mirrors ``fuzz.FuzzReport``)."""

    seeds_run: int = 0
    failures: list[LoopbackOutcome] = field(default_factory=list)
    outcomes: list[LoopbackOutcome] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def scale_scenario(spec, time_scale: float = 0.1, max_duration: float = 2.5):
    """The faultless, wall-clock-budgeted projection of a sim scenario.

    Fault and churn plans are cleared — socket runs exercise real
    connection loss separately (see the reconnect tests); here the
    question is whether the *healthy-path* protocol behaves identically
    over TCP.  Time-like fields shrink by ``time_scale`` (with floors
    that keep wall-clock timers meaningful) so a 60-virtual-second
    scenario costs ~2 wall seconds.
    """
    from repro.simtest.scenario import ScenarioSpec  # local: keep import light

    assert isinstance(spec, ScenarioSpec)
    return dataclasses.replace(
        spec,
        duration=min(max_duration, spec.duration * time_scale),
        sync_interval=max(0.05, spec.sync_interval * time_scale),
        stall_timeout=max(0.5, spec.stall_timeout * time_scale),
        think_mean=max(0.04, spec.think_mean * time_scale),
        drops=(),
        crashes=(),
        partitions=(),
        commit_crashes=(),
        churn=(),
    )


def run_scenario_loopback(
    spec, time_scale: float = 0.1, max_duration: float = 2.5
) -> LoopbackOutcome:
    """Run one scenario's faultless projection over real sockets.

    Judged by the simulator's own oracles: committed-prefix agreement
    (checkpoint probe), storage replay, and the cluster invariants at
    quiescence.  Never raises — failures become violations, so sweeps
    keep going.
    """
    from repro.simtest.probes import checkpoint_probe, storage_probe
    from repro.simtest.runner import build_config
    from repro.simtest.workload import build_workload

    scaled = scale_scenario(spec, time_scale=time_scale, max_duration=max_duration)
    Guesstimate._reset_id_counter()
    cluster = LoopbackCluster(
        scaled.n_machines, config=build_config(scaled), seed=scaled.seed
    )
    violations: list[str] = []
    actions = 0
    committed_total = 0
    try:
        cluster.boot()
        cluster.start(first_sync_delay=0.05)
        workload = build_workload(scaled, cluster)
        workload.setup()
        workload.start()
        cluster.run_for(scaled.duration)
        workload.stop()
        actions = workload.actions()
        try:
            cluster.run_until_quiesced(max_time=10.0 + 10.0 * scaled.stall_timeout)
        except SimulationError as exc:
            violations.append(f"wedged: {exc}")
        else:
            violations.extend(checkpoint_probe(cluster))
            violations.extend(storage_probe(cluster))
            try:
                cluster.check_all_invariants()
            except GuesstimateError as exc:
                violations.append(f"runtime invariant: {exc}")
        violations.extend(
            f"scheduler callback raised: {error!r}" for error in cluster.loop.errors
        )
        master = cluster.master_node
        committed_total = master.completed_offset + master.model.completed_count
    except Exception as exc:  # noqa: BLE001 - a crash IS a finding
        violations.append(f"loopback runtime exception: {exc!r}")
    finally:
        try:
            cluster.shutdown()
        except Exception as exc:  # noqa: BLE001 - teardown must not mask
            violations.append(f"shutdown failed: {exc!r}")
    return LoopbackOutcome(
        seed=spec.seed,
        violations=violations,
        committed_total=committed_total,
        actions=actions,
        virtual_end=scaled.duration,
    )


def sweep_seeds(
    n_seeds: int,
    start: int = 0,
    max_time: float | None = None,
    trace_dir: str | None = None,
    progress=None,
    workload: str | None = None,
) -> LoopbackReport:
    """Run a seed range over loopback sockets (CI's transport sweep)."""
    from repro.simtest.scenario import generate_scenario

    report = LoopbackReport()
    clock_start = time.monotonic()
    for seed in range(start, start + n_seeds):
        if max_time is not None and time.monotonic() - clock_start > max_time:
            report.stopped_early = True
            break
        spec = generate_scenario(seed, workload=workload)
        outcome = run_scenario_loopback(spec)
        report.seeds_run += 1
        report.outcomes.append(outcome)
        if outcome.violations:
            report.failures.append(outcome)
            if trace_dir is not None:
                os.makedirs(trace_dir, exist_ok=True)
                path = os.path.join(trace_dir, f"seed-{seed}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(
                        {
                            "seed": seed,
                            "transport": "loopback",
                            "spec": spec.to_dict(),
                            "scaled_spec": scale_scenario(spec).to_dict(),
                            "violations": outcome.violations,
                        },
                        handle,
                        indent=2,
                        sort_keys=True,
                    )
        if progress is not None:
            progress(outcome)
    return report
