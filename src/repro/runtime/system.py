"""System builder: wire machines, meshes and a master together.

:class:`DistributedSystem` is the top-level convenience used by tests,
examples and the evaluation kit.  It owns the scheduler (a
deterministic event loop by default), the two meshes, and the node
set, and provides the run/quiesce helpers the experiments are built on.
"""

from __future__ import annotations

from repro.core.guesstimate import Guesstimate
from repro.errors import ExperimentError, SimulationError
from repro.net.faults import FaultInjector, NoFaults
from repro.net.latency import LatencyModel, lan_profile
from repro.net.mesh import MeshPair
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import SystemMetrics
from repro.runtime.node import GuesstimateNode
from repro.runtime.tracing import Tracer
from repro.sim.eventloop import EventLoop
from repro.sim.rand import SeededSource

class Cluster:
    """What every deployment shape — simulated or socket-backed — offers
    workload drivers and probes over its ``nodes``.

    Subclasses build ``self.nodes`` (machine id -> node, master first)
    and supply the clock (``loop``, ``run_for``, ``run_until_quiesced``);
    everything judged here is judged by the same code on both.
    """

    nodes: dict[str, GuesstimateNode]

    @property
    def master_node(self) -> GuesstimateNode:
        for node in self.nodes.values():
            if node.is_master:
                return node
        raise SimulationError("cluster has no master")

    def node(self, machine_id: str) -> GuesstimateNode:
        return self.nodes[machine_id]

    def machine_ids(self) -> list[str]:
        return list(self.nodes)

    def api(self, machine_id: str) -> Guesstimate:
        """The GUESSTIMATE facade application code uses on that machine."""
        return self.nodes[machine_id].api

    def start(self, first_sync_delay: float | None = None) -> None:
        """Begin periodic synchronization (master schedules round 1)."""
        self.master_node.master.start(first_sync_delay)  # type: ignore[union-attr]

    def stop(self) -> None:
        """Stop initiating new synchronization rounds."""
        master = self.master_node.master
        if master is not None:
            master.stop()

    def shutdown(self) -> None:
        """Release sockets and loop; the simulator holds neither."""

    # -- correctness probes ------------------------------------------------------------

    def quiesced(self) -> bool:
        """No pending work anywhere and no operations in flight.

        An empty open round does not count as work: at a short
        ``sync_interval`` a sequential master runs op-less control
        rounds back to back (a concurrent one does while membership work
        keeps it busy), so a round is often open, yet every issued
        operation has long since committed everywhere.  A round carrying
        operations blocks quiescence whatever its stage: its collected
        counts are nonzero, or some live node holds op payloads for it.
        """
        master = self.master_node.master
        if master is None:  # pragma: no cover
            return False
        active = self.active_nodes()
        round_ = master.round
        if round_ is not None:
            if sum(round_.counts.values()) > 0:
                return False
            for node in active:
                state = node.synchronizer.rounds.get(round_.round_id)
                if state is not None and state.received:
                    return False
        if master.join_queue or master.awaiting_ack:
            return False
        if any(
            node.state == GuesstimateNode.STATE_JOINING for node in self.nodes.values()
        ):
            return False
        return all(node.quiesced() for node in active)

    def active_nodes(self) -> list[GuesstimateNode]:
        return [
            node
            for node in self.nodes.values()
            if node.state == GuesstimateNode.STATE_ACTIVE
        ]

    def committed_states_equal(self) -> bool:
        """Paper invariant: sc(i) = sc(j) for all active machine pairs."""
        nodes = self.active_nodes()
        if len(nodes) < 2:
            return True
        reference = nodes[0].model.committed
        return all(node.model.committed.state_equal(reference) for node in nodes[1:])

    def completed_sequences_equal(self) -> bool:
        """Paper invariant: C(i) = C(j), aligned by join offsets.

        Machines that joined (or restarted) late only see the suffix of
        the global sequence after their snapshot point, so sequences
        are compared after dropping each machine's pre-join prefix.
        """
        nodes = self.active_nodes()
        if len(nodes) < 2:
            return True
        global_len = max(
            node.completed_offset + node.model.completed_count for node in nodes
        )

        def aligned(node: GuesstimateNode) -> list[tuple[str, int, bool]]:
            entries = node.model.completed
            return [
                (entry.key.machine_id, entry.key.op_number, entry.result)
                for entry in entries
            ]

        full_nodes = [node for node in nodes if node.completed_offset == 0]
        if len(full_nodes) >= 2:
            reference = aligned(full_nodes[0])
            if any(aligned(node) != reference for node in full_nodes[1:]):
                return False
        # Late joiners: their sequence must equal the common suffix.
        for node in nodes:
            if node.completed_offset == 0 or not full_nodes:
                continue
            reference = aligned(full_nodes[0])
            expected_len = global_len - node.completed_offset
            suffix = reference[len(reference) - expected_len :] if expected_len else []
            if aligned(node) != suffix:
                return False
        return True

    def convergence_invariant_holds(self) -> bool:
        """Per-machine invariant [P](sc) = sg (valid at quiescent points)."""
        return all(
            node.model.check_convergence_invariant() for node in self.active_nodes()
        )

    def check_all_invariants(self) -> None:
        """Assert every paper invariant; call at quiescent points only."""
        if not self.committed_states_equal():
            raise SimulationError("invariant violated: committed states differ")
        if not self.completed_sequences_equal():
            raise SimulationError("invariant violated: completed sequences differ")
        if not self.convergence_invariant_holds():
            raise SimulationError("invariant violated: [P](sc) != sg")


class DistributedSystem(Cluster):
    """A complete simulated GUESSTIMATE deployment."""

    def __init__(
        self,
        n_machines: int,
        seed: int = 0,
        latency: LatencyModel | None = None,
        faults: FaultInjector | None = None,
        config: RuntimeConfig | None = None,
    ):
        if n_machines < 1:
            raise ExperimentError("need at least one machine")
        self.config = config if config is not None else RuntimeConfig()
        self.seeds = SeededSource(seed)
        self.loop = EventLoop()
        self.faults = faults if faults is not None else NoFaults()
        self.metrics = SystemMetrics()
        self.tracer = Tracer(enabled=self.config.tracing)
        self._machine_counter = 0

        self.meshes = MeshPair(
            self.loop,
            latency=latency if latency is not None else lan_profile(),
            faults=self.faults,
            rng=self.seeds.stream("net"),
        )

        self.nodes: dict[str, GuesstimateNode] = {}
        for index in range(n_machines):
            self._build_node(is_master=(index == 0), founding=True)

    # -- construction -----------------------------------------------------------

    def _next_machine_id(self) -> str:
        self._machine_counter += 1
        return f"m{self._machine_counter:02d}"

    def _build_node(self, is_master: bool, founding: bool) -> GuesstimateNode:
        machine_id = self._next_machine_id()
        node = GuesstimateNode(
            machine_id=machine_id,
            scheduler=self.loop,
            meshes=self.meshes,
            config=self.config,
            metrics_system=self.metrics,
            tracer=self.tracer,
            is_master=is_master,
        )
        self.nodes[machine_id] = node
        node.start(founding=founding)
        if founding and not is_master:
            # Founding members are participants from round one; late
            # joiners instead go through the Hello/Welcome handshake.
            self.master_node.master.participants.append(machine_id)  # type: ignore[union-attr]
        return node

    def add_machine(self) -> GuesstimateNode:
        """A new machine enters the running system (Hello/Welcome path)."""
        node = self._build_node(is_master=False, founding=False)
        return node

    # -- accessors ---------------------------------------------------------------

    def apis(self) -> list[Guesstimate]:
        return [node.api for node in self.nodes.values()]

    # -- running -------------------------------------------------------------------

    def run_for(self, seconds: float) -> None:
        """Advance virtual time by ``seconds``."""
        self.loop.run_until(self.loop.now() + seconds)

    def run_until_quiesced(self, max_time: float = 300.0) -> float:
        """Run until every issued operation has committed everywhere.

        Returns the virtual time at quiescence.  Raises if the deadline
        passes first (which in tests means the protocol wedged).
        """
        deadline = self.loop.now() + max_time
        while self.loop.now() < deadline:
            if self.quiesced():
                return self.loop.now()
            next_time = self.loop.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.loop.step()
        if self.quiesced():
            return self.loop.now()
        raise SimulationError(
            f"system did not quiesce within {max_time}s of virtual time"
        )
