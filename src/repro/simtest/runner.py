"""Scenario execution: spec in, violations + trace out.

The runner owns the full life of one scenario run, on either cluster:

1. build the cluster from the spec (durability on, the sync config
   spelled out field by field) — a simulated
   :class:`~repro.runtime.system.DistributedSystem` (``transport="sim"``)
   or a :class:`~repro.transport.loopback.LoopbackCluster` of real TCP
   sockets on 127.0.0.1 running :func:`scale_scenario`'s projection of
   the spec (``transport="loopback"``);
2. run workload setup to a quiescent baseline, *then* install the
   fault plan with its windows shifted past setup — chaos belongs in
   steady state, not in object creation;
3. schedule the churn plan (joins, offline excursions, hard kills,
   commit-crash recoveries) as simulated-time callbacks;
4. advance in checkpoint chunks, probing committed-prefix agreement
   and storage consistency at each checkpoint;
5. stop the workload, bring every stopped/offline machine home, drain
   to quiescence, and run the deep probes (runtime invariants, formal
   invariants, simulation-relation replay, storage replay).

Steps 2–5 are one code path for both clusters, so a socket run faces
the same probes as a simulated one.  Only the simulator records a
trace (the recorder hooks its event loop); times in violations and
``virtual_end`` are measured from the cluster's start (virtual
seconds, or wall seconds over sockets).

Everything observable lands in :class:`RunResult`; the run itself
never raises — wedges, unexpected exceptions and scheduler callback
errors become violations so the fuzzer can keep sweeping seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.guesstimate import Guesstimate
from repro.errors import GuesstimateError, RuntimeFailure
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.runtime.system import Cluster, DistributedSystem
from repro.simtest.mutations import apply_mutation
from repro.simtest.probes import (
    atomic_probe,
    checkpoint_probe,
    commute_probe,
    counter_conservation_probe,
    footprint_probe,
    guess_divergence_probe,
    list_oracle_probe,
    quiescence_probe,
    storage_probe,
)
from repro.simtest.scenario import ScenarioSpec, build_faults
from repro.simtest.trace import SimTrace, SimTraceRecorder
from repro.simtest.workload import build_workload
from repro.transport.loopback import LoopbackCluster

#: Probe cadence in simulated seconds while the workload runs.
CHECKPOINT_EVERY = 5.0

#: The workload-zoo convergence probes, all safe at arbitrary times:
#: they run at every checkpoint and again at final quiescence.
CONVERGENCE_PROBES = (
    guess_divergence_probe,
    list_oracle_probe,
    counter_conservation_probe,
    atomic_probe,
)


#: Static/dynamic effect-agreement probes.  They replay whole committed
#: streams, so they run once, at final quiescence only.
EFFECT_PROBES = (
    footprint_probe,
    commute_probe,
)


def _convergence_violations(system: DistributedSystem) -> list[str]:
    violations: list[str] = []
    for probe in CONVERGENCE_PROBES:
        violations.extend(probe(system))
    return violations


def _effect_violations(system: DistributedSystem) -> list[str]:
    violations: list[str] = []
    for probe in EFFECT_PROBES:
        violations.extend(probe(system))
    return violations


@dataclass
class RunResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    violations: list[str] = field(default_factory=list)
    trace: SimTrace | None = None
    wedged: bool = False
    committed_total: int = 0
    actions: int = 0
    virtual_end: float = 0.0
    #: whole-system operation counters (issued / rejected-at-issue /
    #: committed-ok / committed-failed / conflicts), aggregated from
    #: :class:`~repro.runtime.metrics.SystemMetrics` — the raw material
    #: of the evalkit's per-workload conflict report.
    op_metrics: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.violations)


def build_config(spec: ScenarioSpec) -> RuntimeConfig:
    """The runtime configuration a spec describes (durability on)."""
    return RuntimeConfig(
        sync_interval=spec.sync_interval,
        stall_timeout=spec.stall_timeout,
        sync=SyncConfig(
            collection=spec.collection,
            batch_max_ops=spec.batch_max_ops,
        ),
        durability="memory",
        snapshot_interval=spec.snapshot_interval,
        # Every fuzzed round cross-checks the delta guess-refresh
        # against a full shadow rebuild: [P](sc) must equal sg.  A
        # divergence raises RuntimeFailure, which the runner records
        # as a violation on the failing seed.
        refresh_oracle=True,
    )


#: What a loopback run multiplies the scenario's time-like fields by.
TIME_SCALE = 0.1


def scale_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """The faultless, wall-clock-budgeted projection a loopback run executes.

    Fault and churn plans are cleared — socket runs exercise real
    connection loss separately (see the reconnect tests); here the
    question is whether the *healthy-path* protocol behaves identically
    over TCP.  Time-like fields shrink by ``TIME_SCALE`` (with floors
    that keep wall-clock timers meaningful, and the workload capped at
    2.5 s) so a 60-virtual-second scenario costs ~2 wall seconds.
    """
    return dataclasses.replace(
        spec,
        duration=min(2.5, spec.duration * TIME_SCALE),
        sync_interval=max(0.05, spec.sync_interval * TIME_SCALE),
        stall_timeout=max(0.5, spec.stall_timeout * TIME_SCALE),
        think_mean=max(0.04, spec.think_mean * TIME_SCALE),
        drops=(),
        crashes=(),
        partitions=(),
        commit_crashes=(),
        churn=(),
    )


def _build_cluster(spec: ScenarioSpec, transport: str) -> Cluster:
    """The cluster ``spec`` runs on, booted and ready to start."""
    if transport == "sim":
        return DistributedSystem(spec.n_machines, seed=spec.seed, config=build_config(spec))
    if transport == "loopback":
        cluster = LoopbackCluster(spec.n_machines, config=build_config(spec), seed=spec.seed)
        cluster.boot()
        return cluster
    raise ValueError(f"unknown transport {transport!r}")


def run_scenario(
    spec: ScenarioSpec,
    record_trace: bool = True,
    mutation: str | None = None,
    transport: str = "sim",
) -> RunResult:
    """Execute one scenario start to finish; never raises once booted.

    ``transport="loopback"`` runs :func:`scale_scenario`'s projection of
    ``spec`` over real sockets and records no trace.
    """
    # The facade's instance counter is process-global; replaying a seed
    # in the same process must mint the same unique ids.
    Guesstimate._reset_id_counter()

    run_spec = scale_scenario(spec) if transport == "loopback" else spec
    system = _build_cluster(run_spec, transport)
    origin = system.loop.now()
    result = RunResult(spec=spec)
    recorder = SimTraceRecorder(system) if record_trace and transport == "sim" else None
    if recorder is not None:
        result.trace = recorder.attach()

    with apply_mutation(mutation):
        try:
            _execute(system, run_spec, result, origin)
        except Exception as exc:  # noqa: BLE001 - a crash IS a finding
            result.violations.append(
                f"t={system.loop.now() - origin:.2f} runtime exception: {exc!r}"
            )
    # The simulator's callbacks raise through run_for; a wall-clock
    # scheduler must keep serving, so it collects them instead.
    result.violations.extend(
        f"scheduler callback raised: {error!r}"
        for error in getattr(system.loop, "errors", ())
    )
    if recorder is not None:
        recorder.detach()
    result.virtual_end = system.loop.now() - origin
    try:
        system.shutdown()
    except Exception as exc:  # noqa: BLE001 - teardown must not mask
        result.violations.append(f"shutdown failed: {exc!r}")
    master = system.master_node
    result.committed_total = master.completed_offset + master.model.completed_count
    nodes = system.metrics.node_metrics.values()
    result.op_metrics = {
        "issued": system.metrics.total_issued(),
        "rejected_at_issue": sum(n.ops_rejected_at_issue for n in nodes),
        "committed_ok": sum(n.ops_committed_ok for n in nodes),
        "committed_failed": sum(n.ops_committed_failed for n in nodes),
        "conflicts": system.metrics.total_conflicts(),
    }
    return result


def _execute(system: Cluster, spec: ScenarioSpec, result: RunResult, origin: float) -> None:
    loop = system.loop
    system.start(first_sync_delay=0.1)
    workload = build_workload(spec, system)
    workload.setup()

    # Steady state reached: arm the fault plan relative to *now*.
    t0 = loop.now()
    injector = build_faults(spec, offset=t0)
    for node in system.nodes.values():
        node.meshes.signals.faults = injector
        node.meshes.operations.faults = injector
    _schedule_churn(system, spec, workload)

    workload.start()
    end = t0 + spec.duration
    while loop.now() < end - 1e-9:
        system.run_for(min(CHECKPOINT_EVERY, end - loop.now()))
        now = loop.now() - origin
        checks = (
            checkpoint_probe(system)
            + storage_probe(system)
            + _convergence_violations(system)
        )
        for violation in checks:
            result.violations.append(f"t={now:.2f} {violation}")

    workload.stop()
    result.actions = workload.actions()
    _bring_everyone_home(system)
    system.run_for(2.0 * spec.sync_interval)
    try:
        system.run_until_quiesced(max_time=60.0 + 20.0 * spec.stall_timeout)
    except GuesstimateError as exc:
        result.wedged = True
        result.violations.append(f"t={loop.now() - origin:.2f} wedged: {exc}")
        return
    now = loop.now() - origin
    deep = (
        quiescence_probe(system)
        + storage_probe(system)
        + checkpoint_probe(system)
        + _convergence_violations(system)
        + _effect_violations(system)
    )
    result.violations.extend(f"t={now:.2f} {violation}" for violation in deep)


def _schedule_churn(system: DistributedSystem, spec: ScenarioSpec, workload) -> None:
    loop = system.loop

    def join() -> None:
        node = system.add_machine()
        workload.on_join(node.machine_id)

    def go_offline(machine_id: str, attempts: int = 40) -> None:
        node = system.nodes.get(machine_id)
        if node is None or node.state != "active":
            return  # crashed away or already churned; skip the excursion
        try:
            node.go_offline()
        except RuntimeFailure:
            # Mid-synchronization; a user would retry after the round.
            if attempts > 0:
                loop.call_later(0.5, lambda: go_offline(machine_id, attempts - 1))

    def come_online(machine_id: str) -> None:
        node = system.nodes.get(machine_id)
        if node is not None and node.state == "offline":
            node.come_online()

    def halt(machine_id: str) -> None:
        node = system.nodes.get(machine_id)
        if node is not None and node.state in ("active", "joining"):
            node.halt()

    def recover(machine_id: str) -> None:
        node = system.nodes.get(machine_id)
        if node is not None and node.state == "stopped":
            node.recover_and_rejoin()

    for event in spec.churn:
        if event.kind == "join":
            loop.call_later(event.at, join)
        elif event.kind == "offline":
            loop.call_later(event.at, lambda m=event.machine: go_offline(m))
            loop.call_later(
                event.at + event.duration, lambda m=event.machine: come_online(m)
            )
        elif event.kind == "halt":
            loop.call_later(event.at, lambda m=event.machine: halt(m))
            loop.call_later(
                event.at + event.duration, lambda m=event.machine: recover(m)
            )
    for crash in spec.commit_crashes:
        loop.call_later(crash.recover_at, lambda m=crash.machine: recover(m))


def _bring_everyone_home(system: DistributedSystem) -> None:
    """Recover every stopped machine and reconnect every offline one,
    so the final convergence check covers the whole cluster."""
    for node in system.nodes.values():
        if node.state == "stopped":
            node.recover_and_rejoin()
        elif node.state == "offline":
            node.come_online()
