"""Synchronization-pipeline throughput benchmark (``BENCH_sync.json``).

The paper's stage 1 is serial token passing, so round latency grows
linearly with the machine count.  The rebuilt pipeline adds three
levers — concurrent collection, OpBatch framing and master-side round
pipelining.  This experiment measures what they buy: per-round latency
and commit throughput versus *n* machines, for the sequential baseline
and the pipelined concurrent mode side by side.

It also validates that the levers change *performance only*: a
commit-point crash (:class:`~repro.net.faults.CommitCrashPlan`) is
injected under each collection mode and the run must converge with
every paper invariant intact (identical ``sc`` and ``C`` everywhere,
``[P](sc) = sg``).

The result serializes to the ``BENCH_sync.json`` the perf trajectory
tracks::

    python -m repro.cli syncscale --quick   # prints the report
    python -m repro.cli syncscale           # full sweep + BENCH_sync.json
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.evalkit.experiments.durability import DurableCounter
from repro.net.faults import CommitCrashPlan, ScheduledFaults
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.runtime.system import DistributedSystem

#: Modes measured side by side.  "concurrent" carries the whole
#: tentpole: parallel stage-1 collection plus pipeline depth 2 (the
#: sequential baseline keeps depth 1 — the paper's strictly phased
#: rounds — so the comparison isolates the redesign as shipped).
MODES = ("sequential", "concurrent")


@dataclass
class ModePoint:
    """One (mode, n machines) measurement."""

    mode: str
    machines: int
    rounds: int = 0
    mean_round_s: float = 0.0
    ops_committed: int = 0
    throughput_ops_s: float = 0.0
    op_batches: int = 0


@dataclass
class SyncScaleResult:
    machine_counts: list[int]
    duration: float
    points: list[ModePoint] = field(default_factory=list)
    #: mode -> True if the CommitCrashPlan run converged with all
    #: invariants intact
    fault_invariants_ok: dict[str, bool] = field(default_factory=dict)

    def series(self, mode: str) -> list[ModePoint]:
        return [p for p in self.points if p.mode == mode]

    def speedup_at(self, machines: int) -> float:
        """sequential / concurrent mean-round-latency ratio at ``machines``."""
        by_mode = {
            p.mode: p.mean_round_s for p in self.points if p.machines == machines
        }
        if by_mode.get("concurrent", 0.0) <= 0.0:
            return 0.0
        return by_mode.get("sequential", 0.0) / by_mode["concurrent"]


def _mode_config(mode: str, pipeline_depth: int, batch_max_ops: int) -> RuntimeConfig:
    if mode == "sequential":
        sync = SyncConfig(collection="sequential")  # paper baseline, depth 1
    else:
        sync = SyncConfig(
            collection="concurrent",
            batch_max_ops=batch_max_ops,
            pipeline_depth=pipeline_depth,
        )
    return RuntimeConfig(sync_interval=0.5, sync=sync)


def drive_workload(
    system: DistributedSystem, duration: float, ops_per_tick: int
) -> str:
    """Every machine issues ``ops_per_tick`` increments ~3x per round."""
    counter = system.apis()[0].create_instance(DurableCounter)
    system.run_until_quiesced()
    uid = counter.unique_id
    replicas = {
        machine_id: system.api(machine_id).join_instance(uid)
        for machine_id in system.machine_ids()
    }
    interval = system.config.sync_interval / 3.0

    def tick(machine_id: str) -> None:
        api = system.api(machine_id)
        for _ in range(ops_per_tick):
            api.invoke(replicas[machine_id], "increment", 10**9)
        if system.loop.now() < deadline:
            system.loop.call_later(interval, lambda: tick(machine_id))

    deadline = system.loop.now() + duration
    for index, machine_id in enumerate(system.machine_ids()):
        # Stagger the start so flushes are not artificially aligned.
        system.loop.call_later(0.01 * index, lambda m=machine_id: tick(m))
    system.run_for(duration)
    system.run_until_quiesced()
    return uid


def _measure(
    mode: str,
    machines: int,
    duration: float,
    seed: int,
    pipeline_depth: int,
    batch_max_ops: int,
    ops_per_tick: int,
) -> ModePoint:
    config = _mode_config(mode, pipeline_depth, batch_max_ops)
    system = DistributedSystem(n_machines=machines, seed=seed, config=config)
    system.start(first_sync_delay=0.1)
    drive_workload(system, duration, ops_per_tick)
    system.stop()
    system.check_all_invariants()

    metrics = system.metrics
    point = ModePoint(mode=mode, machines=machines)
    point.rounds = len(metrics.sync_records)
    point.mean_round_s = metrics.mean_sync_duration()
    point.ops_committed = sum(r.ops_committed for r in metrics.sync_records)
    point.throughput_ops_s = metrics.commit_throughput()
    point.op_batches = metrics.total_op_batches()
    return point


def _validate_under_commit_crash(mode: str, seed: int) -> bool:
    """CommitCrashPlan fault injection: kill m03 at a commit point,
    let the survivors advance, recover it, and check every invariant."""
    faults = ScheduledFaults(commit_crashes=[CommitCrashPlan("m03")])
    config = RuntimeConfig(
        sync_interval=0.5,
        stall_timeout=2.0,
        durability="memory",
        sync=SyncConfig(
            collection=mode,
            pipeline_depth=2 if mode == "concurrent" else 1,
        ),
    )
    system = DistributedSystem(n_machines=4, seed=seed, faults=faults, config=config)
    system.start(first_sync_delay=0.1)
    counter = system.apis()[0].create_instance(DurableCounter)
    system.run_until_quiesced()
    replicas = {
        machine_id: system.api(machine_id).join_instance(counter.unique_id)
        for machine_id in system.machine_ids()
    }

    def issue(machine_id: str, delay: float) -> None:
        system.loop.call_later(
            delay,
            lambda: system.api(machine_id).invoke(
                replicas[machine_id], "increment", 10**9
            ),
        )

    issue("m01", 0.1)
    system.run_for(8.0)  # crash at commit + stall + removal
    if system.node("m03").state != "stopped":
        return False
    for delay in (0.1, 0.6, 1.1):
        issue("m01", delay)
        issue("m02", delay + 0.2)
    system.run_for(6.0)
    system.node("m03").recover_and_rejoin()
    system.run_for(5.0)
    system.run_until_quiesced()
    try:
        system.check_all_invariants()
    except AssertionError:  # pragma: no cover - failure path
        return False
    survivors = [system.node(m) for m in ("m01", "m02", "m03", "m04")]
    return all(node.state == "active" for node in survivors)


def run(
    machine_counts: list[int] | None = None,
    duration: float = 30.0,
    seed: int = 23,
    pipeline_depth: int = 2,
    batch_max_ops: int = 64,
    ops_per_tick: int = 2,
) -> SyncScaleResult:
    counts = machine_counts if machine_counts is not None else [2, 4, 8, 16]
    result = SyncScaleResult(machine_counts=counts, duration=duration)
    for machines in counts:
        for mode in MODES:
            result.points.append(
                _measure(
                    mode,
                    machines,
                    duration,
                    seed + machines,
                    pipeline_depth,
                    batch_max_ops,
                    ops_per_tick,
                )
            )
    for mode in MODES:
        result.fault_invariants_ok[mode] = _validate_under_commit_crash(
            mode, seed
        )
    return result


def to_bench_json(result: SyncScaleResult) -> dict:
    """The ``BENCH_sync.json`` payload (stable schema for trend tooling)."""
    return {
        "benchmark": "syncscale",
        "config": {
            "machine_counts": result.machine_counts,
            "duration_s": result.duration,
        },
        "series": {
            mode: [
                {
                    "machines": p.machines,
                    "rounds": p.rounds,
                    "mean_round_latency_s": round(p.mean_round_s, 6),
                    "ops_committed": p.ops_committed,
                    "commit_throughput_ops_s": round(p.throughput_ops_s, 3),
                    "op_batches": p.op_batches,
                }
                for p in result.series(mode)
            ]
            for mode in MODES
        },
        "speedup_sequential_over_concurrent": {
            str(machines): round(result.speedup_at(machines), 3)
            for machines in result.machine_counts
        },
        "fault_invariants_ok": dict(result.fault_invariants_ok),
    }


def write_bench_json(result: SyncScaleResult, path: str = "BENCH_sync.json") -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_bench_json(result), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_report(result: SyncScaleResult) -> str:
    lines = [
        "Synchronization pipeline — round latency and commit throughput",
        f"  ({result.duration:.0f}s virtual per point; concurrent = "
        "parallel collect + OpBatch + pipeline depth 2)",
        f"  {'machines':>8} | {'mode':>10} | {'rounds':>6} | "
        f"{'mean round (ms)':>15} | {'ops/s':>8} | {'batches':>7}",
        "  " + "-" * 70,
    ]
    for machines in result.machine_counts:
        for mode in MODES:
            point = next(
                p
                for p in result.points
                if p.machines == machines and p.mode == mode
            )
            lines.append(
                f"  {machines:>8} | {mode:>10} | {point.rounds:>6} | "
                f"{point.mean_round_s * 1000:>15.1f} | "
                f"{point.throughput_ops_s:>8.1f} | {point.op_batches:>7}"
            )
    lines.append("")
    for machines in result.machine_counts:
        lines.append(
            f"  n={machines}: sequential/concurrent latency ratio "
            f"{result.speedup_at(machines):.2f}x"
        )
    lines.append("")
    for mode, ok in result.fault_invariants_ok.items():
        status = "ok" if ok else "FAILED"
        lines.append(
            f"  invariants under CommitCrashPlan ({mode}): {status}"
        )
    return "\n".join(lines)
