"""Phase-attributed round profiler (``BENCH_phases.json``).

Where does a commit round's *wall* time go?  The simulator's virtual
clock answers protocol questions (hops, CPU model, latency); this
experiment answers the complementary implementation question: of the
Python work actually executed per round, how much is **encode**
(codec + framing), **transport** (fan-out scheduling), **apply**
(decode + execute against the committed store), and **refresh** (guess
rebuild)?

It attaches one :class:`~repro.runtime.profiling.PhaseProfiler` to
every node of a concurrent-mode cluster via
:meth:`DistributedSystem.attach_profiler
<repro.runtime.system.DistributedSystem.attach_profiler>`, drives the
same increment workload ``syncscale`` uses, and reports per-phase
seconds / call counts / mean span cost.  A set of standalone
microbenchmarks sizes the individual hot-path pieces the flattening
work targets: one ``encode_wire``/``decode_wire`` round trip, and a
frame fan-out with and without the encode-once payload path.

The output feeds the CI phase gate::

    python -m repro.cli roundprof --quick      # print the breakdown
    python -m repro.cli roundprof              # + write BENCH_phases.json
    python -m repro.evalkit.phasegate          # compare to phase-budgets.json

``docs/PROFILING.md`` explains how to read and re-baseline the numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

from repro.evalkit.experiments.syncscale import drive_workload
from repro.runtime import messages as msg
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.runtime.profiling import PHASES, PhaseProfiler
from repro.runtime.system import DistributedSystem
from repro.storage.codec import decode_wire, encode_wire
from repro.transport.framing import (
    WireFrame,
    encode_frame,
    encode_frame_with_payload,
    encode_payload,
)


@dataclass
class RoundProfResult:
    machines: int
    duration: float
    rounds: int = 0
    ops_committed: int = 0
    #: phase -> {"seconds": .., "calls": .., "mean_us": ..}
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    #: microbenchmark name -> mean microseconds per call
    micro: dict[str, float] = field(default_factory=dict)

    def share(self, phase: str) -> float:
        total = sum(p["seconds"] for p in self.phases.values())
        if total <= 0.0:
            return 0.0
        return self.phases[phase]["seconds"] / total


def _profiled_run(
    machines: int, duration: float, seed: int, ops_per_tick: int
) -> tuple[PhaseProfiler, int, int]:
    """Drive the syncscale increment workload with a live profiler."""
    config = RuntimeConfig(
        sync_interval=0.5,
        sync=SyncConfig(
            collection="concurrent",
            batch_max_ops=64,
            pipeline_depth=2,
        ),
    )
    system = DistributedSystem(n_machines=machines, seed=seed, config=config)
    profiler = system.attach_profiler(PhaseProfiler())
    system.start(first_sync_delay=0.1)
    drive_workload(system, duration, ops_per_tick)
    system.stop()
    system.check_all_invariants()
    metrics = system.metrics
    rounds = len(metrics.sync_records)
    ops = sum(r.ops_committed for r in metrics.sync_records)
    return profiler, rounds, ops


def _mean_us(work, repeats: int) -> float:
    """Mean wall microseconds of ``work()`` over ``repeats`` calls."""
    work()  # warm caches (field tuples, memoized encoders) first
    started = perf_counter()
    for _ in range(repeats):
        work()
    return (perf_counter() - started) / repeats * 1e6


def _microbench(repeats: int) -> dict[str, float]:
    """Size the individual hot-path pieces outside the simulator."""
    ops = tuple(
        (
            number,
            {
                "kind": "primitive",
                "object": f"counter-{number % 4:02d}",
                "method": "increment",
                "args": [10**9],
            },
        )
        for number in range(32)
    )
    batch = msg.OpBatch(7, "m03", 0, 1, ops)
    wire = encode_wire(batch)
    frame = WireFrame("ops", "m03", "m07", 41, 12.25, batch)
    peers = [f"m{i:02d}" for i in range(1, 17)]

    def fanout_naive() -> None:
        for peer in peers:
            encode_frame(
                WireFrame("ops", "m03", peer, 41, 12.25, batch)
            )

    def fanout_encode_once() -> None:
        payload_json = encode_payload(batch)
        for peer in peers:
            encode_frame_with_payload("ops", "m03", peer, 41, 12.25, payload_json)

    micro = {
        "encode_wire_us": _mean_us(lambda: encode_wire(batch), repeats),
        "decode_wire_us": _mean_us(lambda: decode_wire(wire), repeats),
        "encode_frame_us": _mean_us(lambda: encode_frame(frame), repeats),
        "fanout_naive_us": _mean_us(fanout_naive, max(1, repeats // 16)),
        "fanout_encode_once_us": _mean_us(fanout_encode_once, max(1, repeats // 16)),
    }
    micro["fanout_peers"] = float(len(peers))
    if micro["fanout_encode_once_us"] > 0.0:
        micro["fanout_speedup"] = round(
            micro["fanout_naive_us"] / micro["fanout_encode_once_us"], 3
        )
    return micro


def run(
    machines: int = 8,
    duration: float = 20.0,
    seed: int = 31,
    ops_per_tick: int = 2,
    micro_repeats: int = 2000,
) -> RoundProfResult:
    profiler, rounds, ops = _profiled_run(machines, duration, seed, ops_per_tick)
    result = RoundProfResult(machines=machines, duration=duration)
    result.rounds = rounds
    result.ops_committed = ops
    result.phases = profiler.snapshot()
    result.micro = _microbench(micro_repeats)
    return result


def to_bench_json(result: RoundProfResult) -> dict:
    """The ``BENCH_phases.json`` payload (stable schema for the gate)."""
    return {
        "benchmark": "roundprof",
        "config": {
            "machines": result.machines,
            "duration_s": result.duration,
        },
        "rounds": result.rounds,
        "ops_committed": result.ops_committed,
        "phases": {
            phase: {
                "seconds": round(stats["seconds"], 6),
                "calls": int(stats["calls"]),
                "mean_us": round(stats["mean_us"], 3),
            }
            for phase, stats in result.phases.items()
        },
        "shares": {
            phase: round(result.share(phase), 4) for phase in PHASES
        },
        "micro": {name: round(value, 3) for name, value in result.micro.items()},
    }


def write_bench_json(result: RoundProfResult, path: str = "BENCH_phases.json") -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_bench_json(result), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_report(result: RoundProfResult) -> str:
    lines = [
        "Round phase profile — wall time attribution "
        f"({result.machines} machines, {result.duration:.0f}s virtual, "
        f"{result.rounds} rounds, {result.ops_committed} ops)",
        f"  {'phase':>10} | {'seconds':>9} | {'calls':>7} | "
        f"{'mean us':>9} | {'share':>6}",
        "  " + "-" * 52,
    ]
    for phase in PHASES:
        stats = result.phases.get(phase, {"seconds": 0.0, "calls": 0, "mean_us": 0.0})
        lines.append(
            f"  {phase:>10} | {stats['seconds']:>9.4f} | {int(stats['calls']):>7} | "
            f"{stats['mean_us']:>9.1f} | {result.share(phase):>5.1%}"
        )
    lines.append("")
    lines.append("  hot-path microbenchmarks (mean us/call):")
    for name in sorted(result.micro):
        lines.append(f"    {name:<24} {result.micro[name]:>10.2f}")
    return "\n".join(lines)
