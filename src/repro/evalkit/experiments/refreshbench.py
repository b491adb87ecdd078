"""Delta guess-refresh benchmark (``BENCH_refresh.json``).

The paper's ApplyUpdatesFromMesh refreshes the guesstimated store with
a *full copy* of the committed store — O(total state) per round, even
when a round's operations touched two objects out of thousands.  The
versioned-store rebuild copies only objects whose committed version
advanced plus objects the pending replay dirtied — O(touched state).

This experiment measures exactly that trade on a many-objects workload:
*n* counters live in the store, every round's operations touch 1-2 of
them (singles plus the occasional two-object atomic).  One run yields
both sides: ``refresh_objects_copied`` is what the delta refresh moved,
``refresh_objects_live`` (the committed store's size, summed over the
same refreshes) is what the full copy would have moved.  The wall-time
A/B of the two store primitives is a rung of ``bench/ladder.py``
(``core.refresh_full_us`` vs ``core.refresh_delta_us``).
Durable-memory snapshotting is left on so the version-keyed
``snapshot_states`` cache is exercised too (unchanged objects re-use
their serialized entry across WAL snapshots).

The run must still converge with the paper invariants intact
(``check_all_invariants`` — identical ``sc``/``C`` everywhere and
``[P](sc) = sg``); the speedup is worthless if the semantics drifted.

::

    python -m repro.cli refresh --quick   # prints the report
    python -m repro.cli refresh           # full sweep + BENCH_refresh.json
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.evalkit.experiments.durability import DurableCounter
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.runtime.system import DistributedSystem

#: increment() never saturates in these runs
LIMIT = 10**9


@dataclass
class RefreshScaleResult:
    """One run's refresh counters — workload phase only (object
    creation is excluded by baseline subtraction)."""

    objects: int
    machines: int
    duration: float
    rounds: int = 0
    refresh_rounds: int = 0
    #: what the delta refresh copied committed -> guess
    refresh_objects_copied: int = 0
    #: what a full copy would have copied over the same refreshes
    refresh_objects_live: int = 0
    ops_committed: int = 0
    mean_round_s: float = 0.0
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0
    snapshot_cache_hits: int = 0
    snapshot_cache_misses: int = 0
    invariants_ok: bool = False

    @property
    def copies_per_round(self) -> float:
        return self.refresh_objects_copied / max(1, self.refresh_rounds)

    def copy_reduction(self) -> float:
        """full / delta objects copied (the headline: how many fewer
        copies the versioned store does per round)."""
        return self.refresh_objects_live / max(1, self.refresh_objects_copied)


def _config() -> RuntimeConfig:
    return RuntimeConfig(
        sync_interval=0.5,
        # durable-memory snapshots exercise the version-keyed
        # snapshot_states cache without touching disk
        durability="memory",
        snapshot_interval=8,
        sync=SyncConfig(batch_max_ops=256),
    )


def _create_objects(system: DistributedSystem, n_objects: int) -> list[str]:
    """Create the counter population from one machine and quiesce."""
    api = system.apis()[0]
    uids = [api.create_instance(DurableCounter).unique_id for _ in range(n_objects)]
    system.run_until_quiesced()
    return uids


def _drive_workload(
    system: DistributedSystem, uids: list[str], duration: float, seed: int
) -> None:
    """Every machine touches 1-2 random counters ~3x per round.

    Three out of four ticks issue one single-object increment; every
    fourth issues a two-object atomic (increment both or neither), so
    rounds exercise both op shapes the delta refresh must track.
    """
    rng = random.Random(seed)
    interval = system.config.sync_interval / 3.0
    deadline = system.loop.now() + duration

    def tick(machine_id: str, count: int) -> None:
        api = system.api(machine_id)
        if count % 4 == 3:
            first, second = rng.sample(uids, 2)
            api.invoke(
                first,
                "increment",
                LIMIT,
                atomic_with=api.create_operation(second, "increment", LIMIT),
            )
        else:
            api.invoke(rng.choice(uids), "increment", LIMIT)
        if system.loop.now() < deadline:
            system.loop.call_later(
                interval, lambda: tick(machine_id, count + 1)
            )

    for index, machine_id in enumerate(system.machine_ids()):
        # Stagger the start so flushes are not artificially aligned.
        system.loop.call_later(0.01 * index, lambda m=machine_id: tick(m, 0))
    system.run_for(duration)
    system.run_until_quiesced()


def _refresh_totals(system: DistributedSystem) -> tuple[int, int, int]:
    nodes = system.metrics.node_metrics.values()
    return (
        sum(m.refresh_rounds for m in nodes),
        sum(m.refresh_objects_copied for m in nodes),
        sum(m.refresh_objects_live for m in nodes),
    )


def run(
    objects: int = 2000,
    machines: int = 4,
    duration: float = 30.0,
    seed: int = 29,
) -> RefreshScaleResult:
    system = DistributedSystem(n_machines=machines, seed=seed, config=_config())
    system.start(first_sync_delay=0.1)
    uids = _create_objects(system, objects)
    # Baseline after setup: creation dirties every object once, which
    # would drown the steady-state signal.
    base_rounds, base_copied, base_live = _refresh_totals(system)
    base_sync = len(system.metrics.sync_records)
    _drive_workload(system, uids, duration, seed + 1)
    system.stop()

    result = RefreshScaleResult(
        objects=objects, machines=machines, duration=duration
    )
    try:
        system.check_all_invariants()
        result.invariants_ok = True
    except AssertionError:  # pragma: no cover - failure path
        result.invariants_ok = False

    rounds, copied, live = _refresh_totals(system)
    result.refresh_rounds = rounds - base_rounds
    result.refresh_objects_copied = copied - base_copied
    result.refresh_objects_live = live - base_live

    records = system.metrics.sync_records[base_sync:]
    result.rounds = len(records)
    result.ops_committed = sum(r.ops_committed for r in records)
    if records:
        result.mean_round_s = sum(r.duration for r in records) / len(records)
    result.decode_cache_hits = system.metrics.total_decode_cache_hits()
    result.decode_cache_misses = system.metrics.total_decode_cache_misses()
    for machine_id in system.machine_ids():
        store = system.node(machine_id).model.committed
        result.snapshot_cache_hits += store.snapshot_cache_hits
        result.snapshot_cache_misses += store.snapshot_cache_misses
    return result


def to_bench_json(result: RefreshScaleResult) -> dict:
    """The ``BENCH_refresh.json`` payload (stable schema for trend
    tooling)."""
    return {
        "benchmark": "refresh",
        "config": {
            "objects": result.objects,
            "machines": result.machines,
            "duration_s": result.duration,
        },
        "rounds": result.rounds,
        "refresh_rounds": result.refresh_rounds,
        "refresh_objects_copied": result.refresh_objects_copied,
        "refresh_objects_live": result.refresh_objects_live,
        "copies_per_round": round(result.copies_per_round, 3),
        "ops_committed": result.ops_committed,
        "mean_round_latency_s": round(result.mean_round_s, 6),
        "decode_cache_hits": result.decode_cache_hits,
        "decode_cache_misses": result.decode_cache_misses,
        "snapshot_cache_hits": result.snapshot_cache_hits,
        "snapshot_cache_misses": result.snapshot_cache_misses,
        "invariants_ok": result.invariants_ok,
        "copy_reduction_full_over_delta": round(result.copy_reduction(), 3),
    }


def write_bench_json(
    result: RefreshScaleResult, path: str = "BENCH_refresh.json"
) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_bench_json(result), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_report(result: RefreshScaleResult) -> str:
    return "\n".join(
        [
            "Guess refresh — objects copied committed -> guess per round",
            f"  ({result.objects} live objects, {result.machines} machines, "
            f"{result.duration:.0f}s virtual; ops touch 1-2 objects)",
            f"  refreshes: {result.refresh_rounds}   invariants: "
            f"{'ok' if result.invariants_ok else 'FAILED'}",
            f"  delta refresh copied {result.refresh_objects_copied} objects "
            f"({result.copies_per_round:.1f}/round)",
            f"  a full copy would move {result.refresh_objects_live}",
            f"  copy reduction (full/delta): {result.copy_reduction():.1f}x",
            f"  decode cache: {result.decode_cache_hits} hits / "
            f"{result.decode_cache_misses} misses;  snapshot cache: "
            f"{result.snapshot_cache_hits} hits / "
            f"{result.snapshot_cache_misses} misses",
        ]
    )
