"""Durability & crash recovery costs (WAL + snapshot subsystem).

The paper's recovery story (section 7) restarts a crashed machine from
the master's state snapshot — all local history is lost.  The storage
subsystem upgrades this: every committed round is write-ahead logged
before it is acknowledged, so a machine killed mid-run rebuilds
``sc`` and its completed sequence from ``snapshot + WAL replay`` and
rejoins with only the missed backlog.

This experiment measures what that costs and what bounds it:

* recovery replay length (and wall time) as a function of the number of
  committed rounds in the WAL — linear without snapshots;
* the same with periodic snapshots — replay is bounded by the snapshot
  interval regardless of history length;
* the write-side overhead (records, bytes, fsyncs) per fsync policy.

Runs the WAL on the in-memory medium by default (zero IO: fsyncs are
counted, not issued); pass a ``data_dir`` to measure real files.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.core.serialization import shared_type
from repro.core.shared_object import GSharedObject
from repro.net.faults import ScheduledFaults
from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedSystem


@shared_type
class DurableCounter(GSharedObject):
    """Minimal conflict-free workload object for the recovery runs."""

    def __init__(self):
        self.value = 0

    def copy_from(self, src: "DurableCounter") -> None:
        self.value = src.value

    def increment(self, limit: int) -> bool:
        if self.value >= limit:
            return False
        self.value += 1
        return True


@dataclass
class DurabilityPoint:
    """One crash-recovery measurement."""

    committed_rounds: int
    snapshot_interval: int  # 0 = snapshots disabled
    replay_length: int
    recovery_seconds: float
    wal_records: int
    wal_bytes: int
    fsyncs: int
    snapshots_written: int
    converged: bool


@dataclass
class DurabilityResult:
    mode: str  # "memory" or "disk"
    fsync_policy: str
    points: list[DurabilityPoint] = field(default_factory=list)


def _run_point(
    committed_rounds: int,
    snapshot_interval: int,
    seed: int,
    mode: str,
    data_dir: str | None,
    fsync_policy: str,
) -> DurabilityPoint:
    config = RuntimeConfig(
        sync_interval=0.5,
        stall_timeout=2.0,
        durability=mode,
        data_dir=data_dir,
        fsync_policy=fsync_policy,
        snapshot_interval=snapshot_interval,
    )
    faults = ScheduledFaults()
    system = DistributedSystem(
        n_machines=3, seed=seed, faults=faults, config=config
    )
    system.start(first_sync_delay=0.1)

    api = system.api("m01")
    counter = api.create_instance(DurableCounter)
    system.run_until_quiesced()
    victim = system.node("m03")
    victim.api.join_instance(counter.unique_id)

    # One committed round per issued operation.
    for _ in range(committed_rounds):
        api.issue_operation(
            api.create_operation(counter, "increment", 10**9)
        )
        system.run_until_quiesced()

    victim.halt()
    victim.recover_and_rejoin()
    system.run_for(5.0)
    system.run_until_quiesced()

    stats = victim.metrics.storage
    converged = (
        victim.state == "active"
        and system.committed_states_equal()
        and system.completed_sequences_equal()
    )
    point = DurabilityPoint(
        committed_rounds=committed_rounds,
        snapshot_interval=snapshot_interval,
        replay_length=stats.last_replay_length,
        recovery_seconds=stats.last_recovery_seconds,
        wal_records=stats.records_appended,
        wal_bytes=stats.bytes_appended,
        fsyncs=stats.fsyncs,
        snapshots_written=stats.snapshots_written,
        converged=converged,
    )
    system.stop()
    return point


def run(
    wal_lengths: list[int] | None = None,
    snapshot_interval: int = 8,
    seed: int = 7,
    data_dir: str | None = None,
    fsync_policy: str = "interval",
) -> DurabilityResult:
    """Measure recovery cost at each WAL length, with and without
    snapshots.  ``data_dir`` switches from the in-memory medium to real
    files (a temporary directory is used per point and removed)."""
    if wal_lengths is None:
        wal_lengths = [8, 32, 128]
    mode = "disk" if data_dir is not None else "memory"
    if data_dir is not None:
        os.makedirs(data_dir, exist_ok=True)
    result = DurabilityResult(mode=mode, fsync_policy=fsync_policy)
    for length in wal_lengths:
        for interval in (0, snapshot_interval):
            point_dir = None
            if data_dir is not None:
                point_dir = tempfile.mkdtemp(
                    prefix=f"durability-{length}-{interval}-", dir=data_dir
                )
            try:
                result.points.append(
                    _run_point(
                        committed_rounds=length,
                        snapshot_interval=interval,
                        seed=seed,
                        mode=mode,
                        data_dir=point_dir,
                        fsync_policy=fsync_policy,
                    )
                )
            finally:
                if point_dir is not None:
                    shutil.rmtree(point_dir, ignore_errors=True)
    return result


def format_report(result: DurabilityResult) -> str:
    lines = [
        "Durability & crash recovery (WAL + snapshot subsystem)",
        f"  backend: {result.mode}, fsync policy: {result.fsync_policy}",
        "  rounds  snap-int  replay  recovery(ms)  wal-recs  wal-bytes  "
        "fsyncs  snaps  converged",
    ]
    for p in result.points:
        lines.append(
            f"  {p.committed_rounds:6d}  {p.snapshot_interval:8d}  "
            f"{p.replay_length:6d}  {p.recovery_seconds * 1000:12.3f}  "
            f"{p.wal_records:8d}  {p.wal_bytes:9d}  {p.fsyncs:6d}  "
            f"{p.snapshots_written:5d}  {p.converged}"
        )
    no_snap = [p for p in result.points if p.snapshot_interval == 0]
    with_snap = [p for p in result.points if p.snapshot_interval > 0]
    if len(no_snap) >= 2:
        lines.append(
            "  without snapshots, replay grows with the WAL: "
            + " -> ".join(str(p.replay_length) for p in no_snap)
        )
    if with_snap:
        bound = max(p.snapshot_interval for p in with_snap)
        worst = max(p.replay_length for p in with_snap)
        lines.append(
            f"  with snapshots every {bound} rounds, replay stays <= "
            f"{worst} regardless of history length"
        )
    return "\n".join(lines)
