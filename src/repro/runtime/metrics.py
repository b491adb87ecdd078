"""Metrics collected by the runtime — the raw material of Figures 5-7.

Three levels:

* :class:`NodeMetrics` — per machine: issued/committed/conflicting
  operations, per-operation execution counts (the "at most three"
  bound), issue deferrals caused by blocked windows.
* :class:`SyncRecord` — one per synchronization round, recorded by the
  master: duration (all three stages), participants, recovery actions.
* :class:`SystemMetrics` — aggregates the above plus mesh counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.operations import OpKey
from repro.storage.wal import StorageStats


@dataclass(slots=True)
class SyncRecord:
    """Master-side record of one synchronization round."""

    round_id: int
    started_at: float
    finished_at: float = 0.0
    participants: int = 0
    ops_committed: int = 0
    resends: int = 0
    removals: int = 0
    #: stage-1 collection mode the round ran under
    collection: str = "sequential"

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def recovered(self) -> bool:
        """True if the round needed any fault-recovery action."""
        return self.resends > 0 or self.removals > 0


@dataclass(slots=True)
class NodeMetrics:
    """Per-machine counters.

    ``__slots__``: these counters are bumped per message / per op in
    the synchronizer's hot loop, so attribute access is slot-indexed
    rather than a ``__dict__`` probe, and the synchronizer holds a
    direct reference to this object instead of going through the
    ``SystemMetrics.node()`` dict lookup on every increment.
    """

    machine_id: str
    ops_issued: int = 0
    ops_rejected_at_issue: int = 0
    ops_committed_ok: int = 0
    ops_committed_failed: int = 0
    conflicts: int = 0  # succeeded at issue, failed at commit
    deferred_issues: int = 0
    deferral_delay_total: float = 0.0
    restarts: int = 0
    #: OpBatch frames broadcast by this machine's flushes and resends
    op_batches_sent: int = 0
    executions: dict[OpKey, int] = field(default_factory=dict)
    commit_latency_total: float = 0.0  # issue -> completion, local ops only
    commit_latency_count: int = 0
    #: durability counters, shared with the node's storage backend
    #: (records/bytes appended, fsyncs, snapshots, recovery telemetry)
    storage: StorageStats = field(default_factory=StorageStats)
    #: crash recoveries that restored state from snapshot + WAL replay
    crash_recoveries: int = 0
    #: completed-sequence entries rebuilt by the last WAL replay
    recovery_replay_entries: int = 0
    #: guess refreshes run (one per applied round's update stage)
    refresh_rounds: int = 0
    #: objects actually copied committed -> guess across all refreshes;
    #: with delta refresh this is O(touched), the naive full copy makes
    #: it refresh_rounds * live objects
    refresh_objects_copied: int = 0
    #: wire-op decodes avoided by reusing the in-flight op tree of an
    #: operation this machine issued, vs. decodes actually performed
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0

    def record_execution(self, key: OpKey) -> None:
        self.executions[key] = self.executions.get(key, 0) + 1

    def execution_histogram(self) -> dict[int, int]:
        """Map execution-count -> number of operations."""
        histogram: dict[int, int] = {}
        for count in self.executions.values():
            histogram[count] = histogram.get(count, 0) + 1
        return dict(sorted(histogram.items()))

    @property
    def mean_commit_latency(self) -> float:
        if self.commit_latency_count == 0:
            return 0.0
        return self.commit_latency_total / self.commit_latency_count


@dataclass
class SystemMetrics:
    """Whole-system aggregation used by the evaluation kit."""

    sync_records: list[SyncRecord] = field(default_factory=list)
    node_metrics: dict[str, NodeMetrics] = field(default_factory=dict)

    def node(self, machine_id: str) -> NodeMetrics:
        if machine_id not in self.node_metrics:
            self.node_metrics[machine_id] = NodeMetrics(machine_id)
        return self.node_metrics[machine_id]

    # -- aggregates -----------------------------------------------------------

    def sync_durations(self) -> list[float]:
        return [record.duration for record in self.sync_records]

    def total_conflicts(self) -> int:
        return sum(m.conflicts for m in self.node_metrics.values())

    def total_issued(self) -> int:
        return sum(m.ops_issued for m in self.node_metrics.values())

    def total_committed(self) -> int:
        return sum(
            m.ops_committed_ok + m.ops_committed_failed
            for m in self.node_metrics.values()
        )

    def execution_histogram(self) -> dict[int, int]:
        """Execution-count histogram across every machine's operations."""
        histogram: dict[int, int] = {}
        for metrics in self.node_metrics.values():
            for count, ops in metrics.execution_histogram().items():
                histogram[count] = histogram.get(count, 0) + ops
        return dict(sorted(histogram.items()))

    def recovered_rounds(self) -> list[SyncRecord]:
        return [record for record in self.sync_records if record.recovered]

    def total_op_batches(self) -> int:
        return sum(m.op_batches_sent for m in self.node_metrics.values())

    def total_decode_cache_hits(self) -> int:
        return sum(m.decode_cache_hits for m in self.node_metrics.values())

    def total_decode_cache_misses(self) -> int:
        return sum(m.decode_cache_misses for m in self.node_metrics.values())
