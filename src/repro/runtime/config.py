"""Runtime settings and the runtime's fixed timing constants.

:class:`RuntimeConfig` and :class:`SyncConfig` hold only what callers
set to different values, plus the data directory; a value that every
caller leaves at one setting is a module constant below.

Timing defaults are calibrated so that the simulated system, *under the
paper's sequential collection strategy*
(``SyncConfig(collection="sequential")``, which the figure experiments
pin), lands in the paper's measured bands on the default LAN latency
profile: an 8-user synchronization completes "within 0.5 seconds most
of the time" (Figure 5), sync time grows roughly linearly with users at
a slope that keeps 100 users under ~3 seconds (Figure 6), and a full
fault recovery (two stall timeouts) costs more than 12 seconds
(Figure 5's outliers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

COLLECTION_MODES = ("sequential", "concurrent")

#: CPU cost model, in *virtual* seconds: charged by the simulator's
#: ``EventLoop`` only (``Scheduler.after_work``), where they give the
#: flush/update windows width so the "no issuing inside a window" rule
#: is actually exercised, and where Fig 5/6/7 are calibrated on them.
#: A wall-clock scheduler never sleeps them: there a window is as wide
#: as the work done inside it and closes on the next tick.
FLUSH_CPU_BASE = 0.0005
FLUSH_CPU_PER_OP = 0.0002
APPLY_CPU_BASE = 0.0005
APPLY_CPU_PER_OP = 0.0002
UPDATE_CPU_BASE = 0.001
UPDATE_CPU_PER_OP = 0.0002


def flush_cpu(n_ops: int) -> float:
    return FLUSH_CPU_BASE + FLUSH_CPU_PER_OP * n_ops


def apply_cpu(n_ops: int) -> float:
    return APPLY_CPU_BASE + APPLY_CPU_PER_OP * n_ops


def update_cpu(n_pending: int) -> float:
    return UPDATE_CPU_BASE + UPDATE_CPU_PER_OP * n_pending


@dataclass(frozen=True)
class SyncConfig:
    """Shape of a synchronization round (stage-1 collection mode and
    operation batching).  One round is in flight at a time.

    * ``collection`` — how the master collects pending operations:
      ``"concurrent"`` (the default; the paper's section-9 extension)
      broadcasts a single collect signal and every participant flushes
      at once, while ``"sequential"`` reproduces the paper's
      token-passing round (the master grants ``YourTurn`` to one
      machine at a time) — the reference the figure experiments and
      the protocol-order tests compare against.  Arrivals are ordered
      deterministically by ``(machine_id, seq)``, so both modes commit
      the identical global sequence.
    * ``batch_max_ops`` — flushed operations ride in size-capped
      :class:`~repro.runtime.messages.OpBatch` frames instead of one
      message per operation; this caps the entries per frame.
    """

    collection: str = "concurrent"
    batch_max_ops: int = 64

    def __post_init__(self):
        if self.collection not in COLLECTION_MODES:
            raise ValueError(
                f"collection must be one of {COLLECTION_MODES}, "
                f"got {self.collection!r}"
            )
        if self.batch_max_ops < 1:
            raise ValueError("batch_max_ops must be >= 1")


@dataclass(frozen=True)
class RuntimeConfig:
    """The runtime's settings; times are in seconds."""

    #: Idle gap between the end of one synchronization and the start of
    #: the next (the master "periodically initiating" syncs).
    sync_interval: float = 1.0

    #: How long the master waits for an expected signal (FlushDone or
    #: ApplyAck) before resending it.  Two consecutive timeouts trigger
    #: removal + restart, so a full recovery costs a bit over
    #: ``2 * stall_timeout`` — which must exceed the paper's 12 s
    #: outlier threshold.
    stall_timeout: float = 6.5

    #: Enable the structured trace log (tests use it; benchmarks turn
    #: it off for speed).
    tracing: bool = False

    #: Cross-check every delta refresh against a full-copy shadow
    #: rebuild ([P](sc) must equal the refreshed sg) and raise on
    #: divergence.  O(total state) per round — for the simulation
    #: fuzzer and tests, not production.
    refresh_oracle: bool = False

    # -- future-work extensions (paper section 9) ------------------------

    #: Synchronization round shape: stage-1 collection mode
    #: (sequential token passing vs concurrent flush) and OpBatch size
    #: cap.
    sync: SyncConfig = field(default_factory=SyncConfig)

    # -- durability (write-ahead log + snapshots + crash recovery) --------

    #: Durability backend: ``off`` (the paper's in-memory implementation,
    #: zero IO), ``memory`` (log + recovery semantics without touching
    #: disk — what simulator crash tests use), or ``disk`` (real WAL and
    #: snapshot files under ``data_dir``).
    durability: str = "off"

    #: Root directory for ``disk`` durability; each machine logs under
    #: ``<data_dir>/<machine_id>/``.
    data_dir: str | None = None

    #: WAL fsync policy: ``always`` (fsync every commit record),
    #: ``interval`` (every 8 records and on close), or ``never``
    #: (OS-buffered only; the tail-scan drops whatever a crash loses).
    fsync_policy: str = "interval"

    #: Committed rounds between snapshots (0 = never snapshot).  Each
    #: snapshot compacts the WAL segments it covers, bounding recovery
    #: replay length.
    snapshot_interval: int = 0
