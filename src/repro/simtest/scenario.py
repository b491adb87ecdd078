"""Scenario generation: one integer seed → one complete chaos scenario.

A :class:`ScenarioSpec` is a *declarative*, JSON-serializable
description of everything a simulation run needs: cluster size, sync
round shape (:class:`~repro.runtime.config.SyncConfig` knobs),
workload mix, a fault plan (drops, crashes, partitions, crashes at
commit points) and a churn plan (joins, offline excursions, hard kills
with recover-and-rejoin).  :func:`generate_scenario` derives a spec
from a seed through named :class:`~repro.sim.rand.SeededSource`
streams, so the same seed always yields the same spec — and because
the spec is plain data, the shrinker can minimize it field by field
without touching the generator.

Only *slave* machines are ever faulted: nothing takes over from a lost
master, as in the paper, so crashing it would turn every scenario into
a wedge rather than a recovery exercise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.net.faults import (
    CommitCrashPlan,
    CrashPlan,
    DropPlan,
    PartitionPlan,
    ScheduledFaults,
)
from repro.sim.rand import SeededSource

#: Signal payload types a DropPlan may target (None = any payload).
DROPPABLE_PAYLOADS = (
    None,
    "YourTurn",
    "BeginApply",
    "FlushDone",
    "SyncComplete",
    "OpBatch",
    "Hello",
    "Welcome",
    "ApplyAck",  # appended: a seed that does not draw it keeps its scenario
    "StartSync",  # appended, likewise
    "WorkReady",  # appended, likewise
)

#: All scenario workloads: the paper's two measurement workloads plus
#: the workload zoo (see :mod:`repro.simtest.workload`).
WORKLOADS = ("sudoku", "board", "listdoc", "counters", "market", "hostile")

#: Per-workload draw ranges: (think_mean lo/hi, n_grids lo/hi).  The
#: ``n_grids`` knob is overloaded per workload — Sudoku grids, board
#: topics, shared docs, counter pots, items stocked per trader — so the
#: spec shape (and the shrinker) stays workload-agnostic.
_WORKLOAD_PARAMS = {
    "sudoku": ((1.5, 4.0), (1, 2)),
    "board": ((0.8, 2.5), (2, 4)),
    "listdoc": ((0.8, 2.5), (1, 3)),
    "counters": ((0.6, 2.0), (2, 4)),
    "market": ((1.0, 2.5), (2, 3)),
    "hostile": ((0.6, 1.8), (1, 2)),
}


def machine_name(index: int) -> str:
    """Machine ids as the runtime builds them: m01, m02, ..."""
    return f"m{index:02d}"


@dataclass(frozen=True)
class DropSpec:
    """A bounded message-loss window (maps to ``DropPlan``)."""

    start: float
    end: float
    payload_type: str | None = None
    recipient: str | None = None
    max_drops: int = 1


@dataclass(frozen=True)
class CrashSpec:
    """A machine is network-unresponsive during [start, end)."""

    machine: str
    start: float
    end: float


@dataclass(frozen=True)
class PartitionSpec:
    """The network splits into two groups during [start, end)."""

    groups: tuple[tuple[str, ...], ...]
    start: float
    end: float


@dataclass(frozen=True)
class CommitCrashSpec:
    """Hard-kill ``machine`` at its next commit point (after the WAL
    append, before the ``ApplyAck``); ``recover_at`` schedules the
    recover-and-rejoin if the crash has fired by then."""

    machine: str
    recover_at: float


@dataclass(frozen=True)
class ChurnSpec:
    """One membership event.

    ``kind``: ``join`` (a new machine enters mid-run), ``offline`` (a
    slave disconnects, keeps working locally, returns after
    ``duration``), or ``halt`` (hard kill, recover-and-rejoin after
    ``duration``).  ``machine`` is empty for ``join``.
    """

    kind: str
    at: float
    machine: str = ""
    duration: float = 0.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one deterministic simulation run needs."""

    seed: int
    n_machines: int
    collection: str
    batch_max_ops: int
    sync_interval: float
    stall_timeout: float
    snapshot_interval: int
    workload: str
    think_mean: float
    n_grids: int
    duration: float
    drops: tuple[DropSpec, ...] = ()
    crashes: tuple[CrashSpec, ...] = ()
    partitions: tuple[PartitionSpec, ...] = ()
    commit_crashes: tuple[CommitCrashSpec, ...] = ()
    churn: tuple[ChurnSpec, ...] = ()

    def fault_count(self) -> int:
        return (
            len(self.drops)
            + len(self.crashes)
            + len(self.partitions)
            + len(self.commit_crashes)
            + len(self.churn)
        )

    # -- persistence (failing-seed artifacts) ------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.  Keys of retired
        knobs (``pipeline_depth``, the hot-path levers) are ignored, so
        old ``seed-<n>.json`` artifacts still replay."""
        return cls(
            seed=data["seed"],
            n_machines=data["n_machines"],
            collection=data["collection"],
            batch_max_ops=data["batch_max_ops"],
            sync_interval=data["sync_interval"],
            stall_timeout=data["stall_timeout"],
            snapshot_interval=data["snapshot_interval"],
            workload=data["workload"],
            think_mean=data["think_mean"],
            n_grids=data["n_grids"],
            duration=data["duration"],
            drops=tuple(DropSpec(**item) for item in data.get("drops", ())),
            crashes=tuple(CrashSpec(**item) for item in data.get("crashes", ())),
            partitions=tuple(
                PartitionSpec(
                    groups=tuple(tuple(group) for group in item["groups"]),
                    start=item["start"],
                    end=item["end"],
                )
                for item in data.get("partitions", ())
            ),
            commit_crashes=tuple(
                CommitCrashSpec(**item) for item in data.get("commit_crashes", ())
            ),
            churn=tuple(ChurnSpec(**item) for item in data.get("churn", ())),
        )


def generate_scenario(seed: int, workload: str | None = None) -> ScenarioSpec:
    """Derive the complete scenario for ``seed`` (pure and stable).

    ``workload`` pins the workload instead of drawing it, so sweeps can
    cover each zoo member with the same seed range; ``(seed, workload)``
    is just as deterministic as a bare seed.
    """
    if workload is not None and workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    seeds = SeededSource(seed)
    topo = seeds.stream("topology")
    sync = seeds.stream("sync")
    work = seeds.stream("workload")
    faults = seeds.stream("faults")
    churn_rng = seeds.stream("churn")

    n_machines = topo.randint(2, 5)
    slaves = [machine_name(i) for i in range(2, n_machines + 1)]
    duration = round(topo.uniform(40.0, 75.0), 2)

    collection = sync.choice(["sequential", "concurrent"])
    batch_max_ops = sync.choice([1, 2, 4, 8, 64])
    sync.choice([1, 2, 2, 3])  # retired pipeline_depth; keeps later draws
    sync_interval = round(sync.uniform(0.4, 1.0), 3)
    stall_timeout = round(sync.uniform(2.0, 4.0), 3)
    snapshot_interval = sync.choice([0, 2, 4, 8])

    if workload is None:
        workload = work.choice(list(WORKLOADS))
    (think_lo, think_hi), (grids_lo, grids_hi) = _WORKLOAD_PARAMS[workload]
    think_mean = round(work.uniform(think_lo, think_hi), 3)
    n_grids = work.randint(grids_lo, grids_hi)

    # -- fault plan (slaves only; windows end well before the drain) ----------
    drops = []
    for _ in range(faults.randint(0, 3)):
        start = round(faults.uniform(5.0, max(6.0, duration - 25.0)), 2)
        drops.append(
            DropSpec(
                start=start,
                end=round(start + faults.uniform(2.0, 10.0), 2),
                payload_type=faults.choice(list(DROPPABLE_PAYLOADS)),
                recipient=faults.choice([None] + slaves) if slaves else None,
                max_drops=faults.randint(1, 3),
            )
        )

    crashes = []
    crash_targets = list(slaves)
    faults.shuffle(crash_targets)
    for target in crash_targets[: faults.randint(0, min(2, len(crash_targets)))]:
        start = round(faults.uniform(5.0, max(6.0, duration - 30.0)), 2)
        crashes.append(
            CrashSpec(
                machine=target,
                start=start,
                end=round(start + faults.uniform(5.0, 12.0), 2),
            )
        )

    partitions = []
    if n_machines >= 3 and faults.random() < 0.4:
        cut = faults.randint(1, len(slaves) - 1)
        minority = tuple(sorted(faults.sample(slaves, cut)))
        majority = tuple(
            [machine_name(1)] + sorted(set(slaves) - set(minority))
        )
        start = round(faults.uniform(5.0, max(6.0, duration - 35.0)), 2)
        partitions.append(
            PartitionSpec(
                groups=(majority, minority),
                start=start,
                end=round(start + faults.uniform(8.0, 15.0), 2),
            )
        )

    commit_crashes = []
    if slaves and faults.random() < 0.5:
        commit_crashes.append(
            CommitCrashSpec(
                machine=faults.choice(slaves),
                recover_at=round(faults.uniform(15.0, max(16.0, duration - 15.0)), 2),
            )
        )

    # -- churn plan (distinct targets so events compose cleanly) --------------
    churn = []
    churn_targets = list(slaves)
    churn_rng.shuffle(churn_targets)
    for _ in range(churn_rng.randint(0, 2)):
        kind = churn_rng.choice(["join", "offline", "halt"])
        if kind == "join":
            churn.append(
                ChurnSpec(
                    kind="join",
                    at=round(churn_rng.uniform(10.0, max(11.0, duration - 20.0)), 2),
                )
            )
        elif churn_targets:
            target = churn_targets.pop()
            at = round(churn_rng.uniform(10.0, max(11.0, duration - 32.0)), 2)
            churn.append(
                ChurnSpec(
                    kind=kind,
                    at=at,
                    machine=target,
                    duration=round(churn_rng.uniform(8.0, 16.0), 2),
                )
            )

    return ScenarioSpec(
        seed=seed,
        n_machines=n_machines,
        collection=collection,
        batch_max_ops=batch_max_ops,
        sync_interval=sync_interval,
        stall_timeout=stall_timeout,
        snapshot_interval=snapshot_interval,
        workload=workload,
        think_mean=think_mean,
        n_grids=n_grids,
        duration=duration,
        drops=tuple(drops),
        crashes=tuple(crashes),
        partitions=tuple(partitions),
        commit_crashes=tuple(commit_crashes),
        churn=tuple(churn),
    )


def build_faults(spec: ScenarioSpec, offset: float = 0.0) -> ScheduledFaults:
    """Materialize the spec's fault plan as a fresh injector.

    Spec times are relative to the end of workload setup; the runner
    passes the virtual time at that point as ``offset`` so fault
    windows never disturb the initial object creation and join phase.
    """
    return ScheduledFaults(
        drops=[
            DropPlan(
                start=drop.start + offset,
                end=drop.end + offset,
                payload_type=drop.payload_type,
                recipient=drop.recipient,
                max_drops=drop.max_drops,
            )
            for drop in spec.drops
        ],
        crashes=[
            CrashPlan(
                machine_id=crash.machine,
                start=crash.start + offset,
                end=crash.end + offset,
            )
            for crash in spec.crashes
        ],
        partitions=[
            PartitionPlan(
                groups=part.groups,
                start=part.start + offset,
                end=part.end + offset,
            )
            for part in spec.partitions
        ],
        commit_crashes=[
            CommitCrashPlan(machine_id=crash.machine)
            for crash in spec.commit_crashes
        ],
    )
