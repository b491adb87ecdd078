"""Common experiment harness: build a system, run a Sudoku session.

Every figure experiment is a thin layer over :func:`run_sudoku_session`
with different user counts, durations, activity models and fault
schedules — the same way every number in the paper's section 7 comes
from the same instrumented Sudoku deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.net.faults import FaultInjector
from repro.net.latency import LatencyModel, lan_profile
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.runtime.system import DistributedSystem
from repro.spec.contracts import set_checking
from repro.workloads.activity import ActivityModel
from repro.workloads.drivers import SessionStats, SudokuSession


def paper_runtime() -> RuntimeConfig:
    """The paper's protocol: serial ``YourTurn`` collection, under which
    the timing defaults are calibrated to the section-7 figures."""
    return RuntimeConfig(sync=SyncConfig(collection="sequential"))


@dataclass
class SessionConfig:
    """Everything a measured Sudoku session needs."""

    users: int = 8
    duration: float = 3600.0  # simulated seconds (the paper ran ~1 h)
    seed: int = 0
    n_grids: int = 2
    activity: ActivityModel = field(default_factory=ActivityModel)
    latency: LatencyModel | None = None
    faults: FaultInjector | None = None
    runtime: RuntimeConfig = field(default_factory=paper_runtime)
    #: contracts cost ~2x on hot paths; experiments turn them off like
    #: a release build (tests keep them on).
    contracts: bool = False


@dataclass
class SessionOutcome:
    """A finished session: the system (with metrics) plus driver stats."""

    system: DistributedSystem
    stats: SessionStats
    duration: float

    @property
    def sync_durations(self) -> list[float]:
        return self.system.metrics.sync_durations()

    @property
    def conflicts(self) -> int:
        return self.system.metrics.total_conflicts()


def build_system(config: SessionConfig) -> DistributedSystem:
    """A system wired per the config (latency defaults to the LAN profile)."""
    if config.users < 1:
        raise ExperimentError("need at least one user")
    return DistributedSystem(
        n_machines=config.users,
        seed=config.seed,
        latency=config.latency if config.latency is not None else lan_profile(),
        faults=config.faults,
        config=config.runtime,
    )


def run_sudoku_session(config: SessionConfig) -> SessionOutcome:
    """The measurement workhorse: N users playing for the duration.

    Returns after the session time elapses and the system quiesces, so
    every issued operation has committed and all invariants are
    checkable.
    """
    previous = set_checking(config.contracts)
    try:
        system = build_system(config)
        session = SudokuSession(
            system,
            n_grids=config.n_grids,
            activity=config.activity,
            seed=config.seed,
        )
        session.setup()
        session.start()
        system.run_for(config.duration)
        session.stop()
        system.run_until_quiesced(max_time=600.0)
        system.stop()
        return SessionOutcome(system, session.stats, config.duration)
    finally:
        set_checking(previous)
