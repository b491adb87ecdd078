"""Scalability study: the serial wall and the section-9 fix.

The paper (sections 7 and 9): the serial first stage makes sync time
linear in users — fine to ~100 users for games, ~1000 for calmer
collaborative apps, a wall beyond that.  The proposed fix is to
parallelize AddUpdatesToMesh "so that the time taken depends only on
the number of operations and the network delay but not on the number
of users".

This experiment measures both protocols across user counts and
extrapolates each to the paper's 100- and 1000-user marks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evalkit.stats import linear_fit, mean_excluding
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.runtime.system import DistributedSystem


@dataclass
class ScalingResult:
    user_counts: list[int]
    serial_means: list[float] = field(default_factory=list)
    parallel_means: list[float] = field(default_factory=list)
    serial_slope: float = 0.0
    parallel_slope: float = 0.0
    serial_at_100: float = 0.0
    serial_at_1000: float = 0.0
    parallel_at_1000: float = 0.0


def _mean_sync(users: int, parallel: bool, duration: float, seed: int) -> float:
    config = RuntimeConfig(
        sync_interval=1.0,
        sync=SyncConfig(collection="concurrent" if parallel else "sequential"),
    )
    system = DistributedSystem(n_machines=users, seed=seed, config=config)
    system.start(first_sync_delay=0.1)
    system.run_for(duration)
    system.stop()
    return mean_excluding(system.metrics.sync_durations(), 12.0)


def run(
    user_counts: list[int] | None = None,
    duration: float = 60.0,
    seed: int = 19,
) -> ScalingResult:
    counts = user_counts if user_counts is not None else [2, 4, 8, 16, 32]
    result = ScalingResult(user_counts=counts)
    for users in counts:
        result.serial_means.append(_mean_sync(users, False, duration, seed))
        result.parallel_means.append(_mean_sync(users, True, duration, seed))
    xs = [float(c) for c in counts]
    result.serial_slope, serial_intercept = linear_fit(xs, result.serial_means)
    result.parallel_slope, parallel_intercept = linear_fit(
        xs, result.parallel_means
    )
    result.serial_at_100 = result.serial_slope * 100 + serial_intercept
    result.serial_at_1000 = result.serial_slope * 1000 + serial_intercept
    result.parallel_at_1000 = result.parallel_slope * 1000 + parallel_intercept
    return result


def format_report(result: ScalingResult) -> str:
    lines = [
        "Scalability — serial first stage (paper) vs parallel (section 9)",
        f"  {'users':>5} | {'serial (ms)':>11} | {'parallel (ms)':>13}",
        "  " + "-" * 37,
    ]
    for users, serial, parallel in zip(
        result.user_counts, result.serial_means, result.parallel_means
    ):
        lines.append(
            f"  {users:>5} | {serial * 1000:>11.1f} | {parallel * 1000:>13.1f}"
        )
    lines += [
        "",
        f"  serial slope {result.serial_slope * 1000:.1f} ms/user; "
        f"parallel slope {result.parallel_slope * 1000:.2f} ms/user",
        f"  serial extrapolations: {result.serial_at_100:.2f} s @100 users "
        "(paper: 'within 3 seconds'), "
        f"{result.serial_at_1000:.1f} s @1000 users (the wall of section 9)",
        f"  parallel @1000 users: {result.parallel_at_1000:.2f} s — "
        "'depends only on the number of operations and the network delay'",
    ]
    return "\n".join(lines)
