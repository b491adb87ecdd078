"""Section-9 extension benchmark: parallelizing AddUpdatesToMesh.

The paper: "To scale it further we would have to parallelize the first
stage ... so that the time taken depends only on the number of
operations and the network delay but not on the number of users."

This benchmark measures sync time for the serial (paper) protocol and
the parallel extension across user counts, confirming the serial
protocol's linear slope disappears.
"""

from repro.evalkit.stats import linear_fit, mean_excluding
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.runtime.system import DistributedSystem


def _mean_sync(users: int, parallel: bool, duration: float = 60.0) -> float:
    config = RuntimeConfig(
        sync_interval=1.0,
        sync=SyncConfig(collection="concurrent" if parallel else "sequential"),
    )
    system = DistributedSystem(n_machines=users, seed=19, config=config)
    system.start(first_sync_delay=0.1)
    system.run_for(duration)
    system.stop()
    return mean_excluding(system.metrics.sync_durations(), 12.0)


def test_parallel_flush_scaling(benchmark, report):
    user_counts = [2, 4, 8, 16, 32]

    def run_ablation():
        serial = [_mean_sync(users, parallel=False) for users in user_counts]
        parallel = [_mean_sync(users, parallel=True) for users in user_counts]
        return serial, parallel

    serial, parallel = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    lines = [
        "Ablation — serial (paper) vs parallel (section 9) first stage",
        f"  {'users':>5} | {'serial (ms)':>11} | {'parallel (ms)':>13}",
        "  " + "-" * 37,
    ]
    for users, s, p in zip(user_counts, serial, parallel):
        lines.append(f"  {users:>5} | {s * 1000:>11.1f} | {p * 1000:>13.1f}")
    serial_slope, _ = linear_fit([float(u) for u in user_counts], serial)
    parallel_slope, _ = linear_fit([float(u) for u in user_counts], parallel)
    lines.append(
        f"\n  slope: serial {serial_slope * 1000:.2f} ms/user, "
        f"parallel {parallel_slope * 1000:.2f} ms/user"
    )
    extrapolated = serial_slope * 1000 + (serial[0] - serial_slope * 2)
    lines.append(
        f"  serial @1000 users would be ~{extrapolated:.0f} s — the paper's "
        "scalability wall; parallel stays flat"
    )
    report("\n".join(lines))

    # Serial grows linearly; parallel is an order of magnitude flatter.
    assert serial == sorted(serial)
    assert serial_slope > 0.02
    assert parallel_slope < 0.1 * serial_slope
    # And parallel wins outright at scale.
    assert parallel[-1] < 0.5 * serial[-1]
