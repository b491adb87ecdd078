"""Protocol ablations for the design choices DESIGN.md calls out.

* Network delay dominates sync time (the paper's Figure 6 reading):
  scaling the latency profile scales sync time nearly proportionally,
  while the CPU cost model barely moves it.
* Sync interval trades commit latency against round count — the knob
  behind "slow synchronization affects the lag between submission and
  completion" (section 9).
* Stage-1 serialization is the linear-in-users term: with the per-user
  cost removed from the model (zero latency), rounds are flat in N.
"""

from repro.evalkit.harness import SessionConfig, run_sudoku_session
from repro.evalkit.stats import mean_excluding
from repro.net.latency import ConstantLatency, lan_profile
from repro.runtime.config import RuntimeConfig
from repro.workloads.activity import ActivityModel


def _mean_sync(latency, users=6, duration=120.0, sync_interval=1.0):
    outcome = run_sudoku_session(
        SessionConfig(
            users=users,
            duration=duration,
            seed=31,
            latency=latency,
            runtime=RuntimeConfig(sync_interval=sync_interval),
        )
    )
    return mean_excluding(outcome.sync_durations, 12.0), outcome


def test_ablation_latency_dominates(report):
    base, _ = _mean_sync(lan_profile(1.0))
    doubled, _ = _mean_sync(lan_profile(2.0))
    report(
        "Ablation — latency dominates sync time\n"
        f"  1x LAN profile: {base * 1000:.1f} ms mean sync\n"
        f"  2x LAN profile: {doubled * 1000:.1f} ms mean sync\n"
        f"  ratio: {doubled / base:.2f} (expect ~2.0: network-bound)"
    )
    assert 1.6 < doubled / base < 2.4


def test_ablation_zero_latency_flattens_user_scaling(report):
    means = {}
    for users in (2, 8):
        mean, _ = _mean_sync(ConstantLatency(0.0), users=users, duration=60.0)
        means[users] = mean
    report(
        "Ablation — without network delay the per-user term vanishes\n"
        f"  2 users: {means[2] * 1000:.2f} ms   8 users: {means[8] * 1000:.2f} ms\n"
        "  (compare Figure 6's ~28 ms/user on the LAN profile)"
    )
    # CPU-only rounds grow far slower than the with-network slope
    # (~170 ms across 2->8 users on the LAN profile).
    assert means[8] - means[2] < 0.02


def test_ablation_sync_interval_vs_commit_lag(report):
    rows = []
    for interval in (0.25, 1.0, 4.0):
        outcome = run_sudoku_session(
            SessionConfig(
                users=4,
                duration=240.0,
                seed=77,
                activity=ActivityModel.busy(2.0),
                runtime=RuntimeConfig(sync_interval=interval),
            )
        )
        lags = [
            metrics.mean_commit_latency
            for metrics in outcome.system.metrics.node_metrics.values()
            if metrics.commit_latency_count
        ]
        mean_lag = sum(lags) / len(lags)
        rows.append((interval, mean_lag, len(outcome.sync_durations)))
    lines = ["Ablation — sync interval trades commit lag for round count"]
    for interval, lag, rounds in rows:
        lines.append(
            f"  interval {interval:>5.2f}s: mean issue->commit lag "
            f"{lag:.2f}s over {rounds} rounds"
        )
    report("\n".join(lines))
    lags = [lag for _interval, lag, _rounds in rows]
    assert lags[0] < lags[1] < lags[2]  # longer interval, longer lag
