"""Durability benchmark: crash-recovery cost vs WAL length.

Not a paper figure — the paper's recovery discards local state — but
the natural systems question about the storage subsystem: how does
recovery time scale with the amount of history in the write-ahead log,
and does periodic snapshotting bound it?

Shape assertions: replay length is deterministic and linear in the
number of committed rounds without snapshots, and bounded by the
snapshot interval with them; every recovery converges back to the
survivors' state.
"""

import tempfile

from repro.evalkit.experiments import durability

WAL_LENGTHS = [8, 32, 128]
SNAPSHOT_INTERVAL = 8


def test_recovery_scales_with_wal_length(report):
    result = durability.run(
        wal_lengths=WAL_LENGTHS, snapshot_interval=SNAPSHOT_INTERVAL, seed=7
    )
    report(durability.format_report(result))

    assert all(p.converged for p in result.points)
    no_snap = {
        p.committed_rounds: p for p in result.points if p.snapshot_interval == 0
    }
    with_snap = {
        p.committed_rounds: p for p in result.points if p.snapshot_interval > 0
    }
    assert set(no_snap) == set(with_snap) == set(WAL_LENGTHS)

    # Without snapshots, replay covers the whole log: one record per
    # committed round (+ the create and join/backlog bookkeeping), so
    # it grows strictly with history length...
    replays = [no_snap[n].replay_length for n in WAL_LENGTHS]
    assert replays == sorted(replays)
    assert replays[-1] > replays[0]
    for n in WAL_LENGTHS:
        assert no_snap[n].replay_length >= n
    # ...and deterministically: the WAL holds exactly what was appended.
    assert [no_snap[n].wal_records for n in WAL_LENGTHS] == [
        no_snap[n].replay_length for n in WAL_LENGTHS
    ]

    # Snapshots bound replay by the interval, independent of history.
    for n in WAL_LENGTHS:
        assert with_snap[n].replay_length <= SNAPSHOT_INTERVAL
        assert with_snap[n].snapshots_written >= n // SNAPSHOT_INTERVAL
    bounded = max(p.replay_length for p in with_snap.values())
    unbounded = no_snap[WAL_LENGTHS[-1]].replay_length
    assert bounded < unbounded


def test_disk_recovery_with_fsync_always(report):
    """The real-files path: every append fsynced, snapshots compacting."""
    with tempfile.TemporaryDirectory() as data_dir:
        result = durability.run(
            wal_lengths=[16],
            snapshot_interval=4,
            seed=7,
            data_dir=data_dir,
            fsync_policy="always",
        )
    report(durability.format_report(result))

    assert all(p.converged for p in result.points)
    for p in result.points:
        assert p.fsyncs >= p.wal_records  # always-policy floor
        assert p.recovery_seconds < 1.0
    snap = next(p for p in result.points if p.snapshot_interval > 0)
    assert snap.replay_length <= 4
    assert snap.snapshots_written >= 16 // 4
