"""What one round costs, as exact counts.

The structural costs of the round protocol, pinned without reading a
clock: how many messages a round delivers (and to whom), how many
timers the master keeps, and how many times a broadcast serializes its
payload.  Each fails if the structure regresses (an acknowledgement
flooded to nodes that never read it, a timer per signal, a per-peer
re-encode); wall time is ``bench/``'s job (``docs/PROFILING.md``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.runtime import messages as msg
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.transport import netmesh
from repro.transport.loopback import LoopbackCluster
from tests.helpers import quick_system, shared_counter

SYNC_INTERVAL = 0.5


def _finish_round(system) -> None:
    """Run until one more round has finished and its ``SyncComplete`` has
    landed everywhere; a next round starts no sooner than a whole
    ``SYNC_INTERVAL`` after the finish, so the cluster is between
    rounds."""
    records = system.metrics.sync_records
    finished = len(records)
    while len(records) == finished:
        assert system.loop.peek_time() is not None, "no round is coming"
        system.loop.step()
    system.run_for(SYNC_INTERVAL / 2)


def _one_round(system) -> tuple[dict[str, int], int, int]:
    """Run exactly one round from a cluster between rounds.

    Returns ``(signal sends by type, signal deliveries, op-frame
    deliveries)`` for that round alone.
    """
    signals = system.meshes.signals.stats
    ops = system.meshes.operations.stats
    sent_before = Counter(signals.payload_counts)
    delivered_before = (signals.deliveries, ops.deliveries)
    _finish_round(system)
    return (
        dict(Counter(signals.payload_counts) - sent_before),
        signals.deliveries - delivered_before[0],
        ops.deliveries - delivered_before[1],
    )


ROUND_SIGNALS = ("StartSync", "FlushDone", "BeginApply", "ApplyAck", "SyncComplete")


def _watch_acknowledgements(system) -> set[str]:
    """Collect every recipient a ``FlushDone`` / ``ApplyAck`` is delivered to."""
    recipients: set[str] = set()

    def observe(event: str, info: dict) -> None:
        if event == "deliver" and info["payload"] in ("FlushDone", "ApplyAck"):
            recipients.add(info["recipient"])

    system.meshes.signals.observers.append(observe)
    return recipients


@pytest.mark.parametrize(
    "n, signals_per_round", [(2, 5), (3, 10), (5, 20), (9, 40)]
)
def test_messages_per_round(n, signals_per_round):
    """A fault-free concurrent round among N founding nodes delivers
    5(N-1) signals — three master broadcasts and two acknowledgements
    sent to the master alone — plus one op frame per flushing node per
    peer.  An idle cluster runs no round and sends nothing; each slave
    that wakes it adds one ``WorkReady``."""
    system = quick_system(n=n, sync_interval=SYNC_INTERVAL)
    assert system.config.sync.collection == "concurrent"
    acknowledged = _watch_acknowledgements(system)
    replicas, _uid = shared_counter(system)
    system.run_for(SYNC_INTERVAL)
    master = system.master_node

    signal_shape = dict.fromkeys(ROUND_SIGNALS, n - 1)
    assert sum(signal_shape.values()) == signals_per_round == 5 * (n - 1)

    # Idle: no round, no signal, no op frame.
    rounds = len(system.metrics.sync_records)
    sent = dict(system.meshes.signals.stats.payload_counts)
    system.run_for(10 * SYNC_INTERVAL)
    assert len(system.metrics.sync_records) == rounds
    assert system.meshes.signals.stats.payload_counts == sent
    assert master.master.idle

    # The master's own issue wakes it without a frame: the signals
    # alone, plus its one OpBatch to each peer.
    system.api(master.machine_id).invoke(
        replicas[master.machine_id], "increment", 10**9
    )
    assert _one_round(system) == (signal_shape, signals_per_round, n - 1)

    # Every node flushes k <= batch_max_ops operations: the same
    # signals, plus one OpBatch from each node to each of its peers.
    # Each slave's first issue sent one WorkReady (the master's issue
    # woke it first); they are delivered inside the round.
    sent = system.meshes.signals.stats.payload_counts
    woken = sent.get("WorkReady", 0)
    for machine_id, replica in replicas.items():
        for _ in range(3):
            system.api(machine_id).invoke(replica, "increment", 10**9)
    assert sent["WorkReady"] - woken == n - 1
    assert _one_round(system) == (signal_shape, 6 * (n - 1), n * (n - 1))
    assert system.quiesced()
    assert system.metrics.sync_records[-1].ops_committed == 3 * n
    assert master.master.idle
    # Only the master reads the acknowledgements, so only it gets them.
    assert acknowledged == {system.master_node.machine_id}
    system.check_all_invariants()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_messages_per_sequential_round(n):
    """The paper's serial collection adds one ``YourTurn`` per slave (the
    master takes its own turn without the mesh): 6(N-1) signals."""
    system = quick_system(
        n=n, sync_interval=SYNC_INTERVAL, sync=SyncConfig(collection="sequential")
    )
    acknowledged = _watch_acknowledgements(system)
    _finish_round(system)

    signal_shape = dict.fromkeys(ROUND_SIGNALS + ("YourTurn",), n - 1)
    assert _one_round(system) == (signal_shape, 6 * (n - 1), 0)
    assert acknowledged == {system.master_node.machine_id}


def test_frames_per_round_over_sockets():
    """The same count where a signal is a frame on a TCP link: ten for
    the empty boot round at N = 3, and none after it while idle."""
    cluster = LoopbackCluster(3, config=RuntimeConfig(sync_interval=0.02))
    try:
        cluster.boot()
        cluster.start(first_sync_delay=0.05)  # after the links are up
        cluster.run_for(0.35)
        assert cluster.master_node.master.round is None
        assert cluster.master_node.master.idle
        assert len(cluster.metrics.sync_records) == 1
        frames = sum(t.stats.frames_sent for t in cluster.transports.values())
        assert frames == 10
        assert cluster.loop.errors == []
    finally:
        cluster.shutdown()


def test_master_keeps_one_watchdog_timer():
    """Progress only records when it happened; the number of pending
    timers does not grow with the rounds run inside ``stall_timeout``.
    Sequential collection keeps running empty rounds on an idle
    cluster (a concurrent one runs none)."""
    system = quick_system(
        n=9,
        sync_interval=SYNC_INTERVAL,
        stall_timeout=1000.0,
        sync=SyncConfig(collection="sequential"),
    )
    system.run_for(5.0)
    early = system.loop.pending_count
    system.run_for(10.0)
    assert len(system.metrics.sync_records) >= 15
    assert system.loop.pending_count == early <= 2  # next round + watchdog


@pytest.mark.parametrize("n", [2, 5])
def test_broadcast_encodes_its_payload_once(n, monkeypatch):
    """``NetworkMesh.broadcast`` serializes the payload once and stamps
    only the per-peer envelope, whatever the peer count."""
    encoded = []
    real_encode = netmesh.encode_payload

    def counting_encode(payload):
        encoded.append(payload)
        return real_encode(payload)

    cluster = LoopbackCluster(n, config=RuntimeConfig())
    try:
        cluster.boot()  # rounds never start: the links carry only our frame
        cluster.run_for(0.1)
        mesh = cluster.node("m01").signals_mesh
        transport = cluster.transports["m01"]
        frames_before = transport.stats.frames_sent
        # A request about a round nobody holds: every receiver ignores it.
        payload = msg.ResendOpsRequest(10**6, "m01", ())

        with monkeypatch.context() as patched:
            patched.setattr(netmesh, "encode_payload", counting_encode)
            assert mesh.broadcast("m01", payload) == n - 1

        assert encoded == [payload]
        assert transport.stats.frames_sent - frames_before == n - 1
        cluster.run_for(0.1)
        for machine_id in cluster.machine_ids()[1:]:
            peer_stats = cluster.transports[machine_id].stats
            assert peer_stats.frames_received == 1
        assert cluster.loop.errors == []
    finally:
        cluster.shutdown()
