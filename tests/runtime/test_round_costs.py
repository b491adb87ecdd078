"""What one round costs, as exact counts.

Two structural costs of the round protocol, pinned without reading a
clock: how many messages a round delivers, and how many times a
broadcast serializes its payload.  Both fail if the structure regresses
(a second ``FlushDone``, a per-peer frame, a per-peer re-encode); wall
time is ``bench/``'s job (``docs/PROFILING.md``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.runtime import messages as msg
from repro.runtime.config import RuntimeConfig
from repro.transport import netmesh
from repro.transport.loopback import LoopbackCluster
from tests.helpers import quick_system, shared_counter

SYNC_INTERVAL = 0.5


def _finish_round(system) -> None:
    """Run until one more round has finished and its ``SyncComplete`` has
    landed everywhere; the next round's timer (a whole ``SYNC_INTERVAL``
    after the finish) has not fired yet, so the cluster is idle."""
    records = system.metrics.sync_records
    finished = len(records)
    while len(records) == finished:
        system.loop.step()
    system.run_for(SYNC_INTERVAL / 2)


def _one_round(system) -> tuple[dict[str, int], int, int]:
    """Run exactly one round from an idle cluster.

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


@pytest.mark.parametrize("n, signals_per_round", [(2, 7), (3, 18), (5, 52)])
def test_messages_per_round(n, signals_per_round):
    """A fault-free concurrent round among N founding nodes delivers
    (N-1)(2N+3) signals — three master broadcasts and two all-to-all
    acknowledgements — plus one op frame per flushing node per peer."""
    system = quick_system(n=n, sync_interval=SYNC_INTERVAL)
    assert system.config.sync.collection == "concurrent"
    replicas, _uid = shared_counter(system)
    _finish_round(system)

    signal_shape = {
        "StartSync": n - 1,
        "BeginApply": n - 1,
        "SyncComplete": n - 1,
        "FlushDone": n * (n - 1),
        "ApplyAck": n * (n - 1),
    }
    assert sum(signal_shape.values()) == signals_per_round == (n - 1) * (2 * n + 3)

    # Idle: the signals alone, and no op frame at all.
    assert _one_round(system) == (signal_shape, signals_per_round, 0)

    # Every node flushes k <= batch_max_ops operations: the same
    # signals, plus one OpBatch from each node to each of its peers.
    for machine_id, replica in replicas.items():
        for _ in range(3):
            system.api(machine_id).invoke(replica, "increment", 10**9)
    assert _one_round(system) == (signal_shape, signals_per_round, n * (n - 1))
    assert system.quiesced()
    assert system.metrics.sync_records[-1].ops_committed == 3 * n

    assert _one_round(system) == (signal_shape, signals_per_round, 0)
    system.check_all_invariants()


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
