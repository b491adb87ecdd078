"""When the gateway's delta stream scans, counted exactly.

The pump scans when the node says ``sg`` may have changed — at every
guess refresh (a round's update, a Welcome) and within ``POLL_INTERVAL``
of a local issue — instead of on a clock.  The scan tests drive a
3-node loopback cluster on the test's own thread, with a gateway whose
subscriber records what it is sent instead of writing to a socket; the
last class pins the one-pass render of a frame.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.apps.listdoc import SharedDoc
from repro.core.serialization import dumps_state, encode_state
from repro.errors import SerializationError
from repro.gateway.server import GatewayServer, _Subscriber
from repro.runtime.config import RuntimeConfig
from repro.transport.loopback import LoopbackCluster
from tests.helpers import Counter


class _Recorder(_Subscriber):
    """A subscriber that keeps ``(monotonic time, event)`` per frame."""

    def __init__(self):
        super().__init__(writer=None)
        self.events: list[tuple[float, dict]] = []

    def push(self, event) -> None:
        length = event[1] & 0x7F
        start = 2 + {126: 2, 127: 8}.get(length, 0)
        self.events.append((time.monotonic(), json.loads(event[start:])))

    def deltas(self, unique_id: str | None = None) -> list[dict]:
        return [
            event
            for _, event in self.events
            if event["event"] == "delta" and unique_id in (None, event["object"])
        ]


class _Watched:
    """A gateway on one node, its recording subscriber, and counts of
    the node's refresh signals and the pump's scans."""

    def __init__(self, cluster: LoopbackCluster, machine_id: str):
        self.cluster = cluster
        self.node = cluster.node(machine_id)
        self.gateway = GatewayServer(self.node, port=0)
        cluster.aio_loop.run_until_complete(self.gateway.start())
        self.refreshes = 0
        self.scans: list[list[dict]] = []  # the frames each scan sent
        self.node.guess_watchers.append(self._count_refresh)
        self.recorder = _Recorder()
        self.gateway.subscribers.append(self.recorder)
        scan = self.gateway._scan

        def counting_scan() -> None:
            before = len(self.recorder.events)
            scan()
            self.scans.append([e for _, e in self.recorder.events[before:]])

        self.gateway._scan = counting_scan

    def _count_refresh(self, refresh: bool) -> None:
        self.refreshes += refresh

    def reset(self) -> None:
        self.refreshes = 0
        self.scans.clear()
        self.recorder.events.clear()

    def stop(self) -> None:
        self.gateway.subscribers.remove(self.recorder)  # it has no socket
        self.cluster.aio_loop.run_until_complete(self.gateway.stop())


def _cluster(sync_interval: float) -> LoopbackCluster:
    cluster = LoopbackCluster(3, config=RuntimeConfig(sync_interval=sync_interval))
    cluster.boot()
    cluster.start(first_sync_delay=0.05)
    return cluster


def _run_until(cluster: LoopbackCluster, predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        cluster.run_for(0.002)


def _shared_counter(cluster: LoopbackCluster, machine_id: str) -> str:
    uid = cluster.api(machine_id).create_instance(Counter).unique_id
    cluster.run_until_quiesced()
    return uid


class TestScanCounts:
    def test_one_scan_per_refresh_one_frame_per_changed_object(self):
        cluster = _cluster(sync_interval=0.05)
        try:
            watched = _Watched(cluster, "m01")
            uid = _shared_counter(cluster, "m02")
            api = cluster.api("m02")
            rounds = 5
            watched.reset()
            for _ in range(rounds):
                ticket = api.invoke(uid, "increment", 100)
                _run_until(cluster, lambda: ticket.status == "committed")
                cluster.run_until_quiesced()
            assert watched.refreshes >= rounds
            assert len(watched.scans) == watched.refreshes
            for frames in watched.scans:
                objects = [e["object"] for e in frames if e["event"] == "delta"]
                assert len(objects) == len(set(objects))
            # Each committed remote op changes m01's guess once.
            values = [e["state"]["value"] for e in watched.recorder.deltas(uid)]
            assert values == list(range(1, rounds + 1))
            watched.stop()
        finally:
            cluster.shutdown()

    def test_idle_cluster_sends_no_delta_frames(self):
        cluster = _cluster(sync_interval=0.05)
        try:
            watched = _Watched(cluster, "m01")
            uid = _shared_counter(cluster, "m02")
            _run_until(cluster, lambda: watched.recorder.deltas(uid))
            watched.reset()
            rounds = len(cluster.metrics.sync_records)
            cluster.run_for(0.5)  # an idle master runs no round
            assert len(cluster.metrics.sync_records) == rounds
            assert watched.refreshes == 0
            assert watched.scans == []
            assert watched.recorder.events == []
            watched.stop()
        finally:
            cluster.shutdown()

    def test_local_issue_streams_long_before_its_round(self):
        cluster = _cluster(sync_interval=1.0)
        try:
            watched = _Watched(cluster, "m02")
            uid = _shared_counter(cluster, "m02")
            # Issue just after the creating round finished, so the round
            # this issue wakes is a sync_interval away, and after a
            # quiet spell longer than POLL_INTERVAL.
            cluster.run_for(0.1)
            watched.reset()
            issued_at = time.monotonic()
            ticket = cluster.api("m02").invoke(uid, "increment", 100)
            _run_until(cluster, lambda: watched.recorder.deltas(uid), timeout=5.0)
            shown_at, event = watched.recorder.events[0]
            assert event["state"]["value"] == 1
            assert shown_at - issued_at < 0.5
            assert ticket.status == "issued"  # its round has not committed
            watched.stop()
        finally:
            cluster.shutdown()


class TestWatcherLifecycle:
    def test_start_stop_start_leaves_one_watcher(self):
        cluster = _cluster(sync_interval=1.0)
        try:
            node = cluster.node("m02")
            uid = _shared_counter(cluster, "m02")
            loop = cluster.aio_loop
            gateway = GatewayServer(node, port=0)
            loop.run_until_complete(gateway.start())
            loop.run_until_complete(gateway.stop())
            loop.run_until_complete(gateway.start())
            assert node.guess_watchers == [gateway._on_guess_changed]
            # An issue right after a scan arms the local-issue timer...
            gateway._last_scan = loop.time()
            cluster.api("m02").invoke(uid, "increment", 100)
            timer = gateway._issue_timer
            assert timer is not None
            # ...and stop() detaches the watcher and cancels that timer.
            loop.run_until_complete(gateway.stop())
            assert node.guess_watchers == []
            assert timer.cancelled() and gateway._issue_timer is None
        finally:
            cluster.shutdown()

    def test_restart_then_welcome_streams_the_new_state(self):
        cluster = _cluster(sync_interval=0.05)
        try:
            watched = _Watched(cluster, "m02")
            uid = _shared_counter(cluster, "m01")
            _run_until(cluster, lambda: watched.recorder.deltas(uid))
            watched.reset()
            # The rebuilt guess store stamps this object with the same
            # version the subscriber saw from the old store (1), so only
            # noticing the new store gets it streamed again.
            watched.node.restart()
            _run_until(cluster, lambda: watched.node.state == "active")
            cluster.run_until_quiesced()
            _run_until(cluster, lambda: watched.recorder.deltas(uid))
            assert watched.recorder.deltas(uid)[-1]["state"] == {"value": 0}
            assert watched.node.guess_watchers == [
                watched.gateway._on_guess_changed,
                watched._count_refresh,
            ]
            watched.stop()
        finally:
            cluster.shutdown()

    def test_offline_node_streams_its_own_issues(self):
        cluster = _cluster(sync_interval=0.05)
        try:
            watched = _Watched(cluster, "m03")
            uid = _shared_counter(cluster, "m01")
            watched.node.go_offline()
            cluster.run_for(0.1)
            watched.reset()
            api = watched.node.api
            api.issue_operation(api.create_operation(uid, "increment", 100))
            api.issue_operation(api.create_operation(uid, "increment", 100))
            _run_until(
                cluster,
                lambda: [e["state"] for e in watched.recorder.deltas(uid)][-1:]
                == [{"value": 2}],
                timeout=2.0,
            )
            assert watched.refreshes == 0  # no round is coming
            watched.stop()
        finally:
            cluster.shutdown()


class TestOnePassRender:
    """A frame is one ``json.dumps`` over the live fields, with the bytes
    the copy-then-check-then-dump render wrote."""

    def test_same_text_as_the_encoded_copy(self):
        doc = SharedDoc()
        doc.lines = [["ann", f"line {i}"] for i in range(40)]
        doc._bind_id("SharedDoc:m01:1")
        fields = {"event": "delta", "object": "SharedDoc:m01:1", "version": 7}
        expected = json.dumps({**fields, **encode_state(doc)}, sort_keys=True)
        assert dumps_state(doc, fields) == expected

    def test_a_get_state_override_is_asked(self):
        class Masked(Counter):
            def get_state(self):
                return {"value": -1}

        assert json.loads(dumps_state(Masked(), {}))["state"] == {"value": -1}

    def test_non_plain_state_raises(self):
        counter = Counter()
        counter.value = {1, 2}
        with pytest.raises(SerializationError):
            dumps_state(counter, {"id": "x"})
