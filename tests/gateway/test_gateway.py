"""Gateway end-to-end: REST + WebSocket over a threaded loopback cluster.

Uses the ``gateway_cluster`` fixture from ``conftest.py``.  Covers the
gateway arc: create instance → issue operation → ticket promotes
guessed → committed → delta stream carries the new state.
"""

from __future__ import annotations

import pytest

from repro.errors import GatewayError
from tests.helpers import Counter  # registers the Counter shared type


class TestRest:
    def test_health_and_cluster_info(self, gateway_cluster):
        cluster, client = gateway_cluster
        health = client.health()
        assert health["ok"] and health["state"] == "active"
        info = client.cluster()
        assert info["is_master"]
        assert sorted(info["participants"]) == ["m01", "m02", "m03"]

    def test_create_invoke_commit_inspect(self, gateway_cluster):
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter")
        assert uid in client.objects()

        issued = client.invoke(uid, "increment", 100)
        assert issued["status"] in ("guessed", "committed")
        done = client.wait_ticket(issued["ticket"], timeout=15.0)
        assert done["status"] == "committed"
        assert done["commit_result"] is True
        assert done["key"]

        info = client.object(uid)
        assert info["type"] == "Counter" and info["state"]["value"] == 1

    def test_join_instance(self, gateway_cluster):
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter")
        client.wait_ticket(client.invoke(uid, "increment", 100)["ticket"], 15.0)
        joined = client.join_instance(uid)
        assert joined == {"id": uid, "type": "Counter"}

    def test_create_with_initial_state(self, gateway_cluster):
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter", {"value": 41})
        client.wait_ticket(client.invoke(uid, "increment", 100)["ticket"], 15.0)
        assert client.object(uid)["state"]["value"] == 42

    def test_error_surfaces(self, gateway_cluster):
        cluster, client = gateway_cluster
        with pytest.raises(GatewayError, match="404"):
            client.object("no-such-object")
        with pytest.raises(GatewayError, match="404"):
            client.ticket("t999")
        with pytest.raises(GatewayError, match="400"):
            client.create_instance("NoSuchType")
        with pytest.raises(GatewayError, match="400"):
            client._request("POST", "/operations", {"object": 5, "method": 3})
        with pytest.raises(GatewayError, match="404"):
            client._request("GET", "/no/such/route")


class TestWebSocket:
    def test_ticket_and_delta_stream(self, gateway_cluster):
        cluster, client = gateway_cluster
        ws = client.connect_ws()
        try:
            uid = client.create_instance("Counter")
            issued = client.invoke(uid, "increment", 100)
            client.wait_ticket(issued["ticket"], timeout=15.0)

            # The guess delta (value already 1) streams within
            # poll_interval of the issue, or at the next guess refresh
            # if that comes first; the ticket event follows at commit.
            # Read until both seen.
            ticket_events, best_delta = [], None
            for _ in range(40):  # bounded: the stream also carries deltas
                event = ws.recv_json(timeout=10.0)
                if event["event"] == "ticket":
                    ticket_events.append(event)
                elif event["event"] == "delta" and event["object"] == uid:
                    if event["state"].get("value") == 1:
                        best_delta = event
                committed = any(
                    e["ticket"] == issued["ticket"] and e["status"] == "committed"
                    for e in ticket_events
                )
                if best_delta is not None and committed:
                    break
            assert best_delta is not None
            assert best_delta["type"] == "Counter"
            assert best_delta["state"]["value"] == 1
            assert best_delta["version"] > 0
            assert committed
        finally:
            ws.close()

    def test_rejected_operation_streams_rejection(self, gateway_cluster):
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter")
        client.wait_ticket(client.invoke(uid, "increment", 100)["ticket"], 15.0)
        ws = client.connect_ws()
        try:
            # increment(1) with value already 1: rejected on the guess.
            issued = client.invoke(uid, "increment", 1)
            assert issued["status"] == "rejected"
            while True:
                event = ws.recv_json(timeout=10.0)
                if event["event"] == "ticket":
                    assert event["status"] == "rejected"
                    assert event["commit_result"] is False
                    break
        finally:
            ws.close()


class TestBroadcastFanout:
    """WS event fan-out encodes once and enqueues the same bytes."""

    def test_broadcast_event_encodes_once(self, monkeypatch):
        from repro.gateway import server as server_mod

        gateway = object.__new__(server_mod.GatewayServer)
        gateway.subscribers = [
            server_mod._Subscriber(writer=None) for _ in range(4)
        ]
        encodes = []
        real = server_mod._encode_ws_event

        def counting(event):
            encodes.append(event)
            return real(event)

        monkeypatch.setattr(server_mod, "_encode_ws_event", counting)
        server_mod.GatewayServer._broadcast_event(
            gateway, {"event": "commit", "round": 7}
        )
        assert len(encodes) == 1
        queued = [sub.queue.get_nowait() for sub in gateway.subscribers]
        assert all(isinstance(data, bytes) for data in queued)
        # One shared bytes object: the per-subscriber work is a queue
        # push, not a re-encode.
        assert len({id(data) for data in queued}) == 1

    def test_broadcast_event_skips_encoding_with_no_subscribers(
        self, monkeypatch
    ):
        from repro.gateway import server as server_mod

        gateway = object.__new__(server_mod.GatewayServer)
        gateway.subscribers = []
        monkeypatch.setattr(
            server_mod,
            "_encode_ws_event",
            lambda event: pytest.fail("encoded an event nobody will read"),
        )
        server_mod.GatewayServer._broadcast_event(gateway, {"event": "x"})
