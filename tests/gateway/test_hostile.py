"""Hostile-client tests: the gateway must reject cleanly, never crash.

Mirrors the simulation zoo's ``hostile`` workload at the network layer:
stale-spec operations (unknown methods, wrong arity, wrong types),
malformed HTTP and WebSocket bytes, and op floods.  The invariant under
test is always the same — the misbehaving client gets an error (or a
dropped connection), and the daemon keeps serving well-behaved clients,
which every test checks with a final ``client.health()``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import pytest

from repro.core.serialization import shared_type
from repro.core.shared_object import GSharedObject
from repro.errors import GatewayError
from repro.gateway import GatewayServer, server
from repro.gateway.client import GatewayClient
from repro.gateway.http import ws_frame, WS_PING
from repro.runtime.config import RuntimeConfig
from repro.transport.loopback import LoopbackCluster
from tests.helpers import Counter  # registers the Counter shared type


@shared_type
class SetBox(GSharedObject):
    """An operation body that writes a ``set``: state no JSON can carry."""

    def __init__(self):
        self.items = []

    def copy_from(self, src: "SetBox") -> None:
        self.items = type(src.items)(src.items)

    def put(self, item: int) -> bool:
        self.items = {item}
        return True


def _raw_conn(client) -> socket.socket:
    host, _, port_text = client.base_url.split("//", 1)[1].partition(":")
    return socket.create_connection((host, int(port_text)), timeout=5.0)


def _raw_http(client, payload: bytes) -> bytes:
    """Send raw bytes, return whatever the server answers (b'' if it
    just closes the connection)."""
    sock = _raw_conn(client)
    try:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        sock.close()


def _post(path: str, body: bytes, content_length: str | None = None) -> bytes:
    length = content_length if content_length is not None else str(len(body))
    return (
        f"POST {path} HTTP/1.1\r\n"
        "Host: test\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n"
        "\r\n"
    ).encode("latin-1") + body


class TestStaleSpecOperations:
    """Clients running an outdated application spec."""

    def test_unknown_method_is_a_clean_400(self, gateway_cluster):
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter")
        with pytest.raises(GatewayError, match="400"):
            client.invoke(uid, "decrement", 1)  # method newer spec removed
        assert client.health()["ok"]

    def test_wrong_arity_is_a_clean_400(self, gateway_cluster):
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter")
        with pytest.raises(GatewayError, match="400"):
            client.invoke(uid, "increment")  # missing the limit argument
        with pytest.raises(GatewayError, match="400"):
            client.invoke(uid, "increment", 1, 2, 3)
        assert client.health()["ok"]

    def test_wrong_argument_type_is_a_clean_400(self, gateway_cluster):
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter")
        with pytest.raises(GatewayError, match="400"):
            client.invoke(uid, "increment", "one hundred")  # '>=' str vs int
        assert client.health()["ok"]

    def test_failed_op_leaves_object_usable(self, gateway_cluster):
        """An op that raised mid-guess must not wedge the object: later
        well-formed operations still commit."""
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter")
        with pytest.raises(GatewayError, match="400"):
            client.invoke(uid, "increment", "bad")
        done = client.wait_ticket(client.invoke(uid, "increment", 100)["ticket"], 15.0)
        assert done["commit_result"] is True
        assert client.object(uid)["state"]["value"] == 1


class TestMalformedHttp:
    """Byte-level garbage on the REST port."""

    def test_non_object_json_body(self, gateway_cluster):
        cluster, client = gateway_cluster
        response = _raw_http(client, _post("/operations", b"[1, 2, 3]"))
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"JSON object" in response
        assert client.health()["ok"]

    def test_truncated_json_body(self, gateway_cluster):
        cluster, client = gateway_cluster
        response = _raw_http(client, _post("/operations", b'{"object": "x'))
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert client.health()["ok"]

    def test_garbage_content_length(self, gateway_cluster):
        cluster, client = gateway_cluster
        response = _raw_http(
            client, _post("/operations", b"{}", content_length="banana")
        )
        assert response == b""  # unparseable preamble: connection dropped
        assert client.health()["ok"]

    def test_negative_content_length(self, gateway_cluster):
        cluster, client = gateway_cluster
        response = _raw_http(client, _post("/operations", b"", content_length="-5"))
        assert response == b""
        assert client.health()["ok"]

    def test_binary_garbage_preamble(self, gateway_cluster):
        cluster, client = gateway_cluster
        response = _raw_http(client, b"\x00\xff\xfe garbage\r\n\r\n")
        assert response == b""
        assert client.health()["ok"]


class TestMalformedWebSocket:
    """Byte-level garbage on an upgraded ``/ws`` connection."""

    def _handshake(self, client) -> socket.socket:
        sock = _raw_conn(client)
        sock.sendall(
            b"GET /ws HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Key: aG9zdGlsZS1jbGllbnQ=\r\n"
            b"Sec-WebSocket-Version: 13\r\n\r\n"
        )
        head = sock.recv(4096)
        assert b"101" in head.split(b"\r\n", 1)[0]
        return sock

    def test_missing_websocket_key_is_400(self, gateway_cluster):
        cluster, client = gateway_cluster
        response = _raw_http(
            client,
            b"GET /ws HTTP/1.1\r\nHost: test\r\n"
            b"Upgrade: websocket\r\nConnection: Upgrade\r\n\r\n",
        )
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert client.health()["ok"]

    def test_oversized_frame_drops_the_connection(self, gateway_cluster):
        cluster, client = gateway_cluster
        sock = self._handshake(client)
        try:
            # 64-bit length form declaring an 8 GiB payload that never comes.
            sock.sendall(bytes([0x89, 0xFF]) + struct.pack(">Q", 8 << 30))
            assert sock.recv(4096) == b""  # server hung up, no allocation
        finally:
            sock.close()
        assert client.health()["ok"]

    def test_truncated_frame_drops_the_connection(self, gateway_cluster):
        cluster, client = gateway_cluster
        sock = self._handshake(client)
        try:
            sock.sendall(bytes([0x89, 0x85, 0x01, 0x02]))  # claims mask+5 bytes
            sock.shutdown(socket.SHUT_WR)  # ...then never sends them
            assert sock.recv(4096) == b""
        finally:
            sock.close()
        assert client.health()["ok"]

    def test_ping_still_ponged_after_hostile_peer(self, gateway_cluster):
        """A hostile WS connection must not poison a well-behaved one."""
        cluster, client = gateway_cluster
        bad = self._handshake(client)
        bad.sendall(b"\xde\xad\xbe\xef")  # nonsense frame header
        bad.close()
        good = self._handshake(client)
        try:
            good.sendall(ws_frame(WS_PING, b"hi", mask=True))
            reply = good.recv(4096)
            assert reply[0] & 0x0F == 0xA  # PONG
        finally:
            good.close()


class TestOpFlood:
    """A client hammering /operations gets answers, not a dead daemon."""

    def test_flood_of_mixed_ops_all_answered(self, gateway_cluster):
        cluster, client = gateway_cluster
        uid = client.create_instance("Counter")
        tickets, rejected, errors = [], 0, 0
        for i in range(60):
            try:
                issued = client.invoke(uid, "increment", 5)
                if issued["status"] == "rejected":
                    rejected += 1
                else:
                    tickets.append(issued["ticket"])
            except GatewayError:
                errors += 1
        assert errors == 0  # every request got a JSON answer
        assert rejected > 0  # the guess said no once value hit the limit
        # The accepted prefix commits; the counter lands exactly on the cap.
        for ticket in tickets:
            client.wait_ticket(ticket, timeout=15.0)
        assert client.object(uid)["state"]["value"] == 5
        assert client.health()["ok"]


class TestUnrenderableObject:
    """An object whose state cannot be rendered must not end the stream."""

    def test_healthy_object_keeps_streaming_and_stop_is_clean(self, monkeypatch):
        monkeypatch.setattr(server, "POLL_INTERVAL", 0.02)
        cluster = LoopbackCluster(3, config=RuntimeConfig(sync_interval=0.1))
        cluster.boot()
        cluster.start(first_sync_delay=0.05)
        gateway = GatewayServer(cluster.master_node, port=0)
        cluster.run_in_thread()
        loop = cluster.aio_loop
        asyncio.run_coroutine_threadsafe(gateway.start(), loop).result(10)
        client = GatewayClient(f"http://127.0.0.1:{gateway.port}", timeout=10.0)
        ws = None
        try:
            bad = client.create_instance("SetBox")
            good = client.create_instance("Counter")
            ws = client.connect_ws()
            # The guess now holds a set: this object's frame cannot render.
            client.wait_ticket(client.invoke(bad, "put", 7)["ticket"], 15.0)
            with pytest.raises(GatewayError, match="400"):
                client.object(bad)
            for expected in (1, 2):
                client.wait_ticket(client.invoke(good, "increment", 100)["ticket"], 15.0)
                while True:
                    event = ws.recv_json(timeout=5.0)
                    assert event.get("object") != bad or event["event"] != "delta"
                    if event.get("object") == good and event["event"] == "delta":
                        if event["state"]["value"] == expected:
                            break
            assert client.health()["ok"]
        finally:
            if ws is not None:
                ws.close()
            # Returns cleanly: the pump is still alive to be cancelled.
            asyncio.run_coroutine_threadsafe(gateway.stop(), loop).result(10)
            cluster.shutdown()
