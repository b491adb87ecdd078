"""The socket carrier of the :class:`~repro.net.interface.BroadcastChannel`.

Topology: every node runs **one TCP server** (its inbound half) and
dials **one outbound connection per configured peer** (its outbound
half, a :class:`PeerLink`).  Links are send-only — the dialed side
never writes back — so there is no connection dedup problem and no
distributed handshake: a frame's envelope identifies its sender.

Loss model: a frame sent while the peer's link is down is *dropped*
(counted, never buffered).  This matches the simulated mesh's lossy
semantics; the synchronization protocol already recovers from loss
through stall timeouts, resend requests, and Hello retries, so the
transport does not need reliable delivery — only FIFO per connection,
which TCP provides.  Links reconnect with capped exponential backoff.

Sequencing: the sender stamps a per ``(peer, channel)`` sequence number
on every frame.  The receiver drops duplicates (``seq <= last``) and
counts gaps (``seq > last + 1`` — frames that died in a broken link's
socket buffer), giving the same observability the simulated mesh's
drop counters provide.

Both :class:`NetworkMesh` channels of a node share one
:class:`NodeTransport` (one server, one link per peer) — exactly as
the paper's two PeerChannel meshes shared one physical network.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.net.interface import BroadcastChannel, ChannelPair
from repro.sim.rand import seeded_stream
from repro.transport.framing import (
    FrameDecoder,
    WireFrame,
    encode_frame_with_payload,
    encode_payload,
)
from repro.transport.scheduler import AsyncioScheduler


@dataclass
class TransportStats:
    """Wire-level counters (complementing per-channel ``MeshStats``)."""

    frames_sent: int = 0
    frames_received: int = 0
    send_failures: int = 0  # link down or write failed; frame dropped
    duplicates: int = 0  # received seq <= last seen for (sender, channel)
    gaps: int = 0  # sequence numbers skipped (lost in a dying link)
    decode_errors: int = 0  # malformed inbound stream (connection dropped)
    unroutable: int = 0  # inbound frame for an unregistered channel
    connects: int = 0  # successful outbound connections
    reconnects: int = 0  # connects after a previously-established link died


class PeerLink:
    """One outbound send-only connection, kept alive with backoff.

    The link task dials the peer, then parks on ``reader.read()`` —
    the peer never sends, so the read returning (EOF) or raising is the
    disconnect signal.  After a failed dial the next attempt waits
    ``backoff`` seconds, doubling up to ``backoff_max``; a successful
    connect resets the backoff.  Backoff is deterministic (no jitter)
    so tests can assert the schedule.
    """

    def __init__(
        self,
        transport: "NodeTransport",
        peer_id: str,
        host: str,
        port: int,
        backoff_initial: float = 0.05,
        backoff_max: float = 2.0,
    ):
        self.transport = transport
        self.peer_id = peer_id
        self.host = host
        self.port = port
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self.connected = False
        #: loop times of dial attempts (tests assert backoff spacing)
        self.attempt_times: list[float] = []
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task | None = None
        self._closed = False

    def start(self) -> None:
        self._task = self.transport.loop.create_task(
            self._run(), name=f"peerlink-{self.transport.local_id}-{self.peer_id}"
        )

    async def _run(self) -> None:
        had_connection = False
        backoff = self.backoff_initial
        while not self._closed:
            self.attempt_times.append(self.transport.loop.time())
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                try:
                    await asyncio.sleep(backoff)
                except asyncio.CancelledError:
                    return
                backoff = min(backoff * 2, self.backoff_max)
                continue
            self._writer = writer
            self.connected = True
            backoff = self.backoff_initial
            stats = self.transport.stats
            stats.connects += 1
            if had_connection:
                stats.reconnects += 1
            had_connection = True
            try:
                await reader.read()  # EOF or error == peer gone
            except (OSError, asyncio.CancelledError):
                pass
            self.connected = False
            self._writer = None
            writer.close()
            if self._closed:
                return
            try:
                await asyncio.sleep(self.backoff_initial)
            except asyncio.CancelledError:
                return

    def send(self, data: bytes) -> bool:
        """Queue ``data`` on the link; False if the link is down."""
        writer = self._writer
        if writer is None or writer.is_closing():
            return False
        try:
            writer.write(data)
        except (ConnectionError, OSError, RuntimeError):
            return False
        return True

    async def close(self) -> None:
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self.connected = False


class NodeTransport:
    """One node's wire endpoint: a TCP server plus peer links.

    Channels are registered lazily via :meth:`channel`; both meshes of
    a :class:`NetworkMeshPair` ride the same links and server.
    """

    def __init__(
        self,
        local_id: str,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: AsyncioScheduler | None = None,
        backoff_initial: float = 0.05,
        backoff_max: float = 2.0,
    ):
        if scheduler is None:
            scheduler = AsyncioScheduler(asyncio.get_event_loop())
        self.local_id = local_id
        self.host = host
        self.port = port  # updated to the bound port by start()
        self.scheduler = scheduler
        self.loop = scheduler.loop
        self.stats = TransportStats()
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self.peers: dict[str, tuple[str, int]] = {}
        self.links: dict[str, PeerLink] = {}
        self.channels: dict[str, "NetworkMesh"] = {}
        self._send_seq: dict[tuple[str, str], int] = {}  # (peer, channel)
        self._recv_seq: dict[tuple[str, str], int] = {}  # (sender, channel)
        self._server: asyncio.base_events.Server | None = None
        self._inbound: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the inbound server; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._serve_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    def set_peers(self, peers: dict[str, tuple[str, int]]) -> None:
        """Declare the peer table and dial every peer not yet linked."""
        for peer_id, (host, port) in peers.items():
            if peer_id == self.local_id or peer_id in self.links:
                continue
            self.peers[peer_id] = (host, port)
            link = PeerLink(
                self,
                peer_id,
                host,
                port,
                backoff_initial=self.backoff_initial,
                backoff_max=self.backoff_max,
            )
            self.links[peer_id] = link
            link.start()

    async def stop(self) -> None:
        for link in self.links.values():
            await link.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._inbound):
            writer.close()
        self._inbound.clear()

    # -- channels ------------------------------------------------------------

    def channel(self, name: str) -> "NetworkMesh":
        mesh = self.channels.get(name)
        if mesh is None:
            mesh = NetworkMesh(name, self)
            self.channels[name] = mesh
        return mesh

    # -- sending -------------------------------------------------------------

    def ship(
        self, peer_id: str, channel: str, sender: str, payload: object, sent_at: float
    ) -> bool:
        """Frame ``payload`` for ``peer_id`` and write it to the link.

        The sequence number advances even when the link is down, so the
        receiver's gap counter accounts for the loss after reconnect.
        """
        return self.ship_encoded(
            peer_id, channel, sender, sent_at, encode_payload(payload)
        )

    def ship_encoded(
        self,
        peer_id: str,
        channel: str,
        sender: str,
        sent_at: float,
        payload_json: str,
    ) -> bool:
        """:meth:`ship` for a payload already rendered by
        :func:`~repro.transport.framing.encode_payload`.

        Broadcast fan-out serializes the payload once and calls this
        per peer — only the cheap envelope (recipient + per-link
        sequence number) is built here.
        """
        key = (peer_id, channel)
        seq = self._send_seq.get(key, 0) + 1
        self._send_seq[key] = seq
        data = encode_frame_with_payload(
            channel, sender, peer_id, seq, sent_at, payload_json
        )
        link = self.links.get(peer_id)
        if link is None or not link.send(data):
            self.stats.send_failures += 1
            return False
        self.stats.frames_sent += 1
        return True

    # -- receiving -----------------------------------------------------------

    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._inbound.add(writer)
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except Exception:  # noqa: BLE001 - corrupt stream, cut it
                    self.stats.decode_errors += 1
                    break
                for frame in frames:
                    self._deliver(frame)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Normal shutdown path: asyncio.run() cancels pending tasks and
            # the streams machinery inspects task.exception() — swallow so
            # teardown stays silent.
            pass
        finally:
            self._inbound.discard(writer)
            writer.close()

    def _deliver(self, frame: WireFrame) -> None:
        key = (frame.sender, frame.channel)
        last = self._recv_seq.get(key, 0)
        if frame.seq <= last:
            self.stats.duplicates += 1
            return
        if frame.seq > last + 1:
            self.stats.gaps += frame.seq - last - 1
        self._recv_seq[key] = frame.seq
        self.stats.frames_received += 1
        mesh = self.channels.get(frame.channel)
        if mesh is None:
            self.stats.unroutable += 1
            return
        mesh._on_frame(frame)


class NetworkMesh(BroadcastChannel):
    """The :class:`BroadcastChannel` carried by a :class:`NodeTransport`.

    Local members (normally exactly one: the co-located node) join with
    a handler; every configured peer is a remote member.  ``faults``
    defaults to :class:`~repro.net.faults.NoFaults` but is assignable, and the loss
    decision runs on the *outbound* path before a frame is built —
    loopback tests inject message loss this way without touching
    sockets.
    """

    def __init__(self, name: str, transport: NodeTransport):
        super().__init__(
            name,
            transport.scheduler,
            None,
            seeded_stream(f"netmesh:{transport.local_id}:{name}"),
        )
        self.transport = transport

    @property
    def members(self) -> list[str]:
        remote = [p for p in self.transport.peers if p not in self._handlers]
        return list(self._handlers) + remote

    def is_member(self, node_id: str) -> bool:
        return node_id in self._handlers or node_id in self.transport.peers

    def _carrier(self, sender: str, payload: object, sent_at: float):
        peers = self.transport.peers
        # Encode-once fan-out: the payload bytes are identical for every
        # peer, so serialize them a single time and stamp only the
        # per-peer envelope.
        encoded: str | None = None

        def carry(recipient: str) -> None:
            nonlocal encoded
            if recipient not in peers:  # co-located: zero-copy, next loop turn
                self.scheduler.call_soon(
                    lambda: self._arrive(sender, recipient, payload, sent_at)
                )
                return
            if encoded is None:
                encoded = encode_payload(payload)
            if not self.transport.ship_encoded(
                recipient, self.name, sender, sent_at, encoded
            ):
                # Link down: the frame is lost exactly like a dropped
                # message; the protocol's timeouts recover.
                self._drop(sender, recipient, payload, sent_at)

        return carry

    def _on_frame(self, frame: WireFrame) -> None:
        # Decouple handler execution from the socket-reader task so
        # runtime callbacks never run inside the transport read loop.
        self.scheduler.call_soon(
            lambda: self._arrive(
                frame.sender, frame.recipient, frame.payload, frame.sent_at
            )
        )


class NetworkMeshPair(ChannelPair):
    """Both channels over one :class:`NodeTransport`'s server and links."""

    def __init__(self, transport: NodeTransport):
        super().__init__(transport.channel)
