"""Socket transport tests: delivery, sequencing, reconnect with backoff.

These run real asyncio servers and links on 127.0.0.1 inside
``asyncio.run`` — no virtual time, so waits poll conditions with
deadlines rather than sleeping fixed amounts.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.errors import NotInMeshError
from repro.net.faults import ProbabilisticDrops
from repro.runtime import messages as msg
from repro.transport import netmesh
from repro.transport.framing import WireFrame
from repro.transport.netmesh import NetworkMeshPair, NodeTransport
from repro.transport.scheduler import AsyncioScheduler


async def wait_for(predicate, timeout: float = 5.0, interval: float = 0.01):
    """Poll ``predicate`` until true or fail the test after ``timeout``."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    pytest.fail(f"condition not reached within {timeout}s")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def make_pair():
    """Two started transports that know each other as peers."""
    scheduler = AsyncioScheduler(asyncio.get_running_loop())
    a = NodeTransport("a", port=0, scheduler=scheduler)
    b = NodeTransport("b", port=0, scheduler=scheduler)
    await a.start()
    await b.start()
    a.set_peers({"b": ("127.0.0.1", b.port)})
    b.set_peers({"a": ("127.0.0.1", a.port)})
    return a, b


class TestDelivery:
    def test_broadcast_crosses_socket(self):
        async def scenario():
            a, b = await make_pair()
            try:
                got = []
                a.channel("signals").join("a", lambda env: None)
                b.channel("signals").join("b", got.append)
                await wait_for(lambda: a.links["b"].connected)
                assert a.channel("signals").broadcast("a", msg.Hello("a")) == 1
                await wait_for(lambda: len(got) == 1)
                env = got[0]
                assert env.sender == "a" and env.recipient == "b"
                assert env.payload == msg.Hello("a")
                assert b.channel("signals").stats.deliveries == 1
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())

    def test_channels_are_independent_over_shared_links(self):
        async def scenario():
            a, b = await make_pair()
            try:
                signals, operations = [], []
                pair_a = NetworkMeshPair(a)
                pair_b = NetworkMeshPair(b)
                pair_a.join("a", lambda env: None, lambda env: None)
                pair_b.join("b", signals.append, operations.append)
                await wait_for(lambda: a.links["b"].connected)
                pair_a.signals.broadcast("a", msg.Hello("a"))
                pair_a.operations.broadcast(
                    "a", msg.OpBatch(1, "a", 0, 1, ((1, {"x": 1}),))
                )
                await wait_for(lambda: signals and operations)
                assert signals[0].channel == "signals"
                assert operations[0].channel == "operations"
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())

    def test_broadcast_from_non_member_raises(self):
        async def scenario():
            a, b = await make_pair()
            try:
                with pytest.raises(NotInMeshError):
                    a.channel("signals").broadcast("ghost", msg.Hello("ghost"))
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())

    def test_send_while_link_down_is_counted_not_buffered(self):
        async def scenario():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            a = NodeTransport("a", port=0, scheduler=scheduler)
            await a.start()
            # Peer address nobody listens on: the link never connects.
            a.set_peers({"b": ("127.0.0.1", free_port())})
            try:
                a.channel("signals").join("a", lambda env: None)
                mesh = a.channel("signals")
                mesh.broadcast("a", msg.Hello("a"))
                assert a.stats.send_failures == 1
                assert mesh.stats.dropped == 1
                assert a.stats.frames_sent == 0
            finally:
                await a.stop()

        asyncio.run(scenario())

    def test_injected_drop_to_a_peer_never_reaches_the_wire(self):
        async def scenario():
            a, b = await make_pair()
            try:
                events = []
                mesh = a.channel("signals")
                mesh.join("a", lambda env: None)
                mesh.observers.append(lambda event, info: events.append(event))
                await wait_for(lambda: a.links["b"].connected)
                mesh.faults = ProbabilisticDrops(1.0)
                assert mesh.broadcast("a", msg.Hello("a")) == 1
                assert a.stats.frames_sent == 0
                assert mesh.stats.dropped == 1
                assert events == ["drop"]
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())


class TestSequencing:
    def test_seq_advances_even_when_link_down(self):
        async def scenario():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            a = NodeTransport("a", port=0, scheduler=scheduler)
            await a.start()
            a.set_peers({"b": ("127.0.0.1", free_port())})
            try:
                for _ in range(3):
                    a.ship("b", "signals", "a", msg.Hello("a"), 0.0)
                assert a._send_seq[("b", "signals")] == 3
                assert a.stats.send_failures == 3
            finally:
                await a.stop()

        asyncio.run(scenario())

    def test_receiver_drops_duplicates_and_counts_gaps(self):
        async def scenario():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            b = NodeTransport("b", port=0, scheduler=scheduler)
            await b.start()
            try:
                got = []
                b.channel("signals").join("b", got.append)

                def frame(seq):
                    return WireFrame("signals", "a", "b", seq, 0.0, msg.Hello("a"))

                b._deliver(frame(1))
                b._deliver(frame(1))  # duplicate
                b._deliver(frame(5))  # 2..4 lost in a dying link
                assert b.stats.duplicates == 1
                assert b.stats.gaps == 3
                assert b.stats.frames_received == 2
                await wait_for(lambda: len(got) == 2)
            finally:
                await b.stop()

        asyncio.run(scenario())

    def test_unroutable_channel_counted(self):
        async def scenario():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            b = NodeTransport("b", port=0, scheduler=scheduler)
            await b.start()
            try:
                b._deliver(WireFrame("nochannel", "a", "b", 1, 0.0, msg.Hello("a")))
                assert b.stats.unroutable == 1
            finally:
                await b.stop()

        asyncio.run(scenario())


class TestReconnect:
    def test_dial_backoff_doubles_until_capped(self, monkeypatch):
        monkeypatch.setattr(netmesh, "BACKOFF_MAX", 0.2)

        async def scenario():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            a = NodeTransport("a", port=0, scheduler=scheduler)
            await a.start()
            a.set_peers({"b": ("127.0.0.1", free_port())})
            link = a.links["b"]
            try:
                await wait_for(lambda: len(link.attempt_times) >= 4, timeout=5.0)
                times = link.attempt_times[:4]
                waits = [b - a_ for a_, b in zip(times, times[1:])]
                # Deterministic schedule 0.05, 0.1, 0.2 (capped), modulo
                # loop latency: each wait at least the nominal backoff
                # and strictly growing until the cap.
                assert waits[0] >= 0.05
                assert waits[1] >= 0.1
                assert waits[2] >= 0.2
            finally:
                await a.stop()

        asyncio.run(scenario())

    def test_link_reconnects_after_peer_restart(self, monkeypatch):
        monkeypatch.setattr(netmesh, "BACKOFF_INITIAL", 0.02)
        monkeypatch.setattr(netmesh, "BACKOFF_MAX", 0.1)

        async def scenario():
            scheduler = AsyncioScheduler(asyncio.get_running_loop())
            a = NodeTransport("a", port=0, scheduler=scheduler)
            b = NodeTransport("b", port=0, scheduler=scheduler)
            await a.start()
            await b.start()
            port_b = b.port
            a.set_peers({"b": ("127.0.0.1", port_b)})
            got = []
            a.channel("signals").join("a", lambda env: None)
            b.channel("signals").join("b", got.append)
            try:
                await wait_for(lambda: a.links["b"].connected)
                assert a.stats.connects == 1

                # Kill b's server: the link must notice and start dialing.
                await b.stop()
                await wait_for(lambda: not a.links["b"].connected)
                assert a.channel("signals").broadcast("a", msg.Hello("a")) == 1
                assert a.channel("signals").stats.dropped == 1  # lost, not buffered

                # Resurrect b on the same port: the link reconnects.
                b2 = NodeTransport("b", host="127.0.0.1", port=port_b,
                                   scheduler=scheduler)
                await b2.start()
                b2.channel("signals").join("b", got.append)
                await wait_for(lambda: a.links["b"].connected, timeout=5.0)
                assert a.stats.reconnects >= 1

                a.channel("signals").broadcast("a", msg.Hello("a"))
                await wait_for(lambda: len(got) == 1)
                # The post-restart receiver sees a sequence gap where the
                # dropped frame died, never a duplicate.
                assert b2.stats.gaps >= 1
                await b2.stop()
            finally:
                await a.stop()

        asyncio.run(scenario())
