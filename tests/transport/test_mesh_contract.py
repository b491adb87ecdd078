"""BroadcastChannel conformance, parametrized over both transports.

The runtime is written against :class:`repro.net.interface.BroadcastChannel`;
this suite pins the delivery semantics both implementations must share
(see the interface module docstring): no self-delivery, asynchronous
handlers, ``NotInMeshError`` for non-member senders, undeliverable
counting instead of exceptions, observer events, assignable faults,
crashed senders and recipients, drop plans.  Both carriers inherit that
code from the one channel implementation; the last test here keeps it
there.

The simulated :class:`~repro.net.mesh.Mesh` runs on the deterministic
event loop; :class:`~repro.transport.netmesh.NetworkMesh` runs on a real
asyncio loop (members here are co-located on one transport, which is the
same local-delivery path a node shares with its own channel — socket
crossing is covered by ``test_netmesh.py``).
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path

import pytest

import repro
from repro.errors import NotInMeshError
from repro.net.faults import CrashPlan, DropPlan, ProbabilisticDrops, ScheduledFaults
from repro.net.interface import BroadcastChannel
from repro.net.latency import ConstantLatency
from repro.net.mesh import Mesh
from repro.sim.eventloop import EventLoop
from repro.transport.netmesh import NetworkMesh, NodeTransport
from repro.transport.scheduler import AsyncioScheduler

FOREVER = float("inf")


class SimHarness:
    """The simulated mesh on virtual time."""

    def __init__(self):
        self.loop = EventLoop()
        self.mesh = Mesh(
            "test", self.loop, ConstantLatency(0.01), None, rng=random.Random(0)
        )

    def run(self):
        self.loop.run()

    def close(self):
        pass


class NetHarness:
    """The socket transport's channel on a real asyncio loop."""

    def __init__(self):
        self.aio_loop = asyncio.new_event_loop()
        scheduler = AsyncioScheduler(self.aio_loop)
        self.transport = NodeTransport("host", port=0, scheduler=scheduler)
        self.aio_loop.run_until_complete(self.transport.start())
        self.mesh = self.transport.channel("test")

    def run(self):
        self.aio_loop.run_until_complete(asyncio.sleep(0.05))

    def close(self):
        self.aio_loop.run_until_complete(self.transport.stop())
        self.aio_loop.close()


@pytest.fixture(params=["sim", "network"])
def harness(request):
    h = SimHarness() if request.param == "sim" else NetHarness()
    yield h
    h.close()


class TestConformance:
    def test_is_a_broadcast_channel(self, harness):
        assert isinstance(harness.mesh, BroadcastChannel)

    def test_broadcast_reaches_all_others_never_sender(self, harness):
        received = {name: [] for name in "abc"}
        for name in "abc":
            harness.mesh.join(name, lambda env, n=name: received[n].append(env.payload))
        harness.mesh.broadcast("a", "hello")
        harness.run()
        assert received == {"a": [], "b": ["hello"], "c": ["hello"]}

    def test_delivery_is_asynchronous(self, harness):
        # The handler must run after broadcast() returned, never inside it.
        order = []
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: order.append("delivered"))
        harness.mesh.broadcast("a", "x")
        order.append("returned")
        harness.run()
        assert order == ["returned", "delivered"]

    def test_broadcast_from_non_member_raises(self, harness):
        with pytest.raises(NotInMeshError):
            harness.mesh.broadcast("ghost", "x")

    def test_send_from_non_member_raises(self, harness):
        harness.mesh.join("a", lambda env: None)
        with pytest.raises(NotInMeshError):
            harness.mesh.send("ghost", "a", "x")

    def test_unicast_reaches_only_target(self, harness):
        received = {name: [] for name in "abc"}
        for name in "abc":
            harness.mesh.join(name, lambda env, n=name: received[n].append(env.payload))
        harness.mesh.send("a", "c", "direct")
        harness.run()
        assert received == {"a": [], "b": [], "c": ["direct"]}

    def test_send_to_absent_recipient_is_counted_not_raised(self, harness):
        harness.mesh.join("a", lambda env: None)
        harness.mesh.send("a", "ghost", "x")
        harness.run()
        assert harness.mesh.stats.undeliverable == 1

    def test_leave_stops_delivery(self, harness):
        got = []
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: got.append(env.payload))
        harness.mesh.broadcast("a", "first")
        harness.run()
        harness.mesh.leave("b")
        harness.mesh.broadcast("a", "second")
        harness.run()
        assert got == ["first"]

    def test_membership_queries(self, harness):
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: None)
        assert harness.mesh.is_member("a")
        assert not harness.mesh.is_member("ghost")
        assert set(harness.mesh.members) >= {"a", "b"}

    def test_envelope_fields(self, harness):
        envelopes = []
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", envelopes.append)
        harness.mesh.broadcast("a", {"k": 1})
        harness.run()
        env = envelopes[0]
        assert env.sender == "a" and env.recipient == "b"
        assert env.channel == "test" and env.payload == {"k": 1}

    def test_stats_counters(self, harness):
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: None)
        harness.mesh.broadcast("a", "x")
        harness.mesh.send("a", "b", "y")
        harness.run()
        assert harness.mesh.stats.broadcasts == 1
        assert harness.mesh.stats.unicasts == 1
        assert harness.mesh.stats.deliveries == 2

    def test_observers_see_deliveries(self, harness):
        events = []
        harness.mesh.observers.append(lambda event, info: events.append(event))
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: None)
        harness.mesh.broadcast("a", "x")
        harness.run()
        assert events.count("deliver") == 1

    def test_faults_are_assignable_and_drop_outbound(self, harness):
        got = []
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: got.append(env))
        harness.mesh.faults = ProbabilisticDrops(1.0)
        harness.mesh.broadcast("a", "x")
        harness.run()
        assert got == []
        assert harness.mesh.stats.dropped == 1

    def test_payload_counts_by_type(self, harness):
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: None)
        harness.mesh.broadcast("a", "x")
        harness.run()
        assert harness.mesh.stats.payload_counts == {"str": 1}

    def test_crashed_sender_sends_nothing(self, harness):
        got = []
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", got.append)
        harness.mesh.faults = ScheduledFaults(crashes=[CrashPlan("a", 0.0, FOREVER)])
        assert harness.mesh.broadcast("a", "x") == 0
        harness.mesh.send("a", "b", "y")
        harness.run()
        assert got == []
        assert harness.mesh.stats.payload_counts == {}

    def test_recipient_crashed_at_delivery_is_undeliverable(self, harness):
        got, events = [], []
        harness.mesh.observers.append(lambda event, info: events.append(event))
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", got.append)
        harness.mesh.faults = ScheduledFaults(crashes=[CrashPlan("b", 0.0, FOREVER)])
        assert harness.mesh.broadcast("a", "x") == 1
        harness.run()
        assert got == []
        assert harness.mesh.stats.undeliverable == 1
        assert events == ["undeliverable"]

    def test_events_carry_the_same_info_on_both_carriers(self, harness):
        keys = {}
        harness.mesh.observers.append(
            lambda event, info: keys.setdefault(event, set(info))
        )
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: None)
        harness.mesh.join("c", lambda env: None)
        harness.mesh.faults = ScheduledFaults(
            drops=[DropPlan(0.0, FOREVER, recipient="b")],
            crashes=[CrashPlan("c", 0.0, FOREVER)],
        )
        harness.mesh.broadcast("a", "x")  # b's copy dropped, c crashed
        harness.mesh.broadcast("a", "y")  # b's copy delivered
        harness.run()
        info = {"channel", "sender", "recipient", "payload", "at"}
        assert keys == {"drop": info, "undeliverable": info, "deliver": info}

    def test_drop_plan_by_payload_type_eats_exactly_max_drops(self, harness):
        got = []
        harness.mesh.join("a", lambda env: None)
        harness.mesh.join("b", lambda env: got.append(env.payload))
        harness.mesh.faults = ScheduledFaults(
            drops=[DropPlan(0.0, FOREVER, payload_type="str", max_drops=2)]
        )
        for payload in ("x1", 7, "x2", "x3"):
            harness.mesh.send("a", "b", payload)
        harness.run()
        assert got == [7, "x3"]
        assert harness.mesh.stats.dropped == 2

    def test_send_to_self_is_delivered(self, harness):
        got = []
        harness.mesh.join("a", got.append)
        harness.mesh.send("a", "a", "me")
        harness.run()
        assert [(env.sender, env.recipient, env.payload) for env in got] == [
            ("a", "a", "me")
        ]



def test_fault_and_arrival_code_lives_in_the_shared_channel():
    """Both carriers run the one copy of the loss decision, the crash
    checks and arrival; a carrier only moves payloads."""
    root = Path(repro.__file__).parent
    for token in ("should_drop(", "is_crashed(", "Envelope("):
        users = {
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if token in path.read_text(encoding="utf-8")
        }
        assert users <= {"net/interface.py", "net/faults.py"}, token
