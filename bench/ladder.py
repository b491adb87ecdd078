"""The per-layer ladder: each layer timed from outside, one rung each.

Every rung calls a public function of one layer (``src/repro/<layer>``)
and reports the median cost of a call.  A rung whose function the
program no longer has comes back ``None`` (absent).  The ``sim.*``
rungs run the seeded simulator on a virtual clock and report exact
counts: two runs of one seed agree to the last digit, which is why they
are the only counts allowed to be compared as counts.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time

from bench import loadgen, measure, workloads
from bench.adapter import probe as rung  # a rung the program lost reads None
from bench.stats import percentile

#: Seconds each timed rung may spend.
RUNG_BUDGET_S = 0.12
#: Virtual seconds of the interactive script the simulator rungs replay.
SIM_SCRIPT_S = 3.0

def per_call_us(fn, prepare=None, budget_s: float = RUNG_BUDGET_S) -> float:
    """Median microseconds of one ``fn()``; ``prepare()`` runs untimed
    before each call.  The result is consumed inside the timed region."""
    clock = time.perf_counter
    samples = []
    deadline = clock() + budget_s
    while len(samples) < 30 or clock() < deadline:
        if prepare is not None:
            prepare()
        start = clock()
        fn()
        samples.append(clock() - start)
        if len(samples) >= 200_000:
            break
    return statistics.median(samples) * 1e6


# ---------------------------------------------------------------------------
# core, apps
# ---------------------------------------------------------------------------


def _sample_op():
    from repro.core.operations import PrimitiveOp

    return PrimitiveOp("PresenceCounters:m01:1", "bump", ("gw0", 1))


def core_invoke_us():
    from repro.apps.presence import PresenceCounters
    from repro.core.guesstimate import Guesstimate
    from repro.core.machine import MachineModel

    api = Guesstimate(MachineModel("m01"))  # LocalHost: no windows, no runtime
    hub = api.create_instance(PresenceCounters)
    return per_call_us(lambda: api.invoke(hub, "bump", "gw0", 1))


def core_encode_op_us():
    from repro.core.serialization import encode_op

    op = _sample_op()
    return per_call_us(lambda: encode_op(op))


def core_decode_op_us():
    from repro.core.serialization import decode_op, encode_op

    payload = encode_op(_sample_op())
    return per_call_us(lambda: decode_op(payload))


def _two_stores(n_objects: int = 1000):
    from repro.apps.presence import PresenceCounters
    from repro.core.store import ObjectStore

    source, target = ObjectStore("committed"), ObjectStore("guess")
    for index in range(n_objects):
        source.create(f"PresenceCounters:m01:{index}", PresenceCounters, None)
    target.refresh_from(source)
    return source, target


def core_refresh_delta_us():
    """One object touched of 1 000: what a round's refresh costs."""
    source, target = _two_stores()
    touched = ("PresenceCounters:m01:7",)

    def touch():
        source.get(touched[0]).bump("gw0", 1)
        source.mark_dirty(touched)

    return per_call_us(lambda: target.refresh_delta_from(source, touched), prepare=touch)


def core_refresh_full_us():
    source, target = _two_stores()
    return per_call_us(lambda: target.refresh_from(source), budget_s=0.2)


def apps_bump_us():
    from repro.apps.presence import PresenceCounters

    hub = PresenceCounters()
    return per_call_us(lambda: hub.bump("gw0", 1))


def apps_replace_at_us():
    from repro.apps.listdoc import SharedDoc

    doc = SharedDoc()
    doc.set_state(workloads.initial_doc_state(0))
    text = doc.lines[5][1]
    return per_call_us(lambda: doc.replace_at(5, "author0", text))


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------


def _op_batch():
    from repro.core.serialization import encode_op
    from repro.runtime.messages import OpBatch

    payload = encode_op(_sample_op())
    return OpBatch(1, "m01", 0, 1, tuple((n, payload) for n in range(1, 65)))


def storage_encode_wire_us():
    from repro.storage.codec import encode_wire

    batch = _op_batch()
    return per_call_us(lambda: encode_wire(batch))


def storage_decode_wire_us():
    from repro.storage.codec import decode_wire, encode_wire

    encoded = encode_wire(_op_batch())
    return per_call_us(lambda: decode_wire(encoded))


def _commit_record(round_id: int):
    from repro.core.serialization import encode_op
    from repro.storage.store import CommitRecord

    payload = encode_op(_sample_op())
    entries = tuple(("m01", round_id * 3 + n, payload, True, 0.0) for n in range(3))
    return CommitRecord(round_id, entries, round_id * 3 + 3)


def storage_wal_append_us(scratch: str, fsync: str):
    from repro.storage.store import DurableStore

    store = DurableStore(os.path.join(scratch, f"wal-{fsync}"), fsync=fsync)
    counter = iter(range(1, 10**9))
    try:
        return per_call_us(lambda: store.append_commit(_commit_record(next(counter))))
    finally:
        store.close()


def storage_snapshot_save_ms(scratch: str):
    from repro.storage.snapshot import SnapshotStore

    store = SnapshotStore(os.path.join(scratch, "snapshot"))
    states = {"SharedDoc:m01:1": ("SharedDoc", workloads.initial_doc_state(0))}
    return per_call_us(lambda: store.save(states, 1, 1)) / 1e3


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def _sample_frame():
    from repro.runtime.messages import FlushDone
    from repro.transport.framing import WireFrame

    return WireFrame("signals", "m01", "m02", 1, 0.0, FlushDone(1, "m01", 3))


def transport_encode_frame_us():
    from repro.transport.framing import encode_frame

    frame = _sample_frame()
    return per_call_us(lambda: encode_frame(frame))


def transport_decode_frame_us():
    from repro.transport.framing import FrameDecoder, encode_frame

    data = encode_frame(_sample_frame())
    decoder = FrameDecoder()
    return per_call_us(lambda: decoder.feed(data))


def transport_hop_us(hops: int = 400):
    """``NodeTransport.ship`` → the peer's handler, over 127.0.0.1."""
    from repro.runtime.messages import FlushDone
    from repro.transport.netmesh import NodeTransport
    from repro.transport.scheduler import AsyncioScheduler

    loop = asyncio.new_event_loop()
    scheduler = AsyncioScheduler(loop)
    sender = NodeTransport("a", port=0, scheduler=scheduler)
    receiver = NodeTransport("b", port=0, scheduler=scheduler)
    samples: list[float] = []

    async def run() -> None:
        await sender.start()
        address = await receiver.start()
        sender.set_peers({"b": address})
        arrived: list[asyncio.Future] = []
        receiver.channel("signals").join(
            "b", lambda envelope: arrived.pop().set_result(time.perf_counter())
        )
        while not sender.links["b"].connected:
            await asyncio.sleep(0.005)
        payload = FlushDone(1, "a", 3)
        for _ in range(hops):
            future = loop.create_future()
            arrived.append(future)
            start = time.perf_counter()
            sender.ship("b", "signals", "a", payload, 0.0)
            samples.append(await asyncio.wait_for(future, 5.0) - start)
        await sender.stop()
        await receiver.stop()
        await asyncio.sleep(0.01)  # let the closed connections' tasks end

    try:
        loop.run_until_complete(run())
    finally:
        loop.close()
    return statistics.median(samples) * 1e6


# ---------------------------------------------------------------------------
# runtime: idle rounds over sockets, and the simulator twin
# ---------------------------------------------------------------------------


def runtime_empty_round_ms(nodes: int, seconds: float = 1.0):
    """Median duration of a round that carries nothing, N nodes over TCP."""
    from repro.runtime.config import RuntimeConfig
    from repro.transport.loopback import LoopbackCluster

    cluster = LoopbackCluster(nodes, config=RuntimeConfig(sync_interval=0.02))
    try:
        cluster.boot()
        cluster.start()
        cluster.run_for(seconds)
        durations = [record.duration for record in cluster.metrics.sync_records]
    finally:
        cluster.shutdown()
    return statistics.median(durations) * 1e3 if durations else None


def sim_run(nodes: int, seed: int) -> dict:
    """Replay the interactive script on ``DistributedSystem``: no
    sockets, virtual clock, seeded — the counts are exact."""
    from repro.apps.presence import PresenceCounters
    from repro.core.guesstimate import Guesstimate
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.system import DistributedSystem

    Guesstimate._reset_id_counter()
    system = DistributedSystem(
        nodes, seed=seed, config=RuntimeConfig(sync_interval=0.02)
    )
    system.start()
    hub = system.api("m01").create_instance(PresenceCounters)
    system.run_until_quiesced()
    system.api("m02").join_instance(hub.unique_id)
    script = workloads.build_script(workloads.WORKLOADS["interactive"], seed, SIM_SCRIPT_S)
    apis = [system.api(machine_id) for machine_id in workloads.GATEWAY_NODES]
    for entry in script:
        system.loop.call_later(
            entry["due"],
            lambda entry=entry: apis[entry["gw"]].invoke(
                hub.unique_id, entry["method"], *entry["args"]
            ),
        )
    rounds_before = len(system.metrics.sync_records)
    deliveries_before = (
        system.meshes.signals.stats.deliveries + system.meshes.operations.stats.deliveries
    )
    batches_before = system.metrics.total_op_batches()
    cpu_before = time.process_time()
    system.run_for(SIM_SCRIPT_S)
    system.run_until_quiesced()
    cpu_s = time.process_time() - cpu_before
    system.check_all_invariants()
    rounds = len(system.metrics.sync_records) - rounds_before
    deliveries = (
        system.meshes.signals.stats.deliveries
        + system.meshes.operations.stats.deliveries
        - deliveries_before
    )
    committed = sum(record.ops_committed for record in system.metrics.sync_records[rounds_before:])
    executions = [
        count
        for metrics in system.metrics.node_metrics.values()
        for count in metrics.executions.values()
    ]
    return {
        "rounds": rounds,
        "committed": committed,
        "msgs_per_round": deliveries / rounds,
        "op_batches_per_round": (system.metrics.total_op_batches() - batches_before) / rounds,
        "executions_per_op": sum(executions) / len(executions),
        "cpu_us_per_op": cpu_s * 1e6 / committed,
    }


# ---------------------------------------------------------------------------
# gateway: a one-node cluster, so no peer is involved
# ---------------------------------------------------------------------------


def gateway_rungs(requests: int = 300) -> dict:
    """POST, ticket GET and WebSocket event cost on a 1-node cluster.

    ``ws_event_us`` runs from the moment the gateway hands the ticket
    event to its subscribers (stamped in the child, on the monotonic
    clock both processes share) to the frame arriving at the reader.
    """
    single = workloads.Workload("ladder-gateway", "", nodes=1, loop="open",
                                app="presence", config={"sync_interval": 0.02})
    spec = measure.child_spec(single, None, stamp_events=True)
    child, unique_id, _ = measure.set_up(spec, "presence", 0)
    reader = None
    try:
        port = child.ports[0]
        reader = loadgen.Reader([port], "presence")
        reader.start()
        post = loadgen.render_request(
            "POST", "/operations", {"object": unique_id, "method": "bump", "args": ["gw0", 1]}
        )
        post_us, tickets = [], []
        for _ in range(requests):
            start = time.perf_counter()
            _, body = loadgen.exchange(port, post)
            post_us.append((time.perf_counter() - start) * 1e6)
            tickets.append(body["ticket"])
            time.sleep(0.001)
        deadline = time.perf_counter() + 10.0
        while reader.resolved < len(tickets) and time.perf_counter() < deadline:
            time.sleep(0.01)
        get_us = []
        for ticket in tickets:
            request = loadgen.render_request("GET", f"/tickets/{ticket}")
            start = time.perf_counter()
            loadgen.exchange(port, request)
            get_us.append((time.perf_counter() - start) * 1e6)
        stamps = dict(child.command("stamps")["stamps"])
        event_us = [
            (reader.tickets[0][ticket][0] - stamps[ticket]) * 1e6
            for ticket in tickets
            if ticket in stamps and ticket in reader.tickets[0]
        ]
    finally:  # a rung keeps no state worth a graceful shutdown
        if reader is not None:
            reader.stop()
        child.kill()
    return {
        "gateway.post_us": percentile(post_us, 50),
        "gateway.ticket_get_us": percentile(get_us, 50),
        "gateway.ws_event_us": percentile(event_us, 50) if event_us else None,
    }


# ---------------------------------------------------------------------------
# The whole ladder
# ---------------------------------------------------------------------------


def run_ladder(seed: int) -> dict:
    """Every workload-independent rung, absent ones as None."""
    os.makedirs(measure.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ladder-", dir=measure.OUT_DIR)
    try:
        metrics = {
            "core.invoke_us": rung(core_invoke_us),
            "core.encode_op_us": rung(core_encode_op_us),
            "core.decode_op_us": rung(core_decode_op_us),
            "core.refresh_delta_us": rung(core_refresh_delta_us),
            "core.refresh_full_us": rung(core_refresh_full_us),
            "apps.bump_us": rung(apps_bump_us),
            "apps.replace_at_us": rung(apps_replace_at_us),
            "storage.encode_wire_us": rung(storage_encode_wire_us),
            "storage.decode_wire_us": rung(storage_decode_wire_us),
            "storage.wal_append_us": rung(lambda: storage_wal_append_us(scratch, "never")),
            "storage.wal_append_fsync_us": rung(lambda: storage_wal_append_us(scratch, "always")),
            "storage.snapshot_save_ms": rung(lambda: storage_snapshot_save_ms(scratch)),
            "transport.encode_frame_us": rung(transport_encode_frame_us),
            "transport.decode_frame_us": rung(transport_decode_frame_us),
            "transport.hop_us": rung(transport_hop_us),
            "runtime.empty_round_ms.n3": rung(lambda: runtime_empty_round_ms(3)),
            "runtime.empty_round_ms.n9": rung(lambda: runtime_empty_round_ms(9)),
        }
        gateway = rung(gateway_rungs) or {}
        for name in ("gateway.post_us", "gateway.ticket_get_us", "gateway.ws_event_us"):
            metrics[name] = gateway.get(name)
        small = rung(lambda: sim_run(3, seed)) or {}
        large = rung(lambda: sim_run(9, seed)) or {}
        metrics.update({
            "runtime.sim_cpu_us_per_op": small.get("cpu_us_per_op"),
            "sim.msgs_per_round.n3": small.get("msgs_per_round"),
            "sim.msgs_per_round.n9": large.get("msgs_per_round"),
            "sim.op_batches_per_round": small.get("op_batches_per_round"),
            "sim.executions_per_op": small.get("executions_per_op"),
        })
        return metrics
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
