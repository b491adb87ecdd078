"""Launcher of the program under test: one cluster, one child process.

Started by the load generator with one JSON argument.  Builds one
``LoopbackCluster`` (N nodes, each with its own ``NodeTransport``, all on
one asyncio loop) plus one ``GatewayServer`` per client-facing node, then
serves a JSON-lines control channel on stdin/stdout until told to
finish.  No ``SyncConfig`` is passed and ``GUESSTIMATE_COLLECTION`` is
removed from the environment, so what runs is the shipped default path.

Control commands (one JSON object per line, one reply per command):

``counters``  cumulative program counters and the moment they were read
``rounds``    per-round durations recorded since an index
``halt``      hard-kill a node; replies once rounds commit without it
``rejoin``    ``recover_and_rejoin`` it; replies once it caught up
``finish``    quiesce, run the invariant checks, reply, shut down

All the while the child runs the reference unit of ``reference.py`` on
the same loop; ``finish`` hands its series (machine speed and the child's
CPU, unit by unit) to the generator.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.adapter import (  # noqa: E402 - needs the path set above
    commit_position,
    probe,
    read_counters,
    read_executions,
    read_rounds,
)
from bench.reference import Reference  # noqa: E402
from bench.tracing import SpanRecorder, substitute  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident set of this process, from its own address space.
    ``ru_maxrss`` will not do: across ``exec`` it keeps the peak of the
    process that spawned this one, so it would report the generator's
    memory whenever that is the larger."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reply(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


class Child:
    def __init__(self, spec: dict):
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.node import GuesstimateNode
        from repro.transport.loopback import LoopbackCluster

        self.active = GuesstimateNode.STATE_ACTIVE

        self.spec = spec
        self.recorder = None
        self.stamps: list = []
        self.unresolved: list[str] = []
        if spec.get("trace"):
            self.recorder = SpanRecorder()
            self.recorder.install()
            self.unresolved = list(self.recorder.unresolved)
        if spec.get("stamp_events"):
            self._install_event_stamps()
        self.cluster = LoopbackCluster(
            spec["nodes"], config=RuntimeConfig(**spec["config"])
        )
        self.gateways: dict = {}
        self.reference = Reference(self.cluster.aio_loop)
        self.commands: asyncio.Queue = asyncio.Queue()
        self._stdin_buffer = b""

    # -- set-up ----------------------------------------------------------------

    def boot(self) -> None:
        from repro.gateway.server import GatewayServer

        cluster = self.cluster
        cluster.boot()
        cluster.start()
        for machine_id in self.spec["gateways"]:
            gateway = GatewayServer(cluster.node(machine_id))
            cluster.aio_loop.run_until_complete(gateway.start())
            self.gateways[machine_id] = gateway
        cluster.aio_loop.add_reader(sys.stdin.fileno(), self._on_stdin)
        self.reference.start()
        _reply(
            {
                "event": "ready",
                "pid": os.getpid(),
                "gateways": {mid: gw.port for mid, gw in self.gateways.items()},
                "unresolved": self.unresolved,
            }
        )

    def _install_event_stamps(self) -> None:
        """Stamp the moment the gateway hands a ticket event to its
        subscribers, so the generator can time completion → frame
        received on the clock both processes share."""
        stamps = self.stamps
        dotted = "repro.gateway.server.GatewayServer._broadcast_event"

        def make(original):
            def stamped(gateway, event):
                if event.get("event") == "ticket":
                    stamps.append([event.get("ticket"), time.perf_counter()])
                return original(gateway, event)

            return stamped

        if not substitute(dotted, make):
            self.unresolved.append(dotted)

    def _on_stdin(self) -> None:
        data = os.read(sys.stdin.fileno(), 65536)
        if not data:  # the generator went away: nothing left to serve
            self.cluster.aio_loop.remove_reader(sys.stdin.fileno())
            self.commands.put_nowait({"cmd": "finish", "orphaned": True})
            return
        self._stdin_buffer += data
        *lines, self._stdin_buffer = self._stdin_buffer.split(b"\n")
        for line in lines:
            if line.strip():
                self.commands.put_nowait(json.loads(line))

    # -- serving ---------------------------------------------------------------

    async def serve(self) -> dict:
        """Answer commands until ``finish``; returns that command."""
        while True:
            command = await self.commands.get()
            name = command["cmd"]
            if name == "finish":
                return command
            handler = getattr(self, "_cmd_" + name)
            result = handler(command)
            if asyncio.iscoroutine(result):
                result = await result
            _reply(result)

    def _cmd_counters(self, command: dict) -> dict:
        return {
            "at": time.perf_counter(),
            "span_mark": self.recorder.mark() if self.recorder else None,
            "counters": read_counters(self.cluster),
        }

    def _cmd_rounds(self, command: dict) -> dict:
        return {"rounds": read_rounds(self.cluster, command["since"])}

    def _cmd_stamps(self, command: dict) -> dict:
        return {"stamps": self.stamps}

    async def _cmd_halt(self, command: dict) -> dict:
        """Hard-kill a node; the outage ends with the first commit the
        master makes after dropping the victim from its participants."""
        victim = command["node"]
        master_node = self.cluster.master_node
        node = self.cluster.node(victim)
        # The kill is simulated in-process, so the victim's armed timers
        # outlive it; killing it between windows leaves none that would
        # fire into the dead node.
        for _ in range(200):
            if probe(node.active_window) is None:
                break
            await asyncio.sleep(0.001)
        started = time.perf_counter()
        node.halt()
        deadline = started + command.get("timeout", 20.0)
        evicted = False
        position = None
        while time.perf_counter() < deadline:
            await asyncio.sleep(0.001)
            participants = probe(lambda: master_node.master.participants)
            if participants is None:
                break
            if not evicted:
                if victim in participants:
                    continue
                evicted = True
                position = commit_position(master_node)
            if position is None or commit_position(master_node) > position:
                return {"ok": True, "outage_ms": (time.perf_counter() - started) * 1e3}
        return {"ok": False, "error": f"{victim} still a participant"}

    async def _cmd_rejoin(self, command: dict) -> dict:
        """Bring the victim back; done when it is active and holds the
        commit position the master had when the rejoin began.  Then
        wait for an instant where both hold the same position and
        compare their committed stores."""
        victim = self.cluster.node(command["node"])
        master_node = self.cluster.master_node
        target = commit_position(master_node)
        started = time.perf_counter()
        victim.recover_and_rejoin()
        deadline = started + command.get("timeout", 20.0)
        rejoin_ms = None
        while time.perf_counter() < deadline:
            await asyncio.sleep(0.001)
            if victim.state != self.active:
                continue
            mine = commit_position(victim)
            if rejoin_ms is None:
                if mine is None or target is None or mine >= target:
                    rejoin_ms = (time.perf_counter() - started) * 1e3
                else:
                    continue
            if mine == commit_position(master_node):
                return {
                    "ok": True,
                    "rejoin_ms": rejoin_ms,
                    "equal": victim.model.committed.state_equal(
                        master_node.model.committed
                    ),
                }
        return {"ok": False, "error": f"{victim.machine_id} did not catch up"}

    # -- the correctness gate --------------------------------------------------

    def finish(self) -> dict:
        """Quiesce and judge the cluster by the program's own oracles."""
        from repro.core.serialization import encode_state

        cluster = self.cluster
        self.reference.stop()
        verdict: dict = {"ok": True, "errors": [], "reference": self.reference.series}
        try:
            cluster.run_until_quiesced()
            cluster.check_all_invariants()
            if not cluster.committed_states_equal():
                verdict["errors"].append("committed states differ")
            if not cluster.completed_sequences_equal():
                verdict["errors"].append("completed sequences differ")
        except Exception as exc:  # noqa: BLE001 - any failure is a verdict
            verdict["errors"].append(f"{type(exc).__name__}: {exc}")
        verdict["errors"].extend(
            f"scheduler callback raised: {error!r}" for error in cluster.loop.errors
        )
        inactive = [
            mid for mid, node in cluster.nodes.items() if node.state != self.active
        ]
        if inactive:
            verdict["errors"].append(f"nodes not active at the end: {inactive}")
        verdict["ok"] = not verdict["errors"]
        verdict["states"] = {
            machine_id: {
                unique_id: encode_state(obj)["state"]
                for unique_id, obj in cluster.node(machine_id).model.committed
            }
            for machine_id in cluster.nodes
        }
        verdict["rss_kb"] = peak_rss_kb()
        verdict.update(read_executions(cluster))
        if self.recorder is not None:
            verdict["trace"] = self._write_trace()
        return verdict

    def _write_trace(self) -> dict:
        path = self.spec["trace_path"]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            written = self.recorder.write(handle, "child")
        return {"path": path, "spans": written}

    def shutdown(self) -> None:
        loop = self.cluster.aio_loop
        self.reference.stop()
        for gateway in self.gateways.values():
            loop.run_until_complete(gateway.stop())
        self.cluster.shutdown()


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.environ.pop("GUESSTIMATE_COLLECTION", None)
    import repro.apps  # noqa: F401 - registers every shared type

    child = Child(spec)
    child.boot()
    loop = child.cluster.aio_loop
    command = loop.run_until_complete(child.serve())
    windows = command.get("windows")
    if not command.get("orphaned"):
        verdict = child.finish()
        if child.recorder is not None and windows:
            verdict["span_summary"] = child.recorder.summary(*windows)
        _reply(verdict)
    child.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
