"""The ISSUE's acceptance scenario as a test: three real OS processes.

Spawns three ``python -m repro.cli serve`` daemons from a generated
``cluster.yaml`` (disk durability, gateway on the master), commits
operations through the HTTP gateway, SIGKILLs a non-master daemon,
watches the master prune it, restarts it against the same data dir (WAL
recovery + Hello/Welcome rejoin) and commits again with the full
membership restored.  Slow (~20 s) but it is *the* end-to-end proof the
transport, daemon, gateway and recovery paths compose.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import GatewayError
from repro.gateway.client import GatewayClient

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def free_ports(count: int) -> list[int]:
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def wait_until(predicate, timeout: float, what: str, interval: float = 0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail(f"timed out after {timeout}s waiting for {what}")


class DaemonCluster:
    """Three serve subprocesses plus the bookkeeping to manage them."""

    def __init__(self, root: Path):
        self.root = root
        ports = free_ports(4)
        self.node_ports = dict(zip(["n1", "n2", "n3"], ports[:3]))
        self.gateway_port = ports[3]
        self.config_path = root / "cluster.yaml"
        self.config_path.write_text(
            "cluster:\n"
            "  name: test\n"
            f"  data_dir: {root / 'data'}\n"
            "nodes:\n"
            + "".join(
                f"  - id: {nid}\n"
                "    host: 127.0.0.1\n"
                f"    port: {port}\n"
                + ("    master: true\n" if nid == "n1" else "")
                for nid, port in self.node_ports.items()
            )
            + "gateway:\n"
            "  node: n1\n"
            "  host: 127.0.0.1\n"
            f"  port: {self.gateway_port}\n"
            "runtime:\n"
            "  sync_interval: 0.15\n"
            "  stall_timeout: 1.0\n"
            "  durability: disk\n",
            encoding="utf-8",
        )
        self.procs: dict[str, subprocess.Popen] = {}
        self._ready_serial = 0

    def spawn(self, node_id: str) -> Path:
        """Start one daemon; returns its ready-file path."""
        self._ready_serial += 1
        ready = self.root / f"ready-{node_id}-{self._ready_serial}.json"
        log = open(self.root / f"{node_id}-{self._ready_serial}.log", "wb")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        self.procs[node_id] = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--node-id", node_id,
                "--config", str(self.config_path),
                "--ready-file", str(ready),
            ],
            env=env,
            stdout=log,
            stderr=log,
        )
        log.close()
        return ready

    def await_ready(self, node_id: str, ready: Path, timeout: float = 25.0) -> dict:
        def arrived():
            if self.procs[node_id].poll() is not None:
                log = next(self.root.glob(f"{node_id}-*.log"))
                pytest.fail(
                    f"daemon {node_id} exited early:\n{log.read_text()[-2000:]}"
                )
            return ready.exists()

        wait_until(arrived, timeout, f"{node_id} ready file")
        info = json.loads(ready.read_text())
        assert info["node_id"] == node_id and info["state"] == "active"
        return info

    def sigkill(self, node_id: str) -> None:
        self.procs[node_id].send_signal(signal.SIGKILL)
        self.procs[node_id].wait(timeout=10)

    def shutdown(self) -> dict[str, int]:
        codes = {}
        for node_id, proc in self.procs.items():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for node_id, proc in self.procs.items():
            try:
                codes[node_id] = proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                codes[node_id] = proc.wait(timeout=5)
        return codes


def test_three_process_cluster_survives_daemon_kill_and_restart(tmp_path):
    cluster = DaemonCluster(tmp_path)
    try:
        ready_files = {nid: cluster.spawn(nid) for nid in ["n1", "n2", "n3"]}
        infos = {
            nid: cluster.await_ready(nid, ready) for nid, ready in ready_files.items()
        }
        assert infos["n1"]["gateway_port"] == cluster.gateway_port

        client = GatewayClient(
            f"http://127.0.0.1:{cluster.gateway_port}", timeout=10.0
        )
        wait_until(
            lambda: sorted(client.cluster()["participants"]) == ["n1", "n2", "n3"],
            20.0,
            "full membership",
        )

        # Commit through the gateway, watch the delta stream carry it.
        uid = client.create_instance("SudokuBoard")
        ws = client.connect_ws()
        done = client.wait_ticket(client.invoke(uid, "update", 1, 1, 5)["ticket"], 20.0)
        assert done["status"] == "committed" and done["commit_result"] is True
        saw_state = saw_commit = False
        for _ in range(40):
            event = ws.recv_json(timeout=10.0)
            if event["event"] == "delta" and event["object"] == uid:
                saw_state = saw_state or event["state"]["puzzle"][0][0] == 5
            elif event["event"] == "ticket" and event["status"] == "committed":
                saw_commit = True
            if saw_state and saw_commit:
                break
        ws.close()
        assert saw_state and saw_commit
        assert client.object(uid)["state"]["puzzle"][0][0] == 5

        # Kill a non-master daemon outright.  An idle master runs no
        # round, so the round the next operation wakes notices: the
        # master prunes n2 and the degraded cluster still commits.
        cluster.sigkill("n2")
        done = client.wait_ticket(client.invoke(uid, "update", 2, 2, 7)["ticket"], 20.0)
        assert done["status"] == "committed"
        wait_until(
            lambda: sorted(client.cluster()["participants"]) == ["n1", "n3"],
            30.0,
            "n2 pruned from membership",
        )

        # Restart n2 against its data dir: WAL recovery + rejoin.
        ready = cluster.spawn("n2")
        cluster.await_ready("n2", ready)
        wait_until(
            lambda: sorted(client.cluster()["participants"]) == ["n1", "n2", "n3"],
            30.0,
            "n2 rejoined membership",
        )

        # And the re-formed cluster commits with n2 back in the rounds.
        done = client.wait_ticket(client.invoke(uid, "update", 3, 3, 9)["ticket"], 20.0)
        assert done["status"] == "committed"
        state = client.object(uid)["state"]
        assert state["puzzle"][0][0] == 5
        assert state["puzzle"][1][1] == 7
        assert state["puzzle"][2][2] == 9
    finally:
        codes = cluster.shutdown()

    # SIGTERM is the daemons' clean-exit path (n2's first incarnation was
    # SIGKILLed on purpose and is not expected to exit 0).
    assert codes["n1"] == 0 and codes["n3"] == 0
    with pytest.raises(GatewayError):
        GatewayClient(
            f"http://127.0.0.1:{cluster.gateway_port}", timeout=2.0
        ).health()
