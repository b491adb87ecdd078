"""The load generator: one issuing session, one WebSocket reader.

Two generator threads — never more than the two cores of the sandbox —
drive the child process over real sockets: the issuer sends each
operation as a blocking ``POST /operations`` on its own short
connection, alternating between two gateways; the reader follows both
``/ws`` streams with one selector loop and timestamps every frame.
The main thread only orchestrates (it sleeps or waits on the control
pipe).  All times are ``time.perf_counter`` — CLOCK_MONOTONIC, which
the child shares, so stamps from both processes compare.
"""

from __future__ import annotations

import base64
import json
import os
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time

HOST = "127.0.0.1"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class BenchError(Exception):
    """The run is invalid (not slow): set-up, stream or child failure."""


# ---------------------------------------------------------------------------
# HTTP: one request per connection, as the gateway serves them
# ---------------------------------------------------------------------------


def render_request(method: str, path: str, body: dict | None = None) -> bytes:
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("latin-1") + data


def exchange(port: int, request: bytes, timeout: float = 10.0) -> tuple[int, dict]:
    """Send one rendered request; ``(status, JSON body)`` of the answer."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def call(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    return exchange(port, render_request(method, path, body))


# ---------------------------------------------------------------------------
# WebSocket reader
# ---------------------------------------------------------------------------


class _Stream:
    def __init__(self, index: int, port: int):
        self.index = index
        self.sock = socket.create_connection((HOST, port), timeout=10.0)
        key = base64.b64encode(os.urandom(16)).decode("latin-1")
        self.sock.sendall(
            (
                f"GET /ws HTTP/1.1\r\nHost: {HOST}:{port}\r\nUpgrade: websocket\r\n"
                f"Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise BenchError("gateway closed the websocket handshake")
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0]:
            raise BenchError(f"websocket handshake refused: {head[:80]!r}")
        self.buffer = bytearray(rest)
        self.sock.setblocking(False)

    def frames(self):
        """Yield the payload of every complete text frame buffered."""
        buffer = self.buffer
        while len(buffer) >= 2:
            opcode = buffer[0] & 0x0F
            length = buffer[1] & 0x7F
            offset = 2
            if length == 126:
                if len(buffer) < 4:
                    return
                (length,) = struct.unpack_from(">H", buffer, 2)
                offset = 4
            elif length == 127:
                if len(buffer) < 10:
                    return
                (length,) = struct.unpack_from(">Q", buffer, 2)
                offset = 10
            if len(buffer) < offset + length:
                return
            payload = bytes(buffer[offset:offset + length])
            del buffer[:offset + length]
            if opcode == 0x8:
                raise BenchError("gateway closed the websocket")
            if opcode == 0x1:
                yield payload


class Reader(threading.Thread):
    """Follows both gateways' ``/ws`` streams on one thread.

    Records, per stream: every ticket event (when, status, result), the
    bytes of every delta frame, and when each *effect* first showed in
    a delta — a counter reaching a value, or a document token appearing
    — which is what a collaborator on that gateway waits for.
    """

    def __init__(self, ports: list[int], app: str):
        super().__init__(name="bench-reader", daemon=True)
        self.app = app
        self.streams = [_Stream(index, port) for index, port in enumerate(ports)]
        self.tickets: list[dict] = [{} for _ in ports]  # id -> (t, status, ok)
        self.counter_seen: list[dict] = [{} for _ in ports]  # name -> [(value, t)]
        self.token_seen: list[dict] = [{} for _ in ports]  # token -> t
        self.deltas: list[list] = [[] for _ in ports]  # (t, frame bytes)
        self.resolved = 0
        self.changed = threading.Condition()
        self.error: str | None = None
        self.stopping = False

    def run(self) -> None:
        selector = selectors.DefaultSelector()
        for stream in self.streams:
            selector.register(stream.sock, selectors.EVENT_READ, stream)
        try:
            while not self.stopping:
                for key, _ in selector.select(timeout=0.1):
                    stream = key.data
                    try:
                        chunk = stream.sock.recv(1 << 18)
                    except BlockingIOError:
                        continue
                    if not chunk:
                        raise BenchError(f"websocket stream {stream.index} dropped")
                    stream.buffer += chunk
                    now = time.perf_counter()
                    for payload in stream.frames():
                        self._on_frame(stream.index, payload, now)
        except (BenchError, OSError) as exc:
            if not self.stopping:
                self.error = str(exc)
        finally:
            selector.close()
            with self.changed:
                self.changed.notify_all()

    def _on_frame(self, index: int, payload: bytes, now: float) -> None:
        event = json.loads(payload)
        kind = event.get("event")
        if kind == "ticket":
            self.tickets[index][event["ticket"]] = (
                now, event["status"], event.get("commit_result"),
            )
            with self.changed:
                self.resolved += 1
                self.changed.notify_all()
        elif kind == "delta":
            self.deltas[index].append((now, len(payload)))
            state = event.get("state", {})
            if self.app == "presence":
                seen = self.counter_seen[index]
                for name, value in state.get("counters", {}).items():
                    history = seen.setdefault(name, [])
                    if not history or value > history[-1][0]:
                        history.append((value, now))
            else:
                seen = self.token_seen[index]
                for line in state.get("lines", ()):
                    seen.setdefault(line[1][:8], now)

    def stop(self) -> None:
        self.stopping = True
        self.join(timeout=5.0)
        for stream in self.streams:
            stream.sock.close()


# ---------------------------------------------------------------------------
# Issuer
# ---------------------------------------------------------------------------


class Issuer(threading.Thread):
    """The one issuing session.

    Open loop: each operation is sent at its due time (or at once, if
    the session is running late) and timed from when it was *due*, so a
    stall charges every request it delayed.  Closed loop: the next
    operation is sent as soon as fewer than ``in_flight`` tickets are
    unresolved.
    """

    def __init__(self, script, requests, ports, reader: Reader, in_flight: int | None):
        super().__init__(name="bench-issuer", daemon=True)
        self.script = script
        self.requests = requests
        self.ports = ports
        self.reader = reader
        self.in_flight = in_flight
        #: one (script index, gateway, due, sent, answered, ticket, status)
        #: per attempt; ticket is None and status the error on failure
        self.records: list[tuple] = []
        self.answered_ok = 0
        self.started_at = 0.0
        self.stopping = False

    def run(self) -> None:
        self.started_at = time.perf_counter()
        if self.in_flight is None:
            self._run_open()
        else:
            self._run_closed()

    def _send(self, position: int, due: float | None) -> None:
        entry = self.script[position]
        gateway = entry["gw"]
        sent = time.perf_counter()
        try:
            status, body = exchange(self.ports[gateway], self.requests[position])
            answered = time.perf_counter()
            if status == 200:
                self.answered_ok += 1
                record = (entry["i"], gateway, due, sent, answered,
                          body["ticket"], body["status"])
            else:
                record = (entry["i"], gateway, due, sent, answered, None,
                          f"HTTP {status}: {body.get('error')}")
        except (OSError, ValueError, KeyError) as exc:
            record = (entry["i"], gateway, due, sent, time.perf_counter(), None,
                      f"{type(exc).__name__}: {exc}")
        self.records.append(record)

    def _run_open(self) -> None:
        for position, entry in enumerate(self.script):
            if self.stopping:
                return
            due = self.started_at + entry["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._send(position, due)

    def _run_closed(self) -> None:
        reader = self.reader
        position = 0
        while not self.stopping:
            with reader.changed:
                while (
                    self.answered_ok - reader.resolved >= self.in_flight
                    and not self.stopping
                    and reader.error is None
                ):
                    reader.changed.wait(0.05)
            if reader.error is not None:
                return
            self._send(position % len(self.script), None)
            position += 1

    def stop(self) -> None:
        self.stopping = True
        with self.reader.changed:
            self.reader.changed.notify_all()
        self.join(timeout=15.0)


# ---------------------------------------------------------------------------
# The child process and its control channel
# ---------------------------------------------------------------------------


class ChildProcess:
    """One launched cluster: spawn, control channel, teardown."""

    def __init__(self, spec: dict, track=None):
        env = dict(os.environ)
        env.pop("GUESSTIMATE_COLLECTION", None)
        self.launched_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"),
             json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        if track is not None:  # before the first blocking read
            track(self)
        self.ready = self._read()
        if self.ready.get("event") != "ready":
            raise BenchError(f"child did not come up: {self.ready}")
        self.ports = list(self.ready["gateways"].values())

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise BenchError(
                f"child exited with code {self.process.wait()} before replying"
            )
        return json.loads(line)

    def command(self, name: str, **fields) -> dict:
        self.process.stdin.write(
            (json.dumps(dict(fields, cmd=name)) + "\n").encode("utf-8")
        )
        self.process.stdin.flush()
        return self._read()

    def close(self) -> int:
        """Wait for a child that was told to finish."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            return self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("child did not exit after finish") from None

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass
