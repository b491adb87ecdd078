"""The gateway server: REST routes + WebSocket delta stream.

Attached by the daemon to the same asyncio loop the node runs on, so
every handler executes on the loop thread — the same single-threaded
discipline the rest of the runtime relies on; no locks anywhere.

REST surface (all JSON)::

    GET  /healthz               liveness + node state
    GET  /cluster               node id, role, membership, commit position
    GET  /objects               ids of every visible shared object
    GET  /objects/{id}          type, state and version of one object
    POST /instances             {"type": T, "state": {...}} -> {"id": ...}
    POST /instances/{id}/join   subscribe this node to an object
    POST /operations            {"object", "method", "args"} -> {"ticket"}
    GET  /tickets/{tid}         ticket status: pending/guessed/committed/rejected

Ticket statuses map the :class:`~repro.core.guesstimate.IssueTicket`
lifecycle; ``issued`` is surfaced as ``guessed`` — the operation has
executed on the guesstimated state and awaits global commitment, the
paper's defining intermediate state.

``GET /ws`` upgrades to a WebSocket that streams:

* ``{"event": "delta", "object", "version", "type", "state"}`` whenever
  a shared object's guesstimated state changes version — scanned at
  every guess refresh, and within ``POLL_INTERVAL`` of a local issue
  (the versioned-store stamps make a scan O(objects));
* ``{"event": "removed", "object"}`` when an object disappears;
* ``{"event": "ticket", "ticket", "status", "commit_result"}`` when an
  operation issued through this gateway commits or is rejected.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.serialization import dumps_state, resolve_shared_type
from repro.errors import (
    GatewayError,
    GuesstimateError,
    SerializationError,
    SharedObjectError,
    UnknownMethodError,
)
from repro.gateway.http import (
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    HttpRequest,
    json_response,
    read_request,
    ws_frame,
    ws_handshake_response,
    ws_read_frame,
    ws_text_frame,
)
from repro.runtime.node import GuesstimateNode

#: The longest a local issue waits to reach the stream, in seconds.
POLL_INTERVAL = 0.05

_STATUS_MAP = {
    "pending": "pending",
    "issued": "guessed",
    "committed": "committed",
    "rejected": "rejected",
}


def _json_object(request: HttpRequest) -> dict:
    """The request body as a JSON *object* (a list or scalar is a
    client error, not a reason to drop the connection)."""
    body = request.json()
    if not isinstance(body, dict):
        raise GatewayError("request body must be a JSON object")
    return body


def _encode_ws_event(event: dict) -> bytes:
    """Serialize one event to a ready-to-write WebSocket text frame.

    Fan-out paths call this once per event and enqueue the same bytes
    to every subscriber, instead of re-running ``json.dumps`` + frame
    assembly per connection.
    """
    return ws_text_frame(json.dumps(event, sort_keys=True))


class _Subscriber:
    """One WebSocket client: an outbound queue + per-object versions."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue()  # of ready WS frames
        self.seen: dict[str, int] = {}  # object id -> last pushed version
        self.closed = False

    def push(self, frame: bytes) -> None:
        if not self.closed:
            self.queue.put_nowait(frame)


class GatewayServer:
    """HTTP/WebSocket facade over one node's Guesstimate API."""

    def __init__(self, node: GuesstimateNode, host: str = "127.0.0.1", port: int = 0):
        self.node = node
        self.host = host
        self.port = port  # updated to the bound port by start()
        self.tickets: dict[str, object] = {}
        self._ticket_counter = 0
        self.subscribers: list[_Subscriber] = []
        self._server: asyncio.base_events.Server | None = None
        self._pump_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake = asyncio.Event()  # set: the pump owes a scan
        self._last_scan = float("-inf")
        self._store = None  # the guess store the last scan read
        self._issue_timer: asyncio.TimerHandle | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self.node.guess_watchers.append(self._on_guess_changed)
        self._pump_task = self._loop.create_task(self._delta_pump())
        return self.host, self.port

    async def stop(self) -> None:
        if self._on_guess_changed in self.node.guess_watchers:
            self.node.guess_watchers.remove(self._on_guess_changed)
        if self._issue_timer is not None:
            self._issue_timer.cancel()
            self._issue_timer = None
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        for subscriber in list(self.subscribers):
            subscriber.closed = True
            subscriber.writer.close()
        self.subscribers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            if request.path == "/ws" and "websocket" in request.headers.get(
                "upgrade", ""
            ).lower():
                await self._serve_websocket(request, reader, writer)
                return
            status, payload = self._route(request)
            writer.write(json_response(status, payload))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def _route(self, request: HttpRequest) -> tuple[int, dict | str]:
        try:
            return self._dispatch(request)
        except SharedObjectError as exc:
            return 404, {"error": str(exc)}
        except (GatewayError, SerializationError, UnknownMethodError) as exc:
            return 400, {"error": str(exc)}
        except GuesstimateError as exc:
            return 500, {"error": str(exc)}
        except (TypeError, ValueError) as exc:
            # A client-shaped failure from inside an operation — e.g. a
            # stale-spec client invoking with the wrong arity or wrong
            # argument types.  The op raised before it was enqueued, so
            # nothing reached the protocol; the client just loses.
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # noqa: BLE001 - the gateway must answer
            # Whatever happened, a hostile request must never take the
            # daemon's connection handler down without a response.
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _dispatch(self, request: HttpRequest) -> tuple[int, dict | str]:
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if method == "GET" and path == "/healthz":
            return 200, {
                "ok": True,
                "node": self.node.machine_id,
                "state": self.node.state,
            }
        if method == "GET" and path == "/cluster":
            return 200, self._cluster_info()
        if method == "GET" and path == "/objects":
            return 200, {"objects": self.node.api.available_objects()}
        if method == "GET" and len(parts) == 2 and parts[0] == "objects":
            return 200, self._object_info(parts[1])
        if method == "POST" and path == "/instances":
            return self._create_instance(_json_object(request))
        if (
            method == "POST"
            and len(parts) == 3
            and parts[0] == "instances"
            and parts[2] == "join"
        ):
            obj = self.node.api.join_instance(parts[1])
            return 200, {"id": parts[1], "type": type(obj).__name__}
        if method == "POST" and path == "/operations":
            return self._issue_operation(_json_object(request))
        if method == "GET" and len(parts) == 2 and parts[0] == "tickets":
            return self._ticket_info(parts[1])
        return 404, {"error": f"no route for {method} {path}"}

    # -- route implementations -----------------------------------------------

    def _cluster_info(self) -> dict:
        node = self.node
        master = node.master
        participants = (
            list(master.participants)  # already includes the master itself
            if master is not None
            else list(node.synchronizer.last_order)
        )
        return {
            "node": node.machine_id,
            "state": node.state,
            "is_master": node.is_master,
            "participants": participants,
            "committed": node.completed_offset + node.model.completed_count,
        }

    def _object_info(self, unique_id: str) -> str:
        store = self.node.model.guess
        if not store.has(unique_id):
            store = self.node.model.committed
        if not store.has(unique_id):
            from repro.errors import UnknownObjectError

            raise UnknownObjectError(unique_id)
        return dumps_state(
            store.get(unique_id), {"id": unique_id, "version": store.version(unique_id)}
        )

    def _create_instance(self, body: dict) -> tuple[int, dict]:
        type_name = body.get("type")
        if not isinstance(type_name, str):
            raise GatewayError("POST /instances needs a string 'type' field")
        cls = resolve_shared_type(type_name)
        init_state = body.get("state")
        obj = self.node.api.create_instance(cls, init_state)
        return 200, {"id": obj.unique_id, "type": type_name}

    def _issue_operation(self, body: dict) -> tuple[int, dict]:
        unique_id = body.get("object")
        method_name = body.get("method")
        if not isinstance(unique_id, str) or not isinstance(method_name, str):
            raise GatewayError(
                "POST /operations needs string 'object' and 'method' fields"
            )
        args = body.get("args", [])
        if not isinstance(args, list):
            raise GatewayError("'args' must be a JSON array")
        self._ticket_counter += 1
        ticket_id = f"t{self._ticket_counter}"

        def completion(result: bool) -> None:
            self._broadcast_event(
                {
                    "event": "ticket",
                    "ticket": ticket_id,
                    "status": "committed",
                    "commit_result": result,
                }
            )

        ticket = self.node.api.invoke(
            unique_id, method_name, *args, completion=completion
        )
        self.tickets[ticket_id] = ticket
        if ticket.status == "rejected":
            self._broadcast_event(
                {
                    "event": "ticket",
                    "ticket": ticket_id,
                    "status": "rejected",
                    "commit_result": False,
                }
            )
        return 200, {"ticket": ticket_id, "status": _STATUS_MAP[ticket.status]}

    def _ticket_info(self, ticket_id: str) -> tuple[int, dict]:
        ticket = self.tickets.get(ticket_id)
        if ticket is None:
            return 404, {"error": f"unknown ticket {ticket_id!r}"}
        return 200, {
            "ticket": ticket_id,
            "status": _STATUS_MAP[ticket.status],
            "commit_result": ticket.commit_result,
            "key": str(ticket.key) if ticket.key is not None else None,
        }

    # -- WebSocket delta stream ----------------------------------------------

    async def _serve_websocket(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        if key is None:
            writer.write(json_response(400, {"error": "missing websocket key"}))
            await writer.drain()
            return
        writer.write(ws_handshake_response(key))
        await writer.drain()
        subscriber = _Subscriber(writer)
        self.subscribers.append(subscriber)
        self._on_guess_changed(False)  # behind on everything, like an issue
        sender = asyncio.get_running_loop().create_task(self._ws_sender(subscriber))
        try:
            while True:
                frame = await ws_read_frame(reader)
                if frame is None or frame[0] == WS_CLOSE:
                    break
                if frame[0] == WS_PING:
                    writer.write(ws_frame(WS_PONG, frame[1]))
                    await writer.drain()
        finally:
            subscriber.closed = True
            if subscriber in self.subscribers:
                self.subscribers.remove(subscriber)
            sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass

    async def _ws_sender(self, subscriber: _Subscriber) -> None:
        while not subscriber.closed:
            data = await subscriber.queue.get()
            try:
                subscriber.writer.write(data)
                await subscriber.writer.drain()
            except (ConnectionError, OSError):
                subscriber.closed = True
                return

    def _broadcast_event(self, event: dict) -> None:
        if not self.subscribers:
            return
        data = _encode_ws_event(event)
        for subscriber in self.subscribers:
            subscriber.push(data)

    def _on_guess_changed(self, refresh: bool) -> None:
        """A refresh wakes the pump now (wakes in one tick coalesce); so
        does a local issue after a quiet spell, else it arms one timer
        for ``POLL_INTERVAL`` after the last scan, which a scan cancels."""
        due = self._last_scan + POLL_INTERVAL - self._loop.time()
        if refresh or due <= 0:
            self._wake.set()
        elif self._issue_timer is None:
            self._issue_timer = self._loop.call_later(due, self._wake.set)

    async def _delta_pump(self) -> None:
        """One scan each time the node says ``sg`` may have changed."""
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._scan()

    def _scan(self) -> None:
        """Push guess-store changes to every subscriber: integer stamp
        compares, and a frame rendered only for an object that changed.
        ``node.model`` is re-read, as a restart replaces it wholesale."""
        self._last_scan = self._loop.time()
        if self._issue_timer is not None:
            self._issue_timer.cancel()
            self._issue_timer = None
        if not self.subscribers:
            return
        store = self.node.model.guess
        if store is not self._store:  # a restart: old stamps mean nothing
            self._store = store
            for subscriber in self.subscribers:
                subscriber.seen = dict.fromkeys(subscriber.seen, -1)
        current = {uid: store.version(uid) for uid in sorted(store.ids())}
        # One scan renders each changed object once; subscribers differ
        # only in *which* frames they are behind on.
        frames: dict[str, bytes] = {}
        for subscriber in list(self.subscribers):
            seen = subscriber.seen
            for unique_id, version in current.items():
                if seen.get(unique_id) == version:
                    continue
                seen[unique_id] = version
                data = frames.get(unique_id)
                if data is None:
                    fields = {"event": "delta", "object": unique_id, "version": version}
                    try:
                        data = ws_text_frame(dumps_state(store.get(unique_id), fields))
                    except SerializationError:  # e.g. a set written by an op
                        data = b""  # skip this version; the rest streams on
                    frames[unique_id] = data
                if data:
                    subscriber.push(data)
            for gone in [u for u in seen if u not in current]:
                del seen[gone]
                subscriber.push(_encode_ws_event({"event": "removed", "object": gone}))
