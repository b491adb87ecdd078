"""Minimal HTTP/1.1 + WebSocket (RFC 6455) plumbing for the gateway.

Deliberately tiny: one request per connection (``Connection: close``)
for the REST routes, plus just enough WebSocket framing for the delta
stream — text frames server→client, masked client frames, ping/pong,
close.  No fragmentation, no extensions, no compression; the gateway's
messages are small JSON documents.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

from repro.errors import GatewayError

MAX_REQUEST_BODY = 4 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024
#: Largest client→server WebSocket payload we will buffer.  Clients only
#: ever send pings and close frames; a declared length beyond this is a
#: hostile frame and drops the connection instead of waiting on (or
#: allocating) gigabytes.
MAX_WS_PAYLOAD = 1024 * 1024

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

WS_TEXT = 0x1
WS_CLOSE = 0x8
WS_PING = 0x9
WS_PONG = 0xA


@dataclass
class HttpRequest:
    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GatewayError(f"request body is not valid JSON: {exc}") from None


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request; None on EOF or malformed preamble."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    except asyncio.LimitOverrunError:
        return None
    if len(head) > MAX_HEADER_BYTES:
        return None
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    parts = urlsplit(target)
    body = b""
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        return None
    if length < 0 or length > MAX_REQUEST_BODY:
        return None
    if length:
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
    return HttpRequest(
        method=method.upper(),
        path=parts.path,
        query=dict(parse_qsl(parts.query)),
        headers=headers,
        body=body,
    )


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


def json_response(status: int, payload) -> bytes:
    """``payload`` is a JSON-able value, or a ``str`` of JSON text."""
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    body = text.encode("utf-8")
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


# ---------------------------------------------------------------------------
# WebSocket framing
# ---------------------------------------------------------------------------


def ws_accept_value(key: str) -> str:
    """The Sec-WebSocket-Accept value for a client's handshake key."""
    digest = hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def ws_handshake_response(key: str) -> bytes:
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {ws_accept_value(key)}\r\n"
        "\r\n"
    ).encode("latin-1")


def ws_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """Build one unfragmented frame (server frames are unmasked)."""
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask:
        # Fixed masking key: the mask exists for proxy-cache hygiene,
        # not secrecy, and a deterministic key keeps tests replayable.
        key = b"\x37\xfa\x21\x3d"
        header += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + payload


def ws_text_frame(text: str, mask: bool = False) -> bytes:
    return ws_frame(WS_TEXT, text.encode("utf-8"), mask=mask)


def ws_close_frame() -> bytes:
    return ws_frame(WS_CLOSE, b"")


async def ws_read_frame(
    reader: asyncio.StreamReader,
) -> tuple[int, bytes] | None:
    """Read one frame; returns (opcode, payload) or None on EOF/close."""
    try:
        first = await reader.readexactly(2)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    opcode = first[0] & 0x0F
    masked = bool(first[1] & 0x80)
    length = first[1] & 0x7F
    try:
        if length == 126:
            (length,) = struct.unpack(">H", await reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", await reader.readexactly(8))
        if length > MAX_WS_PAYLOAD:
            return None
        mask_key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    if masked:
        payload = bytes(b ^ mask_key[i % 4] for i, b in enumerate(payload))
    return opcode, payload
