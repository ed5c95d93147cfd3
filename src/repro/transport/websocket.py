"""Stdlib-only WebSocket transport: RFC 6455 over asyncio streams.

One application message = one text frame (opcode ``0x1``), so message
framing is native — no newline convention needed — and browser or
``websockets``-library clients can subscribe to the feed directly.  The
implementation covers the subset a text-message transport needs:

* the HTTP/1.1 upgrade handshake (``Sec-WebSocket-Accept`` =
  base64(SHA-1(key + GUID)), the magic of RFC 6455 §4.2.2);
* frame codec with 7/16/64-bit payload lengths, client→server masking
  (required by §5.1: the server fails unmasked client frames, the
  client always masks with a fresh ``os.urandom`` key);
* fragmented messages (continuation frames accumulated until ``FIN``);
* control frames: ``ping`` answered with ``pong``, ``close`` echoed
  once and surfaced as end-of-stream.

Binary frames are refused — the service's wire formats are all text —
and a frame larger than :data:`MAX_MESSAGE_BYTES` is a protocol error,
bounding memory per connection.
"""

import asyncio
import base64
import hashlib
import os
import struct

from repro.transport.base import (
    Transport,
    TransportError,
    TransportSession,
    check_mode,
    read_http_head,
)
from repro.transport.tcp import CLIENT_READ_LIMIT

#: RFC 6455 §1.3 — the handshake GUID every implementation shares.
GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Upper bound on one message's payload; a feed line with thousands of
#: critical points is ~1 MiB, so 16 MiB leaves an order of magnitude.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

_OP_CONT = 0x0
_OP_TEXT = 0x1
_OP_BINARY = 0x2
_OP_CLOSE = 0x8
_OP_PING = 0x9
_OP_PONG = 0xA


def accept_key(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's nonce."""
    digest = hashlib.sha1((key + GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


class WebSocketSession(TransportSession):
    """One upgraded connection speaking text frames."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        mask_outgoing: bool,
    ):
        self.reader = reader
        self.writer = writer
        #: Clients mask, servers don't (RFC 6455 §5.1).
        self.mask_outgoing = mask_outgoing
        self._close_sent = False

    # -- frame codec ---------------------------------------------------

    async def _read_frame(self) -> tuple[int, bool, bytes]:
        """``(opcode, fin, payload)`` of the next frame on the wire."""
        head = await self.reader.readexactly(2)
        fin = bool(head[0] & 0x80)
        opcode = head[0] & 0x0F
        masked = bool(head[1] & 0x80)
        length = head[1] & 0x7F
        if length == 126:
            (length,) = struct.unpack("!H", await self.reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack("!Q", await self.reader.readexactly(8))
        if length > MAX_MESSAGE_BYTES:
            raise TransportError(f"frame of {length} bytes exceeds limit")
        if masked:
            mask = await self.reader.readexactly(4)
        payload = await self.reader.readexactly(length) if length else b""
        if masked:
            payload = bytes(
                byte ^ mask[i % 4] for i, byte in enumerate(payload)
            )
        elif not self.mask_outgoing:
            # We are the server: §5.1 requires client frames be masked.
            raise TransportError("unmasked client frame")
        return opcode, fin, payload

    def _write_frame(self, opcode: int, payload: bytes) -> None:
        head = bytearray([0x80 | opcode])
        length = len(payload)
        mask_bit = 0x80 if self.mask_outgoing else 0x00
        if length < 126:
            head.append(mask_bit | length)
        elif length < 1 << 16:
            head.append(mask_bit | 126)
            head += struct.pack("!H", length)
        else:
            head.append(mask_bit | 127)
            head += struct.pack("!Q", length)
        if self.mask_outgoing:
            mask = os.urandom(4)
            head += mask
            payload = bytes(
                byte ^ mask[i % 4] for i, byte in enumerate(payload)
            )
        self.writer.write(bytes(head) + payload)

    # -- session API ---------------------------------------------------

    async def receive(self) -> str | None:
        fragments: list[bytes] = []
        in_message = False
        while True:
            try:
                opcode, fin, payload = await self._read_frame()
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
                OSError,
            ):
                return None
            if opcode == _OP_PING:
                try:
                    self._write_frame(_OP_PONG, payload)
                    await self.writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    return None
                continue
            if opcode == _OP_PONG:
                continue
            if opcode == _OP_CLOSE:
                await self._send_close()
                return None
            if opcode == _OP_BINARY:
                raise TransportError("binary frames unsupported")
            if opcode == _OP_TEXT:
                if in_message:
                    raise TransportError("text frame inside fragmented message")
                in_message = True
            elif opcode == _OP_CONT:
                if not in_message:
                    raise TransportError("continuation without a message")
            else:
                raise TransportError(f"unsupported opcode {opcode:#x}")
            fragments.append(payload)
            if sum(len(f) for f in fragments) > MAX_MESSAGE_BYTES:
                raise TransportError("fragmented message exceeds limit")
            if fin:
                return b"".join(fragments).decode("utf-8", errors="replace")

    async def send(self, text: str) -> None:
        try:
            self._write_frame(_OP_TEXT, text.encode("utf-8"))
            await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise TransportError(f"peer gone: {exc}") from exc

    async def _send_close(self) -> None:
        if self._close_sent:
            return
        self._close_sent = True
        try:
            self._write_frame(_OP_CLOSE, b"")
            await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def close(self) -> None:
        await self._send_close()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class WebSocketTransport(Transport):
    """RFC 6455 text frames; symmetric, so ``mode`` only gates the path."""

    name = "websocket"

    #: Request path clients dial; the server accepts any path, so both
    #: ``/ingest`` and ``/feed`` upgrade to the same session type.
    def _path(self, mode: str) -> str:
        return f"/{mode}"

    async def accept(self, reader, writer, mode: str):
        check_mode(mode)
        head = await read_http_head(reader)
        if head is None:
            return None
        request, headers = head
        key = headers.get("sec-websocket-key")
        if (
            "websocket" not in headers.get("upgrade", "").lower()
            or key is None
            or not request.startswith("GET ")
        ):
            writer.write(
                b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n"
                b"Connection: close\r\n\r\n"
            )
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            return None
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept_key(key)}\r\n\r\n"
            ).encode("ascii")
        )
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return None
        return WebSocketSession(reader, writer, mask_outgoing=False)

    async def connect(self, host: str, port: int, mode: str):
        check_mode(mode)
        reader, writer = await asyncio.open_connection(
            host, port, limit=CLIENT_READ_LIMIT
        )
        nonce = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write(
            (
                f"GET {self._path(mode)} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {nonce}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        head = await read_http_head(reader)
        if head is None:
            raise TransportError("handshake cut short")
        status, headers = head
        if " 101 " not in status + " ":
            raise TransportError(f"upgrade refused: {status!r}")
        if headers.get("sec-websocket-accept") != accept_key(nonce):
            raise TransportError("bad Sec-WebSocket-Accept")
        return WebSocketSession(reader, writer, mask_outgoing=True)
