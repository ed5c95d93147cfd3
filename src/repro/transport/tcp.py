"""The default transport: newline-delimited text over a raw TCP stream.

This is exactly the wire format the service spoke before the transport
layer existed — one message per ``\\n``-terminated line — so the default
configuration stays byte-compatible with every existing client, test,
and the ``nc``-style ad-hoc tooling the NMEA world runs on.

The batch calls move many lines per system call: :meth:`TcpSession.receive_many`
splits one ``read()`` of whatever the socket holds (keeping a partial
last line for the next call), and :meth:`TcpSession.send_many` is one
write and one drain.
"""

import asyncio

from repro.transport.base import (
    Transport,
    TransportError,
    TransportSession,
    check_mode,
)

#: StreamReader limit for sessions we dial ourselves: slide feed lines
#: carry every fresh critical point and can exceed the 64 KiB default.
CLIENT_READ_LIMIT = 1 << 24


def _overrun(limit: int) -> TransportError:
    return TransportError(f"line exceeds read limit of {limit} bytes")


def _within_limit(data: bytes, limit: int) -> bytes:
    """The whole lines of ``data`` before its first line longer than
    ``limit`` bytes (all of ``data`` when there is none)."""
    start = 0
    for line in data.split(b"\n")[:-1]:
        if len(line) > limit:
            return data[:start]
        start += len(line) + 1
    return data


class TcpSession(TransportSession):
    """One newline-framed text stream."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        #: Bytes of the line :meth:`receive_many` has read only part of.
        self._partial = bytearray()
        #: Raised by the next :meth:`receive_many`: a line past the read
        #: limit, found behind lines that were returned first.
        self._overrun: TransportError | None = None

    async def receive(self) -> str | None:
        try:
            raw = await self.reader.readline()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
        except ValueError as exc:
            # A line longer than the stream's read limit; the server
            # decides the limit (asyncio.start_server(limit=...)).
            raise TransportError(f"line exceeds read limit: {exc}") from exc
        if not raw:
            return None
        return raw.decode("utf-8", errors="replace").rstrip("\r\n")

    async def receive_many(self) -> list[str]:
        """The lines of one ``read()``; exactly the lines, and the
        :class:`TransportError`, that :meth:`receive` yields one by one."""
        if self._overrun is not None:
            raise self._overrun
        # StreamReader keeps its limit private; it is the one readline
        # enforces: no line may be longer.
        limit = self.reader._limit
        while True:
            try:
                chunk = await self.reader.read(limit)
            except ConnectionResetError:
                return []
            if not chunk:
                # EOF: an unterminated last line is still a line.
                last, self._partial = bytes(self._partial), bytearray()
                if not last:
                    return []
                return [last.decode("utf-8", errors="replace").rstrip("\r\n")]
            cut = chunk.rfind(b"\n") + 1
            if cut:
                break
            self._partial += chunk
            if len(self._partial) > limit:
                raise _overrun(limit)
        data = bytes(self._partial + chunk[:cut])
        self._partial = bytearray(chunk[cut:])
        whole = _within_limit(data, limit) if len(data) > limit + 1 else data
        if len(whole) < len(data) or len(self._partial) > limit:
            self._overrun = _overrun(limit)
            if not whole:
                raise self._overrun
        text = whole.decode("utf-8", errors="replace")
        lines = text.split("\n")
        lines.pop()  # after the final newline
        if "\r" in text:
            lines = [line.rstrip("\r") for line in lines]
        return lines

    async def send(self, text: str) -> None:
        self.writer.write((text + "\n").encode("utf-8"))
        await self.writer.drain()

    async def send_many(self, texts: list[str]) -> None:
        """One write and one drain.

        On failure ``sent`` counts the lines the kernel took whole when
        the write was issued, as a drained :meth:`send` counts its line.
        The rest waited in the transport's buffer; what of it was
        flushed before the connection failed is unknown, so it is resent.
        """
        if not texts:
            return
        data = ("\n".join(texts) + "\n").encode("utf-8")
        transport = self.writer.transport
        # A write into a non-empty buffer only appends; into an empty
        # one it sends what the kernel takes and buffers the rest.  A
        # closing transport sent nothing: it was gone, or the send failed.
        buffered = transport.get_write_buffer_size()
        self.writer.write(data)
        taken = 0
        if not transport.is_closing():
            taken = buffered + len(data) - transport.get_write_buffer_size()
        try:
            await self.writer.drain()
        except (ConnectionError, OSError) as exc:
            error = TransportError(f"send failed: {exc}")
            error.sent = data.count(b"\n", 0, taken)
            raise error from exc

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class TcpTransport(Transport):
    """Newline-delimited text over TCP (both directions, no handshake)."""

    name = "tcp"

    async def accept(self, reader, writer, mode: str) -> TransportSession:
        check_mode(mode)
        return TcpSession(reader, writer)

    async def connect(self, host: str, port: int, mode: str) -> TransportSession:
        check_mode(mode)
        reader, writer = await asyncio.open_connection(
            host, port, limit=CLIENT_READ_LIMIT
        )
        return TcpSession(reader, writer)
