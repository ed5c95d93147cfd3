"""HTTP-forward transport: POST ingest batches, chunked feed streaming.

For environments where raw sockets are awkward (load balancers, strict
egress proxies) the service can speak plain HTTP/1.1:

* **Ingest** — the client buffers lines and ``POST /ingest`` them as a
  newline-joined batch (``Content-Type: text/plain``); the server
  answers ``204`` per batch on a keep-alive connection and yields the
  batch's lines one at a time to the caller, preserving order.  A
  failed POST is retried with the deterministic
  :class:`~repro.resilience.retry.BackoffPolicy` schedule — same
  policy object the MOD guard uses, but slept with ``asyncio.sleep``
  so the event loop never blocks — reconnecting between attempts;
  the batch is only dropped (counted, never silent) once the attempt
  budget is spent.
* **Feed** — the client issues ``GET /feed`` and the server streams
  feed lines forever as chunked transfer encoding, one line per chunk;
  ``curl -N`` makes a perfectly good subscriber.

Both directions preserve message boundaries and bytes exactly, so the
conformance suite (tests/transport) holds this adapter to the same
round-trip contract as TCP and WebSocket.
"""

import asyncio
from urllib.parse import urlsplit

from repro import obs
from repro.resilience.retry import BackoffPolicy
from repro.transport.base import (
    Transport,
    TransportError,
    TransportSession,
    check_mode,
    read_http_head,
)
from repro.transport.tcp import CLIENT_READ_LIMIT

#: Lines buffered client-side before a batch is flushed.
DEFAULT_BATCH_LINES = 256

#: Largest request body the server will read (1 MiB of sentences).
MAX_BODY_BYTES = 1 << 20


class HttpIngestServerSession(TransportSession):
    """Server side of the POST-batch ingest direction."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._pending: list[str] = []
        self._cursor = 0

    async def receive(self) -> str | None:
        while self._cursor >= len(self._pending):
            if not await self._read_batch():
                return None
        line = self._pending[self._cursor]
        self._cursor += 1
        return line

    async def _read_batch(self) -> bool:
        head = await read_http_head(self.reader)
        if head is None:
            return False
        request, headers = head
        method = request.split(" ", 1)[0].upper()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise TransportError("Content-Length is not an integer") from None
        if length < 0:
            raise TransportError(f"negative Content-Length: {length}")
        if length > MAX_BODY_BYTES:
            raise TransportError(f"request body of {length} bytes too large")
        try:
            body = await self.reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, OSError) as exc:
            raise TransportError(f"request body cut short: {exc}") from exc
        if method != "POST":
            await self._respond("405 Method Not Allowed")
            return True
        self._pending = body.decode("utf-8", errors="replace").splitlines()
        self._cursor = 0
        await self._respond("204 No Content")
        return True

    async def _respond(self, status: str) -> None:
        self.writer.write(
            f"HTTP/1.1 {status}\r\nContent-Length: 0\r\n\r\n".encode("ascii")
        )
        try:
            await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def send(self, text: str) -> None:
        raise TransportError("ingest sessions are receive-only server-side")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class HttpIngestClientSession(TransportSession):
    """Client side: buffer lines, POST batches under the retry policy."""

    def __init__(
        self,
        host: str,
        port: int,
        batch_lines: int,
        policy: BackoffPolicy,
    ):
        self.host = host
        self.port = port
        self.batch_lines = batch_lines
        self.policy = policy
        self._buffer: list[str] = []
        self._conn: tuple = ()

    async def _connection(self):
        if not self._conn:
            self._conn = await asyncio.open_connection(
                self.host, self.port, limit=CLIENT_READ_LIMIT
            )
        return self._conn

    def _disconnect(self) -> None:
        if self._conn:
            self._conn[1].close()
            self._conn = ()

    async def _post_once(self, body: bytes) -> None:
        reader, writer = await self._connection()
        writer.write(
            (
                "POST /ingest HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: text/plain; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()
        head = await read_http_head(reader)
        if head is None:
            raise TransportError("server closed mid-request")
        status = head[0]
        if " 204 " not in status + " " and " 200 " not in status + " ":
            raise TransportError(f"batch refused: {status!r}")

    async def flush(self) -> None:
        """POST everything buffered; retry per the backoff schedule."""
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        body = ("\n".join(batch) + "\n").encode("utf-8")
        for attempt in range(1, self.policy.max_attempts + 1):
            obs.count("transport.http.post_attempts")
            try:
                await self._post_once(body)
                return
            except (TransportError, OSError) as exc:
                self._disconnect()
                if attempt == self.policy.max_attempts:
                    # Budget spent: the batch is lost to the caller but
                    # never silently — counted like every other shed.
                    obs.count("transport.http.batches_dropped")
                    obs.count("transport.http.lines_dropped", len(batch))
                    raise TransportError(
                        f"batch dropped after {attempt} attempts: {exc}"
                    ) from exc
                obs.count("transport.http.post_retries")
                await asyncio.sleep(self.policy.delay_for(attempt))

    async def send(self, text: str) -> None:
        self._buffer.append(text)
        if len(self._buffer) >= self.batch_lines:
            await self.flush()

    async def receive(self) -> str | None:
        raise TransportError("ingest sessions are send-only client-side")

    async def close(self) -> None:
        try:
            await self.flush()
        except TransportError:
            pass
        self._disconnect()


class HttpFeedServerSession(TransportSession):
    """Server side of ``GET /feed``: one chunk per feed line, forever.

    The resume handshake rides the request line — ``GET /feed?resume=<n>``
    sets :attr:`resume_seq`, which the feed hub reads at accept time (the
    chunked response channel is send-only, so HTTP subscribers cannot
    send a ``RESUME`` line the way TCP/WebSocket ones do).
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        #: Last sequence number the client saw, from ``?resume=<n>``
        #: (``None`` = classic unstamped subscription).
        self.resume_seq: int | None = None

    async def start(self) -> bool:
        head = await read_http_head(self.reader)
        if head is None or not head[0].upper().startswith("GET"):
            return False
        target = head[0].split(" ")[1] if " " in head[0] else ""
        for param in urlsplit(target).query.split("&"):
            name, sep, value = param.partition("=")
            if sep and name == "resume":
                try:
                    seq = int(value)
                except ValueError:
                    continue
                if seq >= 0:
                    self.resume_seq = seq
        self.writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        try:
            await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return False
        return True

    async def send(self, text: str) -> None:
        data = (text + "\n").encode("utf-8")
        try:
            self.writer.write(
                f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"
            )
            await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise TransportError(f"subscriber gone: {exc}") from exc

    async def receive(self) -> str | None:
        raise TransportError("feed sessions are send-only server-side")

    async def close(self) -> None:
        try:
            self.writer.write(b"0\r\n\r\n")
            await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class HttpFeedClientSession(TransportSession):
    """Client side: decode the chunked stream back into lines."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._text = ""
        self._done = False

    async def _read_chunk(self) -> bytes | None:
        try:
            size_line = await self.reader.readline()
            if not size_line:
                return None
            size = int(size_line.strip().split(b";")[0], 16)
            if size == 0:
                await self.reader.readline()  # trailing CRLF
                return None
            data = await self.reader.readexactly(size)
            await self.reader.readexactly(2)  # chunk CRLF
            return data
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            OSError,
            ValueError,
        ):
            return None

    async def receive(self) -> str | None:
        while "\n" not in self._text:
            if self._done:
                return None
            chunk = await self._read_chunk()
            if chunk is None:
                self._done = True
                if self._text:
                    line, self._text = self._text, ""
                    return line
                return None
            self._text += chunk.decode("utf-8", errors="replace")
        line, _, self._text = self._text.partition("\n")
        return line

    async def send(self, text: str) -> None:
        raise TransportError("feed sessions are receive-only client-side")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class HttpForwardTransport(Transport):
    """POST-batch ingest + chunked-GET feed over plain HTTP/1.1."""

    name = "http"

    def __init__(
        self,
        batch_lines: int = DEFAULT_BATCH_LINES,
        policy: BackoffPolicy | None = None,
    ):
        if batch_lines < 1:
            raise ValueError(f"batch_lines must be >= 1: {batch_lines}")
        self.batch_lines = batch_lines
        self.policy = policy or BackoffPolicy(
            initial_seconds=0.05, multiplier=2.0, max_seconds=1.0, max_attempts=4
        )
        self._feed_resume: int | None = None

    def set_feed_resume(self, last_seq: int | None) -> None:
        """Make the next feed dial ask to resume after ``last_seq``
        (``GET /feed?resume=<n>``); ``None`` restores plain subscription."""
        if last_seq is not None and last_seq < 0:
            raise ValueError(f"last_seq must be >= 0: {last_seq}")
        self._feed_resume = last_seq

    async def accept(self, reader, writer, mode: str):
        check_mode(mode)
        if mode == "ingest":
            return HttpIngestServerSession(reader, writer)
        session = HttpFeedServerSession(reader, writer)
        if not await session.start():
            return None
        return session

    async def connect(self, host: str, port: int, mode: str):
        check_mode(mode)
        if mode == "ingest":
            return HttpIngestClientSession(
                host, port, self.batch_lines, self.policy
            )
        reader, writer = await asyncio.open_connection(
            host, port, limit=CLIENT_READ_LIMIT
        )
        path = "/feed"
        if self._feed_resume is not None:
            path = f"/feed?resume={self._feed_resume}"
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Accept: application/x-ndjson\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        head = await read_http_head(reader)
        if head is None or " 200 " not in head[0] + " ":
            raise TransportError(
                f"feed subscription refused: {head[0] if head else 'EOF'!r}"
            )
        return HttpFeedClientSession(reader, writer)
