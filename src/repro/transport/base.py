"""The transport contract: text messages in, text messages out.

A *transport* abstracts how sentences enter the system and how feed
lines leave it.  Both directions move discrete text messages — one
``!AIVDM`` ingest line or one JSON feed line per message — and every
adapter must preserve message boundaries and payload bytes exactly, so
the service's byte-identity contract (docs/SERVICE.md) survives any
choice of wire protocol.

Two call sites, two roles:

* **Servers** (:class:`~repro.service.ingest.IngestServer`,
  :class:`~repro.service.feed.FeedHub`) accept raw asyncio streams and
  hand them to :meth:`Transport.accept`, which performs whatever
  handshake the protocol needs (none for TCP, the RFC 6455 upgrade for
  WebSocket, the HTTP request exchange for HTTP-forward) and returns a
  :class:`TransportSession` — or ``None`` when the handshake fails,
  which the server counts and closes.
* **Clients** (``examples/live_feed.py``, the gateway's runtime links
  and alert fan-in) call :meth:`Transport.connect`.

``mode`` tells request/response transports which direction the session
will carry: ``"ingest"`` sessions move client→server lines,
``"feed"`` sessions move server→client lines.  Symmetric transports
(TCP, WebSocket) ignore it.
"""

import abc
import asyncio


class TransportError(Exception):
    """The connection failed mid-message or violated the wire protocol.

    Servers treat it like EOF (the peer is gone); clients with a retry
    budget (the HTTP-forward adapter, the gateway links) may reconnect.
    """


#: Session directions — which way application messages flow.
MODES = ("ingest", "feed")


class TransportSession(abc.ABC):
    """One established, framed, bidirectional-capable text channel."""

    @abc.abstractmethod
    async def receive(self) -> str | None:
        """The next text message, or ``None`` once the peer is done.

        EOF and ordinary connection teardown return ``None``; protocol
        violations raise :class:`TransportError`.
        """

    @abc.abstractmethod
    async def send(self, text: str) -> None:
        """Send one text message; raises :class:`TransportError` when
        the peer is gone."""

    @abc.abstractmethod
    async def close(self) -> None:
        """Flush anything buffered and release the connection.  Never
        raises — closing a dead connection is a no-op."""


class Transport(abc.ABC):
    """Factory for sessions of one wire protocol (see module docstring)."""

    #: Registry key (``tcp``, ``websocket``, ``http``).
    name: str = ""

    @abc.abstractmethod
    async def accept(self, reader, writer, mode: str) -> TransportSession | None:
        """Server side: handshake an accepted connection into a session.

        Returns ``None`` when the handshake fails (the caller counts the
        failure and closes ``writer``).
        """

    @abc.abstractmethod
    async def connect(self, host: str, port: int, mode: str) -> TransportSession:
        """Client side: dial and handshake; raises ``OSError`` or
        :class:`TransportError` when the endpoint is unreachable."""


async def read_http_head(
    reader: asyncio.StreamReader,
) -> tuple[str, dict] | None:
    """One HTTP request/response head as ``(start_line, lowercased
    headers)``; ``None`` when the peer hung up first or the head
    outgrew the stream's read limit."""
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        ConnectionResetError,
        OSError,
    ):
        return None
    lines = raw.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return lines[0], headers


def check_mode(mode: str) -> str:
    """Validate a session direction (shared by every adapter)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}: {mode!r}")
    return mode
