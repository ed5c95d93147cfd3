"""A reconnecting, resuming feed subscriber (the client half of RESUME).

:class:`ResumableFeedReader` is the consumer-side counterpart of the
feed hub's replay ring (:mod:`repro.service.feed`): it subscribes over
any registered transport, performs the ``RESUME <last-seq>`` handshake
(as the first line on TCP/WebSocket, or via ``GET /feed?resume=<n>``
when the transport exposes ``set_feed_resume``), tracks the highest
sequence number seen, and on *any* disconnect — eviction, network fault,
server failover — re-dials with deterministic capped backoff and resumes
from where it left off.  Replay overlap is deduplicated by sequence
number, so the payload stream the caller iterates is gapless and
duplicate-free: byte-identical to an uninterrupted subscription as long
as the hub's ring still holds the lines missed while away.

Used by ``examples/live_feed.py --resume``, the partition drill
(``benchmarks/drills.py partition-drill``) and the feed-resume tests.
"""

import asyncio

from repro import obs
from repro.resilience.retry import BackoffPolicy
from repro.service.protocol import format_resume, parse_stamped_line
from repro.transport.base import TransportError
from repro.transport.registry import create_transport

#: Re-dial schedule after a lost subscription: 0.05 s doubling to a 1 s
#: cap; the generator ends once ``max_attempts`` *consecutive* dials
#: fail (a drained server is gone, not flaky).
RECONNECT_BACKOFF = BackoffPolicy(
    initial_seconds=0.05, multiplier=2.0, max_seconds=1.0, max_attempts=8
)


class ResumableFeedReader:
    """Iterate feed payload lines across disconnects, gaplessly."""

    def __init__(
        self,
        transport_name: str,
        host: str,
        port: int,
        policy: BackoffPolicy = RECONNECT_BACKOFF,
    ):
        self.transport_name = transport_name
        self.host = host
        self.port = port
        self.policy = policy
        #: Highest sequence number seen so far (0 = nothing yet); also
        #: what the next handshake asks to resume after.
        self.last_seq = 0
        #: Successful re-subscriptions after the initial connect.
        self.reconnects = 0
        self._stop = False

    def stop(self) -> None:
        """Make :meth:`lines` finish after the current line."""
        self._stop = True

    async def _connect(self):
        transport = create_transport(self.transport_name)
        if hasattr(transport, "set_feed_resume"):
            # HTTP (and chaos-wrapped HTTP): the handshake rides the
            # request line, because the chunked feed is send-only.
            transport.set_feed_resume(self.last_seq)
            return await transport.connect(self.host, self.port, "feed")
        session = await transport.connect(self.host, self.port, "feed")
        await session.send(format_resume(self.last_seq))
        return session

    async def lines(self):
        """Async generator of payload lines, resuming across disconnects.

        Unstamped lines (published before the handshake registered) and
        sequence numbers at or below ``last_seq`` (replay overlap) are
        skipped — both reappear, stamped and in order, from the ring.
        """
        failed_dials = 0
        connected_before = False
        while not self._stop:
            try:
                session = await self._connect()
            except (TransportError, ConnectionError, OSError):
                failed_dials += 1
                if failed_dials >= self.policy.max_attempts:
                    return
                await asyncio.sleep(self.policy.delay_for(failed_dials))
                continue
            failed_dials = 0
            if connected_before:
                self.reconnects += 1
                obs.count("service.feedclient.reconnects")
            connected_before = True
            try:
                while not self._stop:
                    try:
                        line = await session.receive()
                    except (TransportError, ConnectionError, OSError):
                        break
                    if line is None:
                        break
                    parsed = parse_stamped_line(line)
                    if parsed is None:
                        continue
                    seq, payload = parsed
                    if seq <= self.last_seq:
                        continue
                    self.last_seq = seq
                    yield payload
            finally:
                await session.close()
