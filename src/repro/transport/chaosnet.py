"""Network chaos at the session layer: latency, jitter, drops, partitions.

:class:`ChaosNetTransport` wraps any registered transport and perturbs
it *between* the adapter and the network — the wrapped protocol is
untouched, so a ``chaos+tcp`` session speaks bytes identical to ``tcp``.
Four deterministic fault surfaces, all visible to callers as ordinary
:class:`~repro.transport.base.TransportError` failures (exactly what a
flaky network produces, so every retry/redial/failover path in the tree
is exercised for real):

* **Latency and jitter** — a seeded :class:`ChaosProfile` sleeps each
  send/receive on the event loop (``asyncio.sleep``, never blocking).
  The default profile is all zeros: a bare ``chaos+tcp`` is a pure
  pass-through until a fault plan arms it.
* **Drops** — the ``chaosnet.connect`` / ``chaosnet.send`` /
  ``chaosnet.receive`` fault sites (:mod:`repro.resilience.faults`) fail
  the n-th dial, outbound message, or inbound read deterministically.
  A batch send fails at the message that hits the send site, after
  writing the messages before it, as a loop of single sends would; the
  error's ``sent`` tells the caller where to resume.
* **Partitions** — a module-level partition table keyed by endpoint
  ``(host, port)``: :func:`sever` makes every dial *and* every send on
  existing sessions to that endpoint fail until :func:`heal` (or an
  auto-heal deadline) lifts it.  The ``chaosnet.partition`` fault site
  severs the dialed endpoint from a plan (``arg`` = auto-heal seconds),
  which is how ``--chaos`` stages a partition drill.  A restarted
  runtime binds a fresh ephemeral port, so self-healing escapes a
  partition the way a real failover does: by moving the endpoint.

Registered as ``chaos+tcp`` / ``chaos+websocket`` / ``chaos+http`` in
:mod:`repro.transport.registry`; a cluster flips its
``backend_transport`` to stage wire-level chaos with zero other changes.
"""

import asyncio
import random
import time

from repro import obs
from repro.resilience.faults import fault_point
from repro.transport.base import (
    Transport,
    TransportError,
    TransportSession,
    check_mode,
)

#: Severed endpoints: ``(host, port) -> heal deadline`` (``None`` = until
#: :func:`heal`).  Module-level on purpose — every chaos-wrapped session
#: in the process shares one network, like sessions share one switch.
_PARTITIONS: dict[tuple[str, int], float | None] = {}


def sever(host: str, port: int, for_seconds: float | None = None) -> None:
    """Partition an endpoint: dials and sends to it fail until healed."""
    deadline = None
    if for_seconds is not None and for_seconds > 0:
        deadline = time.monotonic() + for_seconds
    _PARTITIONS[(host, port)] = deadline
    obs.count("chaosnet.partitions")


def heal(host: str, port: int) -> None:
    """Lift one endpoint's partition (no-op if it was not severed)."""
    _PARTITIONS.pop((host, port), None)


def clear_partitions() -> None:
    """Lift every partition (tests and drills reset the network)."""
    _PARTITIONS.clear()


def is_severed(host: str, port: int) -> bool:
    """Whether an endpoint is currently unreachable (auto-heals lazily)."""
    deadline = _PARTITIONS.get((host, port), False)
    if deadline is False:
        return False
    if deadline is not None and time.monotonic() >= deadline:
        del _PARTITIONS[(host, port)]
        return False
    return True


class ChaosProfile:
    """Seeded per-message latency: ``latency + U(0, jitter)`` seconds.

    Deterministic for a given seed and call sequence; all-zero (the
    default) costs nothing — not even a sleep(0) yield.
    """

    def __init__(
        self,
        latency_seconds: float = 0.0,
        jitter_seconds: float = 0.0,
        seed: int = 0,
    ):
        if latency_seconds < 0 or jitter_seconds < 0:
            raise ValueError("latency and jitter must be >= 0")
        self.latency_seconds = latency_seconds
        self.jitter_seconds = jitter_seconds
        self._rng = random.Random(seed)

    def delay_seconds(self) -> float:
        """The next message's injected delay."""
        if self.jitter_seconds:
            return self.latency_seconds + self._rng.uniform(
                0.0, self.jitter_seconds
            )
        return self.latency_seconds

    async def delay(self) -> None:
        seconds = self.delay_seconds()
        if seconds > 0:
            await asyncio.sleep(seconds)


class ChaosSession(TransportSession):
    """One wrapped session: fault sites + profile delays + partitions.

    ``endpoint`` is set on dialed (client) sessions only; accepted
    sessions skip the partition check — the partition is enforced where
    a real one bites first, at the dialing side's sends.
    """

    def __init__(
        self,
        inner: TransportSession,
        profile: ChaosProfile,
        endpoint: tuple[str, int] | None = None,
    ):
        self.inner = inner
        self.profile = profile
        self.endpoint = endpoint

    async def receive(self) -> str | None:
        spec = fault_point("chaosnet.receive")
        if spec is not None and spec.kind == "drop":
            obs.count("chaosnet.receives_dropped")
            raise TransportError("chaosnet: injected receive failure")
        await self.profile.delay()
        return await self.inner.receive()

    async def send(self, text: str) -> None:
        await self.send_many([text])

    async def send_many(self, texts: list[str]) -> None:
        """As :meth:`send` one message after another: a partition fails
        the batch before any of it is written; a ``chaosnet.send`` drop
        fails it at that message, after writing the ones before it (the
        error's ``sent``).  The profile delays are slept as one."""
        if self.endpoint is not None and is_severed(*self.endpoint):
            obs.count("chaosnet.sends_partitioned")
            raise TransportError(
                f"chaosnet: partitioned from {self.endpoint[0]}:"
                f"{self.endpoint[1]}"
            )
        delay = 0.0
        dropped = None
        for index in range(len(texts)):
            spec = fault_point("chaosnet.send")
            if spec is not None and spec.kind == "drop":
                obs.count("chaosnet.sends_dropped")
                dropped = index
                break
            delay += self.profile.delay_seconds()
        if delay > 0:
            await asyncio.sleep(delay)
        await self.inner.send_many(texts[:dropped])
        if dropped is not None:
            error = TransportError("chaosnet: injected send failure")
            error.sent = dropped
            raise error

    async def close(self) -> None:
        await self.inner.close()

    def __getattr__(self, name: str):
        # Session extras (e.g. the HTTP feed session's parsed
        # ``resume_seq``) pass through to the wrapped session.
        return getattr(self.inner, name)


class ChaosNetTransport(Transport):
    """Any registered transport, wrapped in deterministic network chaos."""

    def __init__(self, inner: Transport, profile: ChaosProfile | None = None):
        self.inner = inner
        self.profile = profile or ChaosProfile()
        self.name = f"chaos+{inner.name}"

    async def accept(self, reader, writer, mode: str):
        check_mode(mode)
        session = await self.inner.accept(reader, writer, mode)
        if session is None:
            return None
        return ChaosSession(session, self.profile)

    async def connect(self, host: str, port: int, mode: str):
        check_mode(mode)
        if is_severed(host, port):
            obs.count("chaosnet.dials_partitioned")
            raise TransportError(
                f"chaosnet: partitioned from {host}:{port}"
            )
        spec = fault_point("chaosnet.partition")
        if spec is not None and spec.kind == "drop":
            sever(host, port, for_seconds=spec.arg or None)
            raise TransportError(
                f"chaosnet: partition injected at {host}:{port}"
            )
        spec = fault_point("chaosnet.connect")
        if spec is not None and spec.kind == "drop":
            obs.count("chaosnet.dials_dropped")
            raise TransportError("chaosnet: injected dial failure")
        session = await self.inner.connect(host, port, mode)
        return ChaosSession(session, self.profile, endpoint=(host, port))

    def __getattr__(self, name: str):
        # Transport-specific extras (e.g. HttpForwardTransport's
        # set_feed_resume) pass through so chaos+http keeps full fidelity.
        return getattr(self.inner, name)
