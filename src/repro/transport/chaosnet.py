"""Network chaos at the session layer: drops and partitions.

:class:`ChaosNetTransport` wraps a transport and perturbs
it *between* the adapter and the network — the wrapped protocol is
untouched, so a ``chaos+tcp`` session speaks bytes identical to ``tcp``,
and a bare ``chaos+tcp`` is a pure pass-through until a fault plan arms
it.  Two deterministic fault surfaces, both visible to callers as
ordinary :class:`~repro.transport.base.TransportError` failures (exactly
what a flaky network produces, so every retry/redial/failover path in
the tree is exercised for real):

* **Drops** — the ``chaosnet.connect`` / ``chaosnet.send`` /
  ``chaosnet.receive`` fault sites (:mod:`repro.resilience.faults`) fail
  the n-th dial, outbound message, or inbound read deterministically.
  A batch send fails at the message that hits the send site, after
  writing the messages before it, as a loop of single sends would; the
  error's ``sent`` tells the caller where to resume.  A batch read
  returns the messages before the one that hits the receive site and
  fails on the next call.
* **Partitions** — a module-level partition table keyed by endpoint
  ``(host, port)``: :func:`sever` makes every dial *and* every send on
  existing sessions to that endpoint fail until :func:`heal` (or an
  auto-heal deadline) lifts it.  The ``chaosnet.partition`` fault site
  severs the dialed endpoint from a plan (``arg`` = auto-heal seconds),
  which is how ``--chaos`` stages a partition drill.  A restarted
  runtime binds a fresh ephemeral port, so self-healing escapes a
  partition the way a real failover does: by moving the endpoint.

Registered as ``chaos+tcp`` / ``chaos+websocket`` in
:mod:`repro.transport`; a cluster flips its ``backend_transport`` to
stage wire-level chaos with zero other changes.
"""

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


def _receive_drop() -> TransportError | None:
    """One ``chaosnet.receive`` hit: the injected failure, if it drops."""
    spec = fault_point("chaosnet.receive")
    if spec is None or spec.kind != "drop":
        return None
    obs.count("chaosnet.receives_dropped")
    return TransportError("chaosnet: injected receive failure")


class ChaosSession(TransportSession):
    """One wrapped session: fault sites + partitions.

    ``endpoint`` is set on dialed (client) sessions only; accepted
    sessions skip the partition check — the partition is enforced where
    a real one bites first, at the dialing side's sends.
    """

    def __init__(
        self,
        inner: TransportSession,
        endpoint: tuple[str, int] | None = None,
    ):
        self.inner = inner
        self.endpoint = endpoint
        #: Raised by the next :meth:`receive_many`: a ``chaosnet.receive``
        #: drop that hit behind messages returned first.
        self._dropped: TransportError | None = None

    async def receive(self) -> str | None:
        error = _receive_drop()
        if error is not None:
            raise error
        return await self.inner.receive()

    async def receive_many(self) -> list[str]:
        """As :meth:`receive` one message after another: the
        ``chaosnet.receive`` site is hit once before the read and once
        per further message; a drop there returns the messages before
        it and raises on the next call."""
        error = self._dropped or _receive_drop()
        self._dropped = None
        if error is not None:
            raise error
        texts = await self.inner.receive_many()
        for index in range(1, len(texts)):
            self._dropped = _receive_drop()
            if self._dropped is not None:
                del texts[index:]
                break
        return texts

    async def send(self, text: str) -> None:
        await self.send_many([text])

    async def send_many(self, texts: list[str]) -> None:
        """As :meth:`send` one message after another: a partition fails
        the batch before any of it is written; a ``chaosnet.send`` drop
        fails it at that message, after writing the ones before it (the
        error's ``sent``)."""
        if self.endpoint is not None and is_severed(*self.endpoint):
            obs.count("chaosnet.sends_partitioned")
            raise TransportError(
                f"chaosnet: partitioned from {self.endpoint[0]}:"
                f"{self.endpoint[1]}"
            )
        dropped = None
        for index in range(len(texts)):
            spec = fault_point("chaosnet.send")
            if spec is not None and spec.kind == "drop":
                obs.count("chaosnet.sends_dropped")
                dropped = index
                break
        await self.inner.send_many(texts[:dropped])
        if dropped is not None:
            error = TransportError("chaosnet: injected send failure")
            error.sent = dropped
            raise error

    async def close(self) -> None:
        await self.inner.close()


class ChaosNetTransport(Transport):
    """A transport wrapped in deterministic network chaos."""

    def __init__(self, inner: Transport):
        self.inner = inner
        self.name = f"chaos+{inner.name}"

    async def accept(self, reader, writer, mode: str):
        check_mode(mode)
        session = await self.inner.accept(reader, writer, mode)
        if session is None:
            return None
        return ChaosSession(session)

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
        return ChaosSession(session, endpoint=(host, port))
