"""Configuration of the live service layer."""

from dataclasses import dataclass

from repro.resilience.wal import FSYNC_POLICIES
from repro.transport.registry import DEFAULT_TRANSPORT, available_transports


@dataclass(frozen=True)
class ServiceConfig:
    """The deployment settings of the network-facing service.

    Ports set to ``0`` bind ephemerally (the supervisor reports the actual
    port after :meth:`~repro.service.supervisor.ServiceSupervisor.start`),
    which is what the tests and the benchmarks use.  Everything else the
    service sizes or times is a named constant next to the code that
    reads it (docs/SERVICE.md).
    """

    host: str = "127.0.0.1"
    #: Raw ``!AIVDM`` line listener (10110 is the conventional
    #: NMEA-over-TCP port).
    ingest_port: int = 10110
    #: Newline-delimited-JSON subscription feed.
    feed_port: int = 10111
    #: HTTP query/metrics API.
    http_port: int = 10112
    #: Wire protocol of the ingest listener (``tcp`` | ``websocket`` |
    #: ``http``; see :mod:`repro.transport`).  The default is
    #: byte-compatible with the pre-transport newline-over-TCP wire.
    ingest_transport: str = DEFAULT_TRANSPORT
    #: Wire protocol of the subscription feed.
    feed_transport: str = DEFAULT_TRANSPORT
    #: Upstream watermark sources (gateway nodes).  ``0`` (the default)
    #: keeps the arrival-driven slide cadence of a single-feed service;
    #: ``N > 0`` switches the batcher to watermark-aligned slides: it
    #: advances a slide only once *every* source's watermark has passed
    #: the boundary, which is what keeps a sharded gateway deployment's
    #: slide grid byte-identical to a single node's (docs/GATEWAY.md).
    watermark_sources: int = 0
    #: Sentences buffered between the socket readers and the pipeline;
    #: beyond this the *oldest* buffered sentence is shed (and counted).
    ingest_queue_size: int = 8192
    #: Write-ahead ingest journal directory (``None`` = no durability:
    #: a crash loses everything in flight, exactly the paper's
    #: main-memory behaviour).  With a directory, every post-shedding
    #: sentence is journaled before processing and a restarted service
    #: replays the journal to byte-identical output (docs/RESILIENCE.md).
    wal_dir: str | None = None
    #: WAL fsync policy: ``always`` | ``batch`` (fsync at each slide
    #: boundary) | ``never``.
    wal_fsync: str = "batch"

    def __post_init__(self) -> None:
        if self.ingest_queue_size <= 0:
            raise ValueError(
                f"ingest queue must hold at least one sentence: "
                f"{self.ingest_queue_size}"
            )
        for role, name in (
            ("ingest_transport", self.ingest_transport),
            ("feed_transport", self.feed_transport),
        ):
            if name not in available_transports():
                raise ValueError(
                    f"{role} must be one of {available_transports()}: {name!r}"
                )
        if self.watermark_sources < 0:
            raise ValueError(
                f"watermark_sources must be >= 0: {self.watermark_sources}"
            )
        if self.wal_fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"wal_fsync must be one of {FSYNC_POLICIES}: "
                f"{self.wal_fsync!r}"
            )
