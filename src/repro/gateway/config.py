"""Configuration of the gateway cluster topology."""

from dataclasses import dataclass

from repro.transport.registry import DEFAULT_TRANSPORT, available_transports


@dataclass(frozen=True)
class GatewayClusterConfig:
    """Every knob of a :class:`~repro.gateway.cluster.GatewayCluster`.

    Ports set to ``0`` bind ephemerally, like
    :class:`~repro.service.config.ServiceConfig`; the cluster reports the
    actual ports after start.
    """

    host: str = "127.0.0.1"
    #: Gateway nodes accepting client connections.
    gateways: int = 2
    #: Partitioned backend runtimes (each one a full service supervisor).
    runtimes: int = 4
    #: Client-facing wire protocol of the gateway ingest listeners.
    transport: str = DEFAULT_TRANSPORT
    #: Wire protocol of the gateway→runtime links and the feed fan-in.
    backend_transport: str = DEFAULT_TRANSPORT
    #: Sentences buffered per gateway→runtime link before the oldest is
    #: shed (and counted), mirroring the ingest queue contract.
    link_queue_size: int = 8192
    #: Per-runtime ingest queue capacity (the benchmark sizes this to the
    #: whole stream so an unpaced replay measures overhead, not shedding).
    ingest_queue_size: int = 8192
    #: Merged-subscription feed port of the aggregator.
    feed_port: int = 0
    #: Cluster ``/healthz`` + federated ``/metrics`` port.
    http_port: int = 0
    #: Unbroken delivery-failure seconds after which a gateway→runtime
    #: link is declared ``down`` and the cluster supervisor intervenes
    #: (:mod:`repro.gateway.health`).
    link_down_seconds: float = 2.0
    #: Root directory for per-runtime write-ahead journals (``None`` = no
    #: durability); runtime ``i`` journals under ``<wal_root>/runtime<i>``
    #: and a restarted runtime replays its own journal.
    wal_root: str | None = None

    def __post_init__(self) -> None:
        if self.gateways < 1:
            raise ValueError(f"gateways must be >= 1: {self.gateways}")
        if self.runtimes < 1:
            raise ValueError(f"runtimes must be >= 1: {self.runtimes}")
        for role, name in (
            ("transport", self.transport),
            ("backend_transport", self.backend_transport),
        ):
            if name not in available_transports():
                raise ValueError(
                    f"{role} must be one of {available_transports()}: {name!r}"
                )
        if self.link_queue_size <= 0:
            raise ValueError(
                f"link_queue_size must be positive: {self.link_queue_size}"
            )
        if self.ingest_queue_size <= 0:
            raise ValueError(
                f"ingest_queue_size must be positive: {self.ingest_queue_size}"
            )
        if self.link_down_seconds <= 0:
            raise ValueError(
                f"link_down_seconds must be positive: {self.link_down_seconds}"
            )
