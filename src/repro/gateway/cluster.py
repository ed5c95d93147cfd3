"""Whole-cluster assembly: gateways, runtimes, aggregator, chaos hooks.

:class:`GatewayCluster` wires the full scale-out topology inside one
process (every tier is asyncio, so one event loop hosts it all — the
same trick the service soak tests use): M backend runtimes — each a
complete :class:`~repro.service.supervisor.ServiceSupervisor` running in
watermark mode — fronted by N :class:`~repro.gateway.node.GatewayNode`
listeners and one :class:`~repro.gateway.aggregator.GatewayAggregator`.

The constructor *enforces* the deployment contract: backend recognition
must run with ``ce_scope = "vessel"``, because MMSI-hash sharding is
only exact when no rule crosses vessels (docs/GATEWAY.md).  Refusing to
start is better than silently emitting per-shard counts of cross-vessel
aggregates that no single node would ever produce.

Chaos hooks: :meth:`crash_runtime` kills one backend abruptly (no drain,
no finalize — its journal survives) and :meth:`restart_runtime` brings
up a fresh supervisor on the same journal directory, repoints every
gateway link, and reattaches the aggregator's feed source.  The journal
replay republishes the pre-crash slides before the feed rebinds, so the
merged stream resumes without holes or duplicates.
"""

from pathlib import Path

from repro.gateway.aggregator import FEED_REPLAY_RING, GatewayAggregator
from repro.gateway.config import GatewayClusterConfig
from repro.gateway.health import ClusterSupervisor, LinkFailureDetector
from repro.gateway.node import GatewayNode, RuntimeLink
from repro.obs.registry import MetricsRegistry
from repro.pipeline.config import SystemConfig
from repro.service.config import ServiceConfig
from repro.service.supervisor import ServiceSupervisor
from repro.transport.base import TransportSession
from repro.transport.registry import create_transport


class GatewayCluster:
    """N gateways sharding into M runtimes, federated by one aggregator."""

    def __init__(
        self,
        world,
        specs,
        config: SystemConfig,
        cluster: GatewayClusterConfig | None = None,
    ):
        if config.ce_scope != "vessel":
            raise ValueError(
                "a gateway cluster requires SystemConfig(ce_scope='vessel'): "
                "cross-vessel rule-sets are not MMSI-decomposable "
                "(docs/GATEWAY.md)"
            )
        self.world = world
        self.specs = specs
        self.config = config
        self.cluster = cluster or GatewayClusterConfig()
        self.supervisors = [
            ServiceSupervisor(world, specs, config, self._service_config(i))
            for i in range(self.cluster.runtimes)
        ]
        self.nodes: list[GatewayNode] = []
        self.aggregator: GatewayAggregator | None = None
        #: The self-healing loop, when :meth:`start_supervisor` armed it.
        self.health_supervisor: ClusterSupervisor | None = None
        self._crashed: set[int] = set()

    def _service_config(self, index: int) -> ServiceConfig:
        """One backend runtime's service: only what a cluster member
        needs set differently from a stand-alone service."""
        cfg = self.cluster
        wal_dir = None
        if cfg.wal_root is not None:
            wal_dir = str(Path(cfg.wal_root) / f"runtime{index}")
        return ServiceConfig(
            host=cfg.host,
            ingest_port=0,
            feed_port=0,
            http_port=0,
            ingest_transport=cfg.backend_transport,
            feed_transport=cfg.backend_transport,
            watermark_sources=cfg.gateways,
            ingest_queue_size=cfg.ingest_queue_size,
            wal_dir=wal_dir,
            feed_replay_ring=FEED_REPLAY_RING,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        cfg = self.cluster
        for supervisor in self.supervisors:
            await supervisor.start()
        slide = self.config.window.slide_seconds
        for g in range(cfg.gateways):
            registry = MetricsRegistry()
            links = [
                RuntimeLink(
                    f"gw{g}->runtime{i}",
                    cfg.host,
                    supervisor.ingest.port,
                    create_transport(cfg.backend_transport),
                    registry,
                    queue_size=cfg.link_queue_size,
                    detector=LinkFailureDetector(
                        down_after_seconds=cfg.link_down_seconds
                    ),
                )
                for i, supervisor in enumerate(self.supervisors)
            ]
            node = GatewayNode(
                f"gw{g}",
                cfg.host,
                0,
                create_transport(cfg.transport),
                links,
                slide,
                registry=registry,
            )
            await node.start()
            self.nodes.append(node)
        self.aggregator = GatewayAggregator(
            cfg.host,
            cfg.http_port,
            cfg.feed_port,
            self.nodes,
            self._runtime_health,
            feed_transport=create_transport(cfg.transport),
            supervisor_health=self._supervisor_health,
        )
        await self.aggregator.start()
        for index, supervisor in enumerate(self.supervisors):
            await self._attach_feed(index, supervisor)
        self.aggregator.start_merge()

    async def _attach_feed(
        self, index: int, supervisor: ServiceSupervisor
    ) -> None:
        session = await create_transport(
            self.cluster.backend_transport
        ).connect(self.cluster.host, supervisor.feed.port, "feed")
        self.aggregator.attach_runtime(f"runtime{index}", session)

    async def connect_ingest(self, gateway: int = 0) -> TransportSession:
        """A client session to one gateway, on the client-facing transport."""
        node = self.nodes[gateway]
        return await create_transport(self.cluster.transport).connect(
            self.cluster.host, node.port, "ingest"
        )

    def start_supervisor(
        self, interval_seconds: float = 0.05, run: bool = True
    ) -> ClusterSupervisor:
        """Arm the self-healing loop (:mod:`repro.gateway.health`).

        With ``run=False`` the supervisor is created but not scheduled —
        tests and the partition drill drive ``tick()``/``check_once()``
        deterministically instead of racing a background task.
        """
        supervisor = ClusterSupervisor(self, interval_seconds=interval_seconds)
        self.health_supervisor = supervisor
        if run:
            supervisor.start()
        return supervisor

    async def drain_and_stop(self) -> None:
        """Ordered graceful drain, preserving the merged stream's tail:
        gateways first (final watermarks, flushed links), then runtimes
        (final slide + finalize published), then the fan-in and feeds."""
        if self.health_supervisor is not None:
            await self.health_supervisor.stop()
        for node in self.nodes:
            await node.drain()
        if self.aggregator is not None:
            self.aggregator.fanin.begin_close()
        for index, supervisor in enumerate(self.supervisors):
            if index not in self._crashed:
                await supervisor.drain_and_stop()
        if self.aggregator is not None:
            await self.aggregator.finish()
            await self.aggregator.stop()

    # ------------------------------------------------------------------
    # chaos hooks
    # ------------------------------------------------------------------

    def is_crashed(self, index: int) -> bool:
        """Whether runtime ``index`` is currently down (crashed, not yet
        restarted)."""
        return index in self._crashed

    async def crash_runtime(self, index: int) -> None:
        """Kill one runtime abruptly: no drain, no finalize.  Its journal
        survives for the restarted incarnation to replay."""
        self._crashed.add(index)
        await self.supervisors[index].abort()

    async def restart_runtime(self, index: int) -> None:
        """Bring a crashed runtime back on its own journal, repoint every
        gateway link at the new ingest port, reattach the feed fan-in."""
        supervisor = ServiceSupervisor(
            self.world, self.specs, self.config, self._service_config(index)
        )
        await supervisor.start()
        self.supervisors[index] = supervisor
        for node in self.nodes:
            node.links[index].set_endpoint(
                self.cluster.host, supervisor.ingest.port
            )
        await self._attach_feed(index, supervisor)
        self._crashed.discard(index)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def _supervisor_health(self) -> dict | None:
        if self.health_supervisor is None:
            return None
        return self.health_supervisor.snapshot()

    def _runtime_health(self) -> list:
        entries = []
        for index, supervisor in enumerate(self.supervisors):
            name = f"runtime{index}"
            if index in self._crashed:
                entries.append({"name": name, "status": "down"})
                continue
            health = supervisor.health()
            entries.append({
                "name": name,
                "status": health["status"],
                "slides": health["slides"],
                "queue_depth": health["queue_depth"],
                "vessels": health["vessels"],
                "recovered_records": health["recovered_records"],
                "watermarks": health.get("watermarks"),
                "ports": health["ports"],
            })
        return entries

    @property
    def merged_lines(self) -> list[str]:
        """The cluster's merged feed so far (parity ground truth)."""
        assert self.aggregator is not None
        return self.aggregator.merged_lines

    def ports(self) -> dict:
        return {
            "gateways": [node.port for node in self.nodes],
            "feed": self.aggregator.hub.port if self.aggregator else None,
            "http": self.aggregator.http_port if self.aggregator else None,
        }
