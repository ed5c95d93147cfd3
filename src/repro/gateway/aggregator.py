"""The cluster's single pane of glass: merged feed, health, metrics.

A :class:`GatewayAggregator` is the read side of the gateway tier.  It
owns the :class:`~repro.gateway.fanin.FeedFanIn` over the per-runtime
feeds, republishes the merged lines on its own
:class:`~repro.service.feed.FeedHub` (so external consumers subscribe to
*one* socket and see single-node-identical bytes), and serves two HTTP
endpoints in the same minimal HTTP/1.1 dialect as the per-runtime API
(:mod:`repro.service.http`):

* ``GET /healthz`` — cluster status (``ok`` / ``degraded`` / ``down``),
  per-node gateway vitals, per-runtime health, and any dormant feed
  sources;
* ``GET /metrics`` — the federated Prometheus exposition
  (:func:`repro.gateway.metrics.federate_prometheus`): every node under
  its own prefix plus the cluster-summed section.
"""

import asyncio
from typing import Callable
from urllib.parse import unquote, urlsplit

from repro.gateway.fanin import FeedFanIn
from repro.gateway.metrics import federate_prometheus
from repro.gateway.node import GatewayNode
from repro.service.feed import FeedHub
from repro.service.http import serve_request
from repro.transport.base import Transport, TransportSession

#: Published lines the merged feed keeps for ``RESUME`` replays — how far
#: back a cluster subscriber can reconnect gapless (docs/SERVICE.md).
FEED_REPLAY_RING = 4096


class GatewayAggregator:
    """Federated /healthz + /metrics and the merged alert feed."""

    def __init__(
        self,
        host: str,
        http_port: int,
        feed_port: int,
        nodes: list[GatewayNode],
        runtime_health: Callable[[], list],
        feed_transport: Transport | None = None,
        supervisor_health: Callable[[], dict | None] | None = None,
    ):
        self.host = host
        self.http_port = http_port
        self.nodes = nodes
        self.runtime_health = runtime_health
        self.supervisor_health = supervisor_health or (lambda: None)
        self.hub = FeedHub(
            host,
            feed_port,
            transport=feed_transport,
            replay_ring=FEED_REPLAY_RING,
        )
        self.fanin = FeedFanIn(self.hub.publish)
        self._server: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------------
    # merged feed
    # ------------------------------------------------------------------

    @property
    def merged_lines(self) -> list[str]:
        """The last :data:`FEED_REPLAY_RING` merged lines, in order: the
        hub's replay ring, so the cluster holds one bounded copy."""
        return self.hub.recent_lines

    def attach_runtime(self, name: str, session: TransportSession) -> None:
        """Subscribe to one runtime's feed (also used on reattach after a
        runtime restart)."""
        self.fanin.add_source(name, session)

    def start_merge(self) -> None:
        """Start the barrier merge once the initial runtimes are attached."""
        self.fanin.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await self.hub.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.http_port
        )
        self.http_port = self._server.sockets[0].getsockname()[1]

    async def finish(self) -> None:
        """Drain-side close: retire the fan-in, then the merged feed."""
        self.fanin.begin_close()
        await self.fanin.wait_closed()
        await self.hub.close()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # cluster vitals
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Cluster status (``ok|degraded|down``): degraded whenever any
        runtime is unhealthy or stalled (its pipeline thread wedged past
        its stall timer, which holds back every merged line), any feed
        source is dormant, or any gateway→runtime link is not ``up``;
        down only when *every* runtime is down — a partially-alive
        cluster still serves."""
        runtimes = self.runtime_health()
        down_feeds = self.fanin.down_sources
        nodes = [node.snapshot() for node in self.nodes]
        link_trouble = any(
            link["state"] != "up"
            for snapshot in nodes
            for link in snapshot["links"]
        )
        if runtimes and all(
            entry.get("status") == "down" for entry in runtimes
        ):
            status = "down"
        elif (
            down_feeds
            or link_trouble
            or any(
                entry.get("status") != "ok" or entry.get("stalled")
                for entry in runtimes
            )
        ):
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "nodes": nodes,
            "runtimes": runtimes,
            "feed": {
                "down_sources": down_feeds,
                "merged_lines": self.hub.next_seq - 1,
                "subscribers": self.hub.subscriber_count,
                "resumed": self.hub.resumed_count,
                "next_seq": self.hub.next_seq,
            },
        }
        supervisor = self.supervisor_health()
        if supervisor is not None:
            payload["supervisor"] = supervisor
        return payload

    def metrics_text(self) -> str:
        return federate_prometheus(
            {node.name: node.registry for node in self.nodes}
        )

    # ------------------------------------------------------------------
    # request handling (same dialect as repro.service.http)
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_request(reader, writer, self._route)

    def _route(self, target: str):
        path = unquote(urlsplit(target).path).rstrip("/") or "/"
        if path == "/healthz":
            return 200, self.health(), "application/json"
        if path == "/metrics":
            return (
                200,
                self.metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        return 404, {"error": f"no such endpoint: {path}"}, "application/json"
