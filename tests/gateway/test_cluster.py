"""The tentpole acceptance tests: a 2-gateway × 4-runtime cluster must
be byte-identical to one single-node pipeline — through the merged
subscription, across transports, and across a runtime crash/restart."""

import asyncio
import json

import pytest

from repro.gateway import GatewayCluster, GatewayClusterConfig
from repro.pipeline.config import SystemConfig
from tests.gateway.conftest import feed_gateways, http_get, split_round_robin
from tests.parity import offline_oracle, poll
from tests.service.conftest import to_sentences


async def _quiesce(cluster) -> None:
    """Wait until every link and runtime queue is empty, plus a breath
    for the batchers to finish the line in flight."""
    await poll(lambda: all(
        link.depth == 0 for node in cluster.nodes for link in node.links
    ))
    await poll(lambda: all(
        len(supervisor.queue) == 0 for supervisor in cluster.supervisors
    ))
    await asyncio.sleep(0.05)


@pytest.fixture(scope="module")
def vessel_config():
    return SystemConfig(ce_scope="vessel")


@pytest.fixture(scope="module")
def cluster_sentences(small_fleet):
    return to_sentences(small_fleet["stream"], fragment_every=40)


@pytest.fixture(scope="module")
def oracle(cluster_sentences, world, small_fleet, vessel_config):
    """The single-node ground truth for the same sentences."""
    return offline_oracle(
        cluster_sentences, world, small_fleet["specs"], config=vessel_config
    )


class TestClusterParity:
    def test_requires_vessel_scope(self, world, small_fleet):
        with pytest.raises(ValueError, match="ce_scope"):
            GatewayCluster(world, small_fleet["specs"], SystemConfig())

    def test_two_by_four_matches_single_node_byte_for_byte(
        self, world, small_fleet, vessel_config, cluster_sentences, oracle
    ):
        async def run():
            cluster = GatewayCluster(
                world,
                small_fleet["specs"],
                vessel_config,
                GatewayClusterConfig(gateways=2, runtimes=4),
            )
            await cluster.start()
            ports = cluster.ports()

            # An external consumer of the merged feed, over the socket.
            feed_reader, feed_writer = await asyncio.open_connection(
                "127.0.0.1", ports["feed"], limit=1 << 24
            )
            await poll(
                lambda: cluster.aggregator.hub.subscriber_count == 1
            )

            await feed_gateways(
                cluster, split_round_robin(cluster_sentences, 2)
            )
            await _quiesce(cluster)

            # Cluster vitals while live: /healthz and federated /metrics.
            status, health_body = await http_get(
                "127.0.0.1", ports["http"], "/healthz"
            )
            assert status == 200
            health = json.loads(health_body)
            mstatus, metrics_body = await http_get(
                "127.0.0.1", ports["http"], "/metrics"
            )
            assert mstatus == 200

            await cluster.drain_and_stop()

            subscribed = []
            while True:
                raw = await feed_reader.readline()
                if not raw:
                    break
                subscribed.append(raw.decode("utf-8").rstrip("\n"))
            feed_writer.close()
            try:
                await feed_writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return cluster, health, metrics_body, subscribed

        cluster, health, metrics, subscribed = asyncio.run(run())

        # The tentpole claim: merged bytes == single-node bytes.
        assert cluster.merged_lines == oracle
        # And the socket subscription carried exactly those bytes.
        assert subscribed == oracle

        # Health: every runtime ok, both gateways reporting, watermark
        # clocks visible per runtime.
        assert health["status"] == "ok"
        assert [n["name"] for n in health["nodes"]] == ["gw0", "gw1"]
        assert len(health["runtimes"]) == 4
        for runtime in health["runtimes"]:
            assert runtime["status"] == "ok"
            assert runtime["watermarks"]["sources"] == 2
            assert set(runtime["watermarks"]["clocks"]) == {"gw0", "gw1"}

        # Federated metrics: per-node sections plus the cluster sum.
        assert "repro_node_gw0_gateway_ingest_lines_total" in metrics
        assert "repro_node_gw1_gateway_ingest_lines_total" in metrics
        assert "repro_cluster_gateway_ingest_lines_total" in metrics
        per_node = [
            int(line.rsplit(" ", 1)[1])
            for line in metrics.splitlines()
            if line.startswith("repro_node_gw")
            and "_gateway_ingest_lines_total " in line
        ]
        cluster_total = next(
            int(line.rsplit(" ", 1)[1])
            for line in metrics.splitlines()
            if line.startswith("repro_cluster_gateway_ingest_lines_total ")
        )
        assert sum(per_node) == cluster_total == len(cluster_sentences)

    def test_parity_holds_on_websocket_ingest(
        self, world, small_fleet, vessel_config, cluster_sentences, oracle
    ):
        """Same cluster, client-facing WebSocket transport end to end."""

        async def run():
            cluster = GatewayCluster(
                world,
                small_fleet["specs"],
                vessel_config,
                GatewayClusterConfig(
                    gateways=2, runtimes=2, transport="websocket"
                ),
            )
            await cluster.start()
            await feed_gateways(
                cluster, split_round_robin(cluster_sentences, 2)
            )
            await cluster.drain_and_stop()
            return cluster

        cluster = asyncio.run(run())
        assert cluster.merged_lines == oracle


class TestClusterChaos:
    def test_crash_restart_is_invisible_in_the_merged_bytes(
        self, world, small_fleet, vessel_config, cluster_sentences, oracle,
        tmp_path,
    ):
        """Kill one runtime at a quiescent point mid-stream; /healthz
        reports the cluster degraded; after a journal-replay restart the
        merged output is byte-identical to the undisturbed single node."""
        streams = split_round_robin(cluster_sentences, 2)
        midpoint = cluster_sentences[len(cluster_sentences) // 2][0]
        first = [[p for p in s if p[0] <= midpoint] for s in streams]
        second = [[p for p in s if p[0] > midpoint] for s in streams]

        async def run():
            cluster = GatewayCluster(
                world,
                small_fleet["specs"],
                vessel_config,
                GatewayClusterConfig(
                    gateways=2, runtimes=4, wal_root=str(tmp_path)
                ),
            )
            await cluster.start()
            ports = cluster.ports()

            await feed_gateways(cluster, first)
            await _quiesce(cluster)

            victim = 2
            await cluster.crash_runtime(victim)
            status, body = await http_get(
                "127.0.0.1", ports["http"], "/healthz"
            )
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "degraded"
            assert health["runtimes"][victim]["status"] == "down"

            await cluster.restart_runtime(victim)
            recovered = cluster.supervisors[victim].recovered_records
            _, body = await http_get("127.0.0.1", ports["http"], "/healthz")
            assert json.loads(body)["status"] == "ok"

            await feed_gateways(cluster, second)
            await cluster.drain_and_stop()
            return cluster, recovered

        cluster, recovered = asyncio.run(run())
        assert recovered > 0, "restart must replay the journaled stream"
        assert cluster.merged_lines == oracle
