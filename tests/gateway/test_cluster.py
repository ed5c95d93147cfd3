"""The tentpole acceptance tests: a 2-gateway × 4-runtime cluster must
be byte-identical to one single-node pipeline — through the merged
subscription, across transports, and across a runtime crash/restart."""

import asyncio
import json

import pytest

from repro.gateway import GatewayAggregator, GatewayCluster, GatewayClusterConfig
from repro.gateway.aggregator import FEED_REPLAY_RING
from repro.pipeline.config import SystemConfig
from tests.gateway.conftest import http_get, split_round_robin
from tests.parity import feed_gateways, offline_oracle, poll, run_cluster, subscribe
from tests.service.conftest import to_sentences


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


def test_the_merged_feed_keeps_one_bounded_copy_and_healthz_counts_all():
    # The merged lines are the hub's replay ring, not a second copy
    # that grows for the cluster's lifetime; /healthz still counts
    # every line merged.
    aggregator = GatewayAggregator("127.0.0.1", 0, 0, [], lambda: [])
    lines = [f"line {index}" for index in range(FEED_REPLAY_RING + 5)]
    for line in lines:
        aggregator.fanin.on_line(line)
    assert aggregator.merged_lines == lines[-FEED_REPLAY_RING:]
    assert aggregator.health()["feed"]["merged_lines"] == len(lines)


class TestClusterParity:
    def test_requires_vessel_scope(self, world, small_fleet):
        with pytest.raises(ValueError, match="ce_scope"):
            GatewayCluster(world, small_fleet["specs"], SystemConfig())

    def test_two_by_four_matches_single_node_byte_for_byte(
        self, world, small_fleet, vessel_config, cluster_sentences, oracle
    ):
        async def subscribe_merged(cluster):
            # An external consumer of the merged feed, over the socket.
            feed = await subscribe(cluster.ports()["feed"])
            await poll(lambda: cluster.aggregator.hub.subscriber_count == 1)
            return feed

        async def probe(cluster):
            # Cluster vitals while live: /healthz and federated /metrics.
            port = cluster.ports()["http"]
            status, health_body = await http_get("127.0.0.1", port, "/healthz")
            assert status == 200
            mstatus, metrics_body = await http_get("127.0.0.1", port, "/metrics")
            assert mstatus == 200
            return json.loads(health_body), metrics_body

        async def run():
            cluster = GatewayCluster(
                world,
                small_fleet["specs"],
                vessel_config,
                GatewayClusterConfig(gateways=2, runtimes=4),
            )
            feed, (health, metrics_body) = await run_cluster(
                cluster,
                split_round_robin(cluster_sentences, 2),
                started=subscribe_merged,
                fed=probe,
            )
            return cluster, health, metrics_body, await feed

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
        # Quiet, each gateway's last watermark is its clock, and every
        # runtime holds it.
        for node in health["nodes"]:
            assert node["watermark_time"] == node["last_receive_time"]
            for runtime in health["runtimes"]:
                clocks = runtime["watermarks"]["clocks"]
                assert clocks[node["name"]] == node["watermark_time"]

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
            await run_cluster(cluster, split_round_robin(cluster_sentences, 2))
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

        async def crash_and_restart(cluster):
            port = cluster.ports()["http"]
            victim = 2
            await cluster.crash_runtime(victim)
            status, body = await http_get("127.0.0.1", port, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "degraded"
            assert health["runtimes"][victim]["status"] == "down"

            await cluster.restart_runtime(victim)
            recovered = cluster.supervisors[victim].recovered_records

            async def healthy():
                _, body = await http_get("127.0.0.1", port, "/healthz")
                return json.loads(body)["status"] == "ok"

            # The gateway links re-dial the restarted runtime on their own
            # schedule: wait for /healthz to read ok, not the first read.
            await poll(healthy)

            await feed_gateways(cluster, second)
            return recovered

        async def run():
            cluster = GatewayCluster(
                world,
                small_fleet["specs"],
                vessel_config,
                GatewayClusterConfig(
                    gateways=2, runtimes=4, wal_root=str(tmp_path)
                ),
            )
            _, recovered = await run_cluster(cluster, first, fed=crash_and_restart)
            return cluster, recovered

        cluster, recovered = asyncio.run(run())
        assert recovered > 0, "restart must replay the journaled stream"
        assert cluster.merged_lines == oracle
