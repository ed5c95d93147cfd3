"""Failure detection and supervised failover.

The detector and supervisor are driven with injected clocks and stub
clusters — no sleeping, no sockets — then one end-to-end test partitions
a real cluster on the ``chaos+tcp`` transport and lets the supervisor
close the loop, asserting the healed merged feed is byte-identical to
the single-node oracle."""

import asyncio
import json
import time

import pytest

from repro import obs
from repro.gateway import GatewayCluster, GatewayClusterConfig
from repro.gateway.health import ClusterSupervisor, LinkFailureDetector
from repro.pipeline.config import SystemConfig
from repro.resilience.retry import BackoffPolicy
from repro.service.batcher import SlideBatcher
from repro.service.protocol import format_heartbeat, parse_heartbeat
from repro.transport import chaosnet
from tests.gateway.conftest import http_get, split_round_robin
from tests.parity import offline_oracle
from tests.service.conftest import to_sentences


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLinkFailureDetector:
    def test_starts_up_and_one_failure_makes_it_suspect(self):
        clock = FakeClock()
        detector = LinkFailureDetector(down_after_seconds=2.0, clock=clock)
        assert detector.state() == "up"
        detector.record_failure()
        assert detector.state() == "suspect"
        assert detector.consecutive_failures == 1

    def test_down_after_unbroken_failure_window(self):
        clock = FakeClock()
        detector = LinkFailureDetector(down_after_seconds=2.0, clock=clock)
        detector.record_failure()
        clock.advance(1.99)
        assert detector.state() == "suspect"
        clock.advance(0.01)
        assert detector.state() == "down"

    def test_one_success_heals_completely(self):
        """The window measures *unbroken* failure: a single delivered
        line resets suspicion entirely (phi-accrual's decay, squared)."""
        clock = FakeClock()
        detector = LinkFailureDetector(down_after_seconds=2.0, clock=clock)
        detector.record_failure()
        clock.advance(5.0)
        assert detector.state() == "down"
        detector.record_success()
        assert detector.state() == "up"
        detector.record_failure()
        assert detector.state() == "suspect", (
            "the old streak must not bleed into the new one"
        )

    def test_first_failure_timestamp_is_sticky(self):
        clock = FakeClock()
        detector = LinkFailureDetector(down_after_seconds=2.0, clock=clock)
        detector.record_failure()
        first = detector.first_failure_at
        clock.advance(1.0)
        detector.record_failure()
        assert detector.first_failure_at == first
        assert detector.consecutive_failures == 2

    def test_snapshot_shape(self):
        detector = LinkFailureDetector(down_after_seconds=3.0)
        snapshot = detector.snapshot()
        assert snapshot == {
            "state": "up",
            "consecutive_failures": 0,
            "down_after_seconds": 3.0,
        }

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="positive"):
            LinkFailureDetector(down_after_seconds=0)


class TestHeartbeatProtocol:
    def test_roundtrip(self):
        line = format_heartbeat("gw1", 42)
        receive_time, _, sentence = line.partition("\t")
        assert receive_time == "0", "heartbeats must never advance clocks"
        assert parse_heartbeat(sentence) == ("gw1", 42)

    def test_non_heartbeats_are_ignored(self):
        assert parse_heartbeat("!AIVDM,1,1,,A,xyz,0*00") is None
        assert parse_heartbeat("!REPRO,WM,gw0,123") is None
        assert parse_heartbeat("!REPRO,HB,gw0,notanumber") is None

    def test_batcher_discards_heartbeats_before_the_journal(self):
        """A heartbeat is counted and dropped before journaling, watermark
        clocks, and the scanner — a replayed journal must not contain
        liveness probes, and the slide cadence must not see them."""

        class ExplodingJournal:
            def append(self, receive_time, sentence):
                raise AssertionError("heartbeat reached the journal")

        async def scenario():
            batcher = SlideBatcher(
                system=None, queue=None, slide_seconds=60,
                journal=ExplodingJournal(), record_ingest=True,
                watermark_sources=1,
            )
            with obs.activate(obs.MetricsRegistry()) as registry:
                _, _, sentence = format_heartbeat("gw0", 7).partition("\t")
                await batcher._ingest(0, sentence, journal=True)
                return (
                    registry.counter("service.ingest.heartbeats").value,
                    batcher.ingested,
                    batcher._wm_clocks,
                )

        heartbeats, ingested, clocks = asyncio.run(scenario())
        assert heartbeats == 1
        assert ingested == []
        assert clocks == {}


class StubLink:
    def __init__(self, detector):
        self.detector = detector
        self.sent: list[tuple[str, bool]] = []

    def send(self, line: str, control: bool = False) -> None:
        self.sent.append((line, control))


class StubNode:
    def __init__(self, name: str, links):
        self.name = name
        self.links = links


class StubCluster:
    """Two gateways over two runtimes, with scripted chaos hooks."""

    def __init__(self, gateways: int = 2, runtimes: int = 2, clock=None):
        clock = clock or time.monotonic
        self.supervisors = [object() for _ in range(runtimes)]
        self.nodes = [
            StubNode(f"gw{g}", [
                StubLink(LinkFailureDetector(
                    down_after_seconds=1.0, clock=clock
                ))
                for _ in range(runtimes)
            ])
            for g in range(gateways)
        ]
        self.crashed: set[int] = set()
        self.calls: list[tuple[str, int]] = []

    def is_crashed(self, index: int) -> bool:
        return index in self.crashed

    async def crash_runtime(self, index: int) -> None:
        self.calls.append(("crash", index))
        self.crashed.add(index)

    async def restart_runtime(self, index: int) -> None:
        self.calls.append(("restart", index))
        self.crashed.discard(index)


#: No-wait backoff for supervisor unit tests.
INSTANT = BackoffPolicy(
    initial_seconds=0.0001, multiplier=1.0, max_seconds=0.0001, max_attempts=3
)


class TestClusterSupervisor:
    def test_tick_heartbeats_every_link(self):
        cluster = StubCluster(gateways=2, runtimes=3)
        supervisor = ClusterSupervisor(cluster)
        supervisor.tick()
        supervisor.tick()
        for node in cluster.nodes:
            for link in node.links:
                assert len(link.sent) == 2
                line, control = link.sent[0]
                assert control, "heartbeats ride the control-line channel"
                _, _, sentence = line.partition("\t")
                assert parse_heartbeat(sentence) == (node.name, 1)
        assert supervisor.heartbeats_sent == 12

    def test_healthy_cluster_is_left_alone(self):
        cluster = StubCluster()
        supervisor = ClusterSupervisor(cluster, policy=INSTANT)
        assert asyncio.run(supervisor.check_once()) == []
        assert cluster.calls == []

    def test_suspect_is_not_enough_to_heal(self):
        clock = FakeClock()
        cluster = StubCluster(clock=clock)
        supervisor = ClusterSupervisor(cluster, policy=INSTANT, clock=clock)
        cluster.nodes[0].links[1].detector.record_failure()
        assert asyncio.run(supervisor.check_once()) == []
        assert cluster.calls == []

    def test_down_link_triggers_crash_restart_and_reset(self):
        clock = FakeClock()
        cluster = StubCluster(clock=clock)
        supervisor = ClusterSupervisor(cluster, policy=INSTANT, clock=clock)
        # Both gateways lose runtime 1; gateway 0 noticed first.
        cluster.nodes[0].links[1].detector.record_failure()
        clock.advance(0.4)
        cluster.nodes[1].links[1].detector.record_failure()
        clock.advance(1.0)

        healed = asyncio.run(supervisor.check_once())
        assert healed == [1]
        assert cluster.calls == [("crash", 1), ("restart", 1)]
        for node in cluster.nodes:
            assert node.links[1].detector.state() == "up", (
                "detectors must forget the dead incarnation's failures"
            )
        (incident,) = supervisor.incidents
        assert incident["runtime"] == 1
        # Detection is measured from the *earliest* gateway's first
        # failure — 1.4 fake seconds before the check ran.
        assert incident["detection_seconds"] == pytest.approx(1.4)
        assert incident["restarts"] == 1

    def test_already_crashed_runtime_skips_the_crash_hook(self):
        clock = FakeClock()
        cluster = StubCluster(clock=clock)
        supervisor = ClusterSupervisor(cluster, policy=INSTANT, clock=clock)
        cluster.crashed.add(0)
        cluster.nodes[0].links[0].detector.record_failure()
        clock.advance(2.0)
        assert asyncio.run(supervisor.check_once()) == [0]
        assert cluster.calls == [("restart", 0)]

    def test_repeat_offender_backs_off_and_counts_restarts(self):
        clock = FakeClock()
        cluster = StubCluster(clock=clock)
        supervisor = ClusterSupervisor(cluster, policy=INSTANT, clock=clock)

        async def two_incidents():
            for _ in range(2):
                cluster.nodes[0].links[0].detector.record_failure()
                clock.advance(2.0)
                await supervisor.check_once()

        asyncio.run(two_incidents())
        assert [i["restarts"] for i in supervisor.incidents] == [1, 2]
        assert supervisor.snapshot()["restarts"] == {0: 2}

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            ClusterSupervisor(StubCluster(), interval_seconds=0)

    def test_snapshot_shape(self):
        supervisor = ClusterSupervisor(StubCluster())
        supervisor.tick()
        snapshot = supervisor.snapshot()
        assert snapshot["heartbeats_sent"] == 4
        assert snapshot["restarts"] == {}
        assert snapshot["healing"] == []
        assert snapshot["incidents"] == []


async def _poll(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "poll timed out"
        await asyncio.sleep(0.005)


async def _quiesce(cluster) -> None:
    await _poll(lambda: all(
        link.depth == 0 for node in cluster.nodes for link in node.links
    ))
    await _poll(lambda: all(
        len(supervisor.queue) == 0
        for index, supervisor in enumerate(cluster.supervisors)
        if not cluster.is_crashed(index)
    ))
    await asyncio.sleep(0.05)


class TestSupervisedFailover:
    def test_partition_heals_end_to_end_byte_identical(
        self, world, small_fleet, tmp_path
    ):
        """Sever one gateway→runtime ingest path mid-stream on a real
        ``chaos+tcp`` cluster; the supervisor must detect it, restart the
        runtime (whose fresh port escapes the partition), and the merged
        feed must come out byte-identical to the single-node oracle."""
        config = SystemConfig(ce_scope="vessel")
        sentences = to_sentences(small_fleet["stream"], fragment_every=40)
        oracle = offline_oracle(
            sentences, world, small_fleet["specs"], config=config
        )
        streams = split_round_robin(sentences, 2)
        midpoint = sentences[len(sentences) // 2][0]
        first = [[p for p in s if p[0] <= midpoint] for s in streams]
        second = [[p for p in s if p[0] > midpoint] for s in streams]

        async def pump(cluster, halves):
            async def one(gateway, half):
                session = await cluster.connect_ingest(gateway)
                try:
                    for receive_time, sentence in half:
                        await session.send(f"{receive_time}\t{sentence}")
                finally:
                    await session.close()

            await asyncio.gather(*(one(g, h) for g, h in enumerate(halves)))

        async def run():
            cluster = GatewayCluster(
                world, small_fleet["specs"], config,
                GatewayClusterConfig(
                    gateways=2, runtimes=2,
                    backend_transport="chaos+tcp",
                    wal_root=str(tmp_path),
                    link_down_seconds=0.2,
                ),
            )
            await cluster.start()
            supervisor = cluster.start_supervisor(run=False)
            ports = cluster.ports()
            try:
                await pump(cluster, first)
                await _quiesce(cluster)

                chaosnet.sever("127.0.0.1", cluster.supervisors[0].ingest.port)
                deadline = time.monotonic() + 30.0
                while not supervisor.incidents:
                    assert time.monotonic() < deadline, "heal timed out"
                    supervisor.tick()
                    await supervisor.check_once()
                    await asyncio.sleep(0.02)

                # Mid-incident vitals: the supervisor's incident log is on
                # the cluster /healthz, and the healed links are back up.
                status, body = await http_get(
                    "127.0.0.1", ports["http"], "/healthz"
                )
                assert status == 200
                health = json.loads(body)
                assert len(health["supervisor"]["incidents"]) == 1
                await pump(cluster, second)
                await cluster.drain_and_stop()
            finally:
                chaosnet.clear_partitions()
            return cluster, supervisor, health

        cluster, supervisor, health = asyncio.run(run())
        (incident,) = supervisor.incidents
        assert incident["runtime"] == 0
        assert incident["detection_seconds"] >= 0.2
        assert incident["failover_seconds"] > 0
        redials = sum(
            link.redials for node in cluster.nodes for link in node.links
        )
        assert redials > 0, "the severed links must have redialed"
        assert cluster.merged_lines == oracle
