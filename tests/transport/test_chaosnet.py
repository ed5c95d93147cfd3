"""Chaosnet specifics: partitions, fault sites, and the
pass-through contract (an unarmed chaos wrapper must be invisible)."""

import asyncio
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.resilience import faults
from repro.resilience.faults import SITES, UNSEEDED_SITES, FaultPlan
from repro.transport import available_transports, create_transport
from repro.transport.base import TransportError, TransportSession
from repro.transport.chaosnet import (
    ChaosNetTransport,
    ChaosSession,
    clear_partitions,
    heal,
    is_severed,
    sever,
)
from repro.transport.tcp import CLIENT_READ_LIMIT, TcpTransport


@pytest.fixture(autouse=True)
def clean_network():
    """Every test starts and ends with an unsevered network."""
    clear_partitions()
    yield
    clear_partitions()


async def _collector_server(transport):
    """An ingest server collecting every received line."""
    received: list[str] = []

    async def handle(reader, writer):
        session = await transport.accept(reader, writer, "ingest")
        if session is None:
            writer.close()
            return
        while True:
            line = await session.receive()
            if line is None:
                break
            received.append(line)
        await session.close()

    server = await asyncio.start_server(
        handle, "127.0.0.1", 0, limit=CLIENT_READ_LIMIT
    )
    return server, server.sockets[0].getsockname()[1], received


class TestRegistration:
    def test_chaos_variants_are_registered(self):
        names = available_transports()
        for name in ("chaos+tcp", "chaos+websocket"):
            assert name in names
            assert create_transport(name).name == name

    def test_unknown_inner_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            create_transport("chaos+tcp").no_such_extra


class TestPartitions:
    def test_sever_heal_is_severed(self):
        sever("10.0.0.1", 4000)
        assert is_severed("10.0.0.1", 4000)
        assert not is_severed("10.0.0.1", 4001)
        heal("10.0.0.1", 4000)
        assert not is_severed("10.0.0.1", 4000)

    def test_auto_heal_deadline(self):
        sever("10.0.0.2", 4000, for_seconds=0.02)
        assert is_severed("10.0.0.2", 4000)
        time.sleep(0.03)
        assert not is_severed("10.0.0.2", 4000)

    def test_dial_to_severed_endpoint_fails_counted(self):
        async def run():
            with obs.activate(obs.MetricsRegistry()) as registry:
                sever("127.0.0.1", 1)
                transport = create_transport("chaos+tcp")
                with pytest.raises(TransportError, match="partitioned"):
                    await transport.connect("127.0.0.1", 1, "ingest")
                return registry.counter("chaosnet.dials_partitioned").value

        assert asyncio.run(run()) == 1

    def test_live_session_blocked_then_healed(self):
        """A partition bites sends on already-open sessions too, and a
        heal restores them — the exact path the gateway links redial."""
        async def run():
            transport = ChaosNetTransport(TcpTransport())
            server, port, received = await _collector_server(transport)
            session = await transport.connect("127.0.0.1", port, "ingest")
            await session.send("before")
            sever("127.0.0.1", port)
            with obs.activate(obs.MetricsRegistry()) as registry:
                with pytest.raises(TransportError, match="partitioned"):
                    await session.send("during")
                blocked = registry.counter("chaosnet.sends_partitioned").value
            heal("127.0.0.1", port)
            await session.send("after")
            await session.close()
            while len(received) < 2:
                await asyncio.sleep(0.005)
            server.close()
            await server.wait_closed()
            return received, blocked

        received, blocked = asyncio.run(run())
        assert received == ["before", "after"]
        assert blocked == 1

    def test_accepted_sessions_are_not_partition_checked(self):
        """The partition is enforced at the dialing side; a server-side
        session keeps flushing what it already holds (a real partition
        would surface as its peer going quiet, not as local errors)."""
        async def run():
            transport = ChaosNetTransport(TcpTransport())
            server, port, received = await _collector_server(transport)
            session = await transport.connect("127.0.0.1", port, "ingest")
            await session.send("in-flight")
            await session.close()
            while not received:
                await asyncio.sleep(0.005)
            server.close()
            await server.wait_closed()
            return received

        assert asyncio.run(run()) == ["in-flight"]


class TestFaultSites:
    def test_injected_dial_failure(self):
        async def run():
            transport = ChaosNetTransport(TcpTransport())
            server, port, _ = await _collector_server(transport)
            plan = FaultPlan.from_spec("chaosnet.connect:drop@1")
            with faults.inject(plan):
                with pytest.raises(TransportError, match="dial"):
                    await transport.connect("127.0.0.1", port, "ingest")
                session = await transport.connect("127.0.0.1", port, "ingest")
            await session.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_injected_send_and_receive_failures(self):
        async def run():
            transport = ChaosNetTransport(TcpTransport())
            server, port, received = await _collector_server(transport)
            session = await transport.connect("127.0.0.1", port, "ingest")
            plan = FaultPlan.from_spec("chaosnet.send:drop@1")
            with faults.inject(plan):
                with pytest.raises(TransportError, match="send"):
                    await session.send("dropped")
                await session.send("retried")
            plan = FaultPlan.from_spec("chaosnet.receive:drop@1")
            with faults.inject(plan):
                with pytest.raises(TransportError, match="receive"):
                    await session.receive()
            await session.close()
            while not received:
                await asyncio.sleep(0.005)
            server.close()
            await server.wait_closed()
            return received

        assert asyncio.run(run()) == ["retried"]

    def test_partition_site_severs_with_auto_heal(self):
        """The ``chaosnet.partition`` site turns one dial into a timed
        partition of that endpoint — how ``--chaos`` stages a drill."""
        async def run():
            transport = ChaosNetTransport(TcpTransport())
            server, port, _ = await _collector_server(transport)
            plan = FaultPlan.from_spec("chaosnet.partition:drop@1:0.05")
            with faults.inject(plan):
                with pytest.raises(TransportError, match="partition"):
                    await transport.connect("127.0.0.1", port, "ingest")
                assert is_severed("127.0.0.1", port)
                # Subsequent dials fail on the partition itself.
                with pytest.raises(TransportError, match="partitioned"):
                    await transport.connect("127.0.0.1", port, "ingest")
            await asyncio.sleep(0.06)
            assert not is_severed("127.0.0.1", port)
            session = await transport.connect("127.0.0.1", port, "ingest")
            await session.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())


class CutSession(TransportSession):
    """Serves ``messages`` one per :meth:`receive`, or as ``cuts`` says
    one read would cut them per :meth:`receive_many`."""

    def __init__(self, messages: list[str], cuts: list[int]):
        self.messages = list(messages)
        self.cuts = list(cuts)

    async def receive(self) -> str | None:
        return self.messages.pop(0) if self.messages else None

    async def receive_many(self) -> list[str]:
        size = self.cuts.pop(0) if self.cuts else len(self.messages)
        batch, self.messages = self.messages[:size], self.messages[size:]
        return batch

    async def send(self, text: str) -> None:
        pass

    async def close(self) -> None:
        pass


async def _read_all(session, batched: bool):
    """Every message until EOF or the first failure, and whether it failed."""
    received: list[str] = []
    try:
        if batched:
            while texts := await session.receive_many():
                received += texts
        else:
            while (text := await session.receive()) is not None:
                received.append(text)
    except TransportError:
        return received, True
    return received, False


class TestReceiveMany:
    @settings(max_examples=150, deadline=None)
    @given(
        messages=st.lists(st.text(alphabet="ab!", max_size=4), max_size=10),
        cuts=st.lists(st.integers(1, 4), max_size=10),
        drop_at=st.integers(1, 12),
    )
    def test_a_drop_fails_at_the_same_message_under_any_read_cut(
        self, messages, cuts, drop_at
    ):
        """``chaosnet.receive:drop@k`` fails the batch reader after the
        same messages as the per-message reader, with the same hits."""
        outcomes = []
        for batched in (False, True):
            session = ChaosSession(CutSession(messages, cuts))
            plan = FaultPlan.from_spec(f"chaosnet.receive:drop@{drop_at}")
            with faults.inject(plan) as injector:
                result = asyncio.run(_read_all(session, batched))
            outcomes.append((result, injector.snapshot()))
        assert outcomes[1] == outcomes[0]
        (received, failed), _ = outcomes[0]
        assert failed == (drop_at <= len(messages) + 1)
        assert received == messages[: drop_at - 1]

    def test_unarmed_chaos_tcp_batches_equal_tcp_batches(self):
        """With no plan, ``chaos+tcp`` reads the same batches as ``tcp``."""
        payload = b"alpha\nbeta\r\n\ngamma\npartial"

        async def batches(name):
            transport = create_transport(name)
            read = asyncio.get_running_loop().create_future()

            async def handle(reader, writer):
                session = await transport.accept(reader, writer, "ingest")
                got = []
                while texts := await session.receive_many():
                    got.append(texts)
                await session.close()
                read.set_result(got)

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(payload)
            await writer.drain()
            writer.close()
            got = await read
            server.close()
            await server.wait_closed()
            return got

        tcp = asyncio.run(batches("tcp"))
        assert tcp[0][:2] == ["alpha", "beta"]
        assert asyncio.run(batches("chaos+tcp")) == tcp


class TestSiteRegistry:
    def test_chaosnet_sites_are_declared(self):
        for site in ("chaosnet.connect", "chaosnet.send",
                     "chaosnet.receive", "chaosnet.partition"):
            assert site in SITES

    def test_partition_site_is_excluded_from_seeded_plans(self):
        """A blind seeded plan must never sever an endpoint for good —
        a permanent partition would stall any smoke run."""
        assert "chaosnet.partition" in UNSEEDED_SITES
        assert UNSEEDED_SITES <= SITES.keys()
        seedable = faults.seedable_sites()
        assert "chaosnet.partition" not in seedable
        assert "chaosnet.connect" in seedable
