"""Gateway nodes and their runtime links: ingest accounting, the link's
batches, shedding, the batch accept path against one line at a time,
read cuts and their watermarks, and a link severed mid-batch."""

import asyncio
import time
from types import SimpleNamespace
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.ais import PositionReport, encode_position_report
from repro.ais.nmea import wrap_aivdm, wrap_aivdm_fragments
from repro.ais.stream import first_query_time
from repro.gateway import GatewayNode, RuntimeLink
from repro.gateway.routing import SentenceRouter
from repro.obs.registry import MetricsRegistry
from repro.pipeline import SystemConfig
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import BackoffPolicy
from repro.service import ServiceConfig, ServiceSupervisor
from repro.service.ingest import IngestQueue, IngestServer
from repro.service.protocol import (
    CANONICAL_INGEST_LINE,
    format_ingest_line,
    format_watermark,
    parse_ingest_line,
    parse_ingest_lines,
)
from repro.transport import chaosnet, create_transport
from repro.gateway import node as node_module
from repro.transport.base import Transport, TransportError, TransportSession
from tests.gateway import read_oracle
from tests.gateway.test_routing import _checksummed
from tests.parity import gateway_records, offline_oracle, poll, run_shard
from tests.service.conftest import to_sentences

FAST = BackoffPolicy(initial_seconds=0.01, multiplier=2.0, max_seconds=0.05)


class RecordingSession(TransportSession):
    """Records every ``send_many`` batch it sends into its transport."""

    def __init__(self, transport: "RecordingTransport"):
        self.transport = transport

    async def receive(self) -> str | None:
        return None

    async def send(self, text: str) -> None:
        await self.send_many([text])

    async def send_many(self, texts: list[str]) -> None:
        transport = self.transport
        if transport.stall is not None:
            await transport.stall.wait()
        if transport.down:
            raise TransportError("runtime down")
        if transport.cut_at is not None:
            cut, transport.cut_at = transport.cut_at, None
            transport.batches.append(texts[:cut])
            error = TransportError("connection lost mid-batch")
            error.sent = cut
            raise error
        transport.batches.append(list(texts))

    async def close(self) -> None:
        pass


class RecordingTransport(Transport):
    """A transport whose every dial records into :attr:`batches`.

    ``stall`` (an event) holds every ``send_many`` until it is set;
    ``down`` fails every ``send_many`` before it sends anything;
    ``cut_at`` makes the next one send that many lines, then fail."""

    name = "recording"

    def __init__(self) -> None:
        self.batches: list[list[str]] = []
        self.stall: asyncio.Event | None = None
        self.down = False
        self.cut_at: int | None = None

    async def accept(self, reader, writer, mode):
        raise NotImplementedError

    async def connect(self, host, port, mode):
        return RecordingSession(self)


class TestGatewayIngest:
    def test_ignored_lines_are_counted(self):
        """Blank, comment and garbled lines are skipped, as on a single
        node, and counted as ``gateway.ingest.ignored``."""

        async def run():
            transport = RecordingTransport()
            registry = MetricsRegistry()
            link = RuntimeLink("l0", "127.0.0.1", 1, transport, registry)
            node = GatewayNode(
                "gw0", "127.0.0.1", 0, create_transport("tcp"), [link], registry
            )
            await node.start()
            _, writer = await asyncio.open_connection("127.0.0.1", node.port)
            writer.write(b"# comment\n\n   \n100\t!AIVDM,1,1,,A,0,0*00\n")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await poll(lambda: node.open_connections == 0)
            await node.drain()
            return registry, transport.batches

        registry, batches = asyncio.run(run())
        assert registry.counter("gateway.ingest.ignored").value == 3
        assert registry.counter("gateway.ingest.lines").value == 1
        delivered = [line for batch in batches for line in batch]
        assert format_ingest_line(100, "!AIVDM,1,1,,A,0,0*00") in delivered

    def test_a_far_future_line_costs_one_watermark(self):
        """A line ``10**13`` s ahead (a flipped timestamp bit) costs one
        watermark, stamped with it: the node holds no slide grid to step
        through."""
        link = RuntimeLink("l0", "127.0.0.1", 1, RecordingTransport(), MetricsRegistry())
        node = GatewayNode("gw0", "127.0.0.1", 0, create_transport("tcp"), [link])
        node._take([
            format_ingest_line(receive_time, "!AIVDM,1,1,,A,0,0*00")
            for receive_time in (100, 10**13 + 1)
        ])
        watermarks = [line for line, _, control in link._items if control]
        assert watermarks == [format_watermark(10**13 + 1, "gw0")]


def _reference_delivery(sends, queue_size, pinned=0, released_after=None):
    """The lines a link delivers when ``sends`` are queued while it is not
    sending, or while a write holds the oldest ``pinned`` lines (until
    ``released_after`` sends, when the write fails):
    shed-oldest by scanning for the first data line past them, as the
    queue contract states it."""
    items, shed = [], 0
    for sent, (line, control) in enumerate(sends):
        if sent == released_after:
            pinned = 0
        items.append((line, control))
        if len(items) > queue_size:
            for index in range(pinned, len(items)):
                if not items[index][1]:
                    del items[index]
                    shed += 1
                    break
    return [line for line, _ in items], shed


#: Phases of sends, each drained as one batch before the next: data lines
#: and control lines (watermarks) interleaved.
phases = st.lists(
    st.lists(st.booleans(), max_size=12).map(
        lambda controls: [
            (f"{'wm' if control else 'data'}-{index}", control)
            for index, control in enumerate(controls)
        ]
    ),
    min_size=1,
    max_size=4,
)


class TestLinkBatches:
    @settings(max_examples=100, deadline=None)
    @given(phases=phases, queue_size=st.integers(min_value=1, max_value=5))
    def test_shedding_with_control_lines_interleaved(self, phases, queue_size):
        async def run():
            transport = RecordingTransport()
            registry = MetricsRegistry()
            link = RuntimeLink(
                "l0", "127.0.0.1", 1, transport, registry, queue_size=queue_size
            )
            link.start()
            for phase in phases:
                for line, control in phase:
                    link.send(line, control=control)
                await poll(lambda: link.depth == 0)
            await link.close()
            return registry, transport.batches

        registry, batches = asyncio.run(run())
        expected = [_reference_delivery(phase, queue_size) for phase in phases]
        # One send_many per phase that left anything to send.
        assert batches == [lines for lines, _ in expected if lines]
        delivered = sum(len(lines) for lines, _ in expected)
        assert registry.counter("gateway.link.shed").value == sum(
            shed for _, shed in expected
        )
        assert registry.counter("gateway.link.lines").value == delivered
        # One queue-wait observation per line, not per batch.
        assert (
            registry.histogram("gateway.ingest.latency_seconds").count == delivered
        )

    def test_depth_counts_the_batch_in_flight(self):
        async def run():
            transport = RecordingTransport()
            transport.stall = asyncio.Event()
            link = RuntimeLink("l0", "127.0.0.1", 1, transport, MetricsRegistry())
            link.start()
            for index in range(5):
                link.send(f"line-{index}")
            await asyncio.sleep(0.01)
            in_flight = link.depth
            transport.stall.set()
            await poll(lambda: link.depth == 0)
            await link.close()
            return in_flight, transport.batches

        in_flight, batches = asyncio.run(run())
        assert in_flight == 5
        assert batches == [[f"line-{index}" for index in range(5)]]

    def test_a_stalled_write_keeps_the_queue_bounded(self, monkeypatch):
        """While a write stalls, every shed line leaves the queue at once:
        it never holds more than its bound plus the control lines.  Only
        the lines being written are out of shedding's reach."""
        monkeypatch.setattr(node_module, "LINK_BATCH_LINES", 3)
        queue_size = 8
        first = [(f"first-{index}", False) for index in range(3)]
        rest = [
            (f"wm-{index}", True) if index % 7 == 0 else (f"data-{index}", False)
            for index in range(80)
        ]

        async def run():
            transport = RecordingTransport()
            transport.stall = asyncio.Event()
            registry = MetricsRegistry()
            link = RuntimeLink(
                "l0", "127.0.0.1", 1, transport, registry, queue_size=queue_size
            )
            link.start()
            for line, control in first:
                link.send(line, control=control)
            await poll(lambda: link._writing == len(first))
            controls = 0
            for line, control in rest:
                link.send(line, control=control)
                controls += control
                assert len(link._items) <= queue_size + controls
            transport.stall.set()
            await poll(lambda: link.depth == 0)
            await link.close()
            return registry, transport.batches

        registry, batches = asyncio.run(run())
        expected, shed = _reference_delivery(first + rest, queue_size, pinned=len(first))
        assert batches[0] == [line for line, _ in first]
        assert all(len(batch) <= 3 for batch in batches)
        assert [line for batch in batches for line in batch] == expected
        assert registry.counter("gateway.link.shed").value == shed

    def test_an_outage_sheds_the_retried_batch_oldest_first(self):
        """A batch the link keeps retrying through an outage stays queued,
        so lines sent meanwhile shed its oldest lines first: the runtime,
        back, gets the freshest lines, never more than the bound."""
        queue_size = 8
        early = [(f"early-{index}", False) for index in range(5)]
        late = [
            (f"wm-{index}", True) if index % 6 == 0 else (f"late-{index}", False)
            for index in range(20)
        ]

        async def run():
            transport = RecordingTransport()
            transport.down = True
            registry = MetricsRegistry()
            link = RuntimeLink(
                "l0", "127.0.0.1", 1, transport, registry,
                queue_size=queue_size, policy=FAST,
            )
            link.start()
            for line, control in early:
                link.send(line, control=control)
            await poll(lambda: link.redials >= 2)
            controls = 0
            for line, control in late:
                link.send(line, control=control)
                controls += control
                assert len(link._items) <= queue_size + controls
            transport.down = False
            await poll(lambda: link.depth == 0)
            await link.close()
            return registry, transport.batches

        registry, batches = asyncio.run(run())
        expected, shed = _reference_delivery(early + late, queue_size)
        delivered = [line for batch in batches for line in batch]
        assert delivered == expected
        assert not any(line.startswith("early") for line in delivered)
        assert registry.counter("gateway.link.shed").value == shed
        assert registry.counter("gateway.link.lines").value == len(delivered)

    def test_a_partly_sent_batch_is_resent_from_where_it_stopped(self):
        """``send_many`` fails after sending part of the batch: the link
        resends from its error's ``sent``, so no line goes twice."""
        lines = [f"line-{index}" for index in range(10)]

        async def run():
            transport = RecordingTransport()
            transport.cut_at = 4
            registry = MetricsRegistry()
            link = RuntimeLink(
                "l0", "127.0.0.1", 1, transport, registry, policy=FAST
            )
            link.start()
            for line in lines:
                link.send(line)
            await poll(lambda: link.depth == 0)
            await link.close()
            return registry, link, transport.batches

        registry, link, batches = asyncio.run(run())
        assert batches == [lines[:4], lines[4:]]
        assert link.redials == 1
        assert registry.counter("gateway.link.lines").value == len(lines)
        assert registry.histogram("gateway.ingest.latency_seconds").count == len(lines)


def _plan(site: str, hits: list[int]) -> FaultPlan:
    """Drops at the given hits of ``site``."""
    return FaultPlan.from_spec(",".join(f"{site}:drop@{hit}" for hit in hits))


def _queued(link: RuntimeLink) -> list[tuple[str, bool]]:
    return [(line, control) for line, _, control in link._items]


#: What the accept path hands a link: runs of data lines and single
#: control lines (watermarks), interleaved.
link_ops = st.lists(
    st.integers(min_value=0, max_value=6) | st.just(-1),
    max_size=10,
).map(lambda sizes: [
    [(f"wm-{index}", True)] if size < 0
    else [(f"data-{index}-{line}", False) for line in range(size)]
    for index, size in enumerate(sizes)
])


class TestSendMany:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=link_ops,
        after=link_ops,
        pinned=st.integers(min_value=0, max_value=4),
        queue_size=st.integers(min_value=1, max_value=6),
    )
    def test_equals_one_send_per_line(self, ops, after, pinned, queue_size):
        """Twin links, one queuing each run with ``send_many`` and one
        line by line, behind a pinned writing region and then after a
        failed write released it: the same queued lines, data-line
        count and sheds, which are those of a reference delivery."""
        pinned = min(pinned, queue_size)
        writing = [(f"writing-{index}", index % 2 == 1) for index in range(pinned)]
        after = [[(f"after-{line}", control) for line, control in op] for op in after]
        twins = []
        for batched in (True, False):
            registry = MetricsRegistry()
            link = RuntimeLink(
                "l0", "127.0.0.1", 1, RecordingTransport(), registry,
                queue_size=queue_size,
            )
            for line, control in writing:
                link.send(line, control=control)
            link._writing = len(link._items)
            for phase in (ops, after):
                for op in phase:
                    if batched and not any(control for _, control in op):
                        link.send_many([line for line, _ in op])
                    else:
                        for line, control in op:
                            link.send(line, control=control)
                # The write failed having sent nothing: its lines
                # are queued and sheddable again.
                link._writing = 0
            counters = registry.snapshot()["counters"]
            twins.append((
                _queued(link), link._data_lines, counters.get("gateway.link.shed"),
            ))
            assert link._data_lines == sum(
                not control for _, control in _queued(link)
            )
        assert twins[0] == twins[1]
        before = writing + [item for op in ops for item in op]
        expected, shed = _reference_delivery(
            before + [item for op in after for item in op],
            queue_size, pinned, released_after=len(before),
        )
        assert [line for line, _ in twins[0][0]] == expected
        assert (twins[0][2] or 0) == shed


#: Ingest lines a listener reads: canonical, bare, blank, comments, junk.
ingest_lines = st.lists(
    st.sampled_from([
        "100\t!AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,0*24",
        "101 !AIVDM,1,1,,B,0,0*00",
        "!AIVDM,1,1,,A,0,0*00",
        "",
        "  ",
        "# comment",
        "junk line",
        "0102\t!x\r",
    ]),
    max_size=12,
)


class TestIngestTake:
    @settings(max_examples=200, deadline=None)
    @given(
        lines=ingest_lines,
        drops=st.lists(st.integers(min_value=1, max_value=14), max_size=2, unique=True),
    )
    def test_equals_one_take_per_line(self, lines, drops):
        """``IngestServer._take`` of a read against one ``_take`` per
        line, stopping where an injected drop severs the connection:
        the same queued sentences, accounting and fault-site hits."""
        twins = []
        for batched in (True, False):
            queue = IngestQueue(capacity=1000)
            server = IngestServer(queue, "127.0.0.1", 0, clock=lambda: 7)
            with (
                obs.activate(MetricsRegistry()) as registry,
                faults.inject(_plan("service.ingest.socket", drops)) as injector,
            ):
                if batched:
                    kept = server._take(lines)
                else:
                    kept = all(server._take([line]) for line in lines)
            twins.append((
                kept,
                [(receive_time, sentence) for receive_time, sentence, _ in queue._items],
                injector.snapshot(),
                registry.snapshot()["counters"],
            ))
        assert twins[0] == twins[1]

    def test_an_armed_plan_hits_the_site_once_per_line(self):
        server = IngestServer(IngestQueue(capacity=10), "127.0.0.1", 0, clock=lambda: 7)
        with faults.inject(FaultPlan()) as injector:
            assert server._take(["", "# comment", "junk line"])
        assert injector.hits == {"service.ingest.socket": 3}


@st.composite
def gateway_reads(draw) -> list[str]:
    """A client's ingest lines: sentences of a few vessels, fragment
    groups among them, with times that cross slide boundaries, repeat
    and now and then run late; blank, comment and garbled lines too."""
    reports = [
        encode_position_report(PositionReport(
            message_type=message_type, mmsi=237_000_000 + vessel, lon=23.5,
            lat=37.9, speed_knots=10.0, course_degrees=90.0, second_of_minute=0,
        ))
        for vessel, message_type in enumerate((1, 3, 18, 19, 19, 1))
    ]
    receive_time = draw(st.integers(min_value=0, max_value=600))
    lines = []
    for message_id in range(draw(st.integers(min_value=0, max_value=30))):
        receive_time += draw(st.sampled_from([0, 0, 1, 7, 59, 60, 61, 150, -1, -75]))
        kind = draw(st.integers(min_value=0, max_value=len(reports) + 2))
        if kind < len(reports):
            payload, fill = reports[kind]
            sentences = (
                wrap_aivdm_fragments(payload, fill, message_id=message_id % 10)
                if kind in (3, 4) else [wrap_aivdm(payload, fill)]
            )
        elif kind == len(reports):
            sentences = ["!AIVDM,garbage*00"]
        else:
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
            continue
        lines += [format_ingest_line(receive_time, sentence) for sentence in sentences]
    return lines


def _stamp(line: str) -> int:
    return int(line.partition("\t")[0])


def _placed(queued: list[tuple[str, bool]]) -> list[tuple[str, int]]:
    """A link's data lines, each with the later of its own stamp and the
    last watermark queued before it: no slide of a runtime that closes
    before that time can take the line."""
    placed, watermark = [], None
    for line, control in queued:
        if control:
            watermark = _stamp(line)
        else:
            stamp = _stamp(line)
            placed.append((line, stamp if watermark is None else max(stamp, watermark)))
    return placed


@st.composite
def near_canonical_reads(draw) -> list[str]:
    """Canonical ingest lines of a few vessels mixed with each near
    miss: odd stamps, padding, whitespace in a field, fill bits,
    fragment groups, short or non-armor headers, bad checksums, blank,
    comment and junk lines, late stamps and bare sentences."""
    payloads = [
        encode_position_report(PositionReport(
            message_type=message_type, mmsi=237_000_000 + vessel, lon=23.5,
            lat=37.9, speed_knots=10.0, course_degrees=90.0, second_of_minute=0,
        ))[0]
        for vessel, message_type in enumerate((1, 3, 18, 19))
    ]
    receive_time = draw(st.integers(min_value=0, max_value=10**10))
    lines: list[str] = []
    for message_id in range(draw(st.integers(min_value=0, max_value=24))):
        receive_time = max(0, receive_time + draw(st.sampled_from([0, 1, 30, -1, -40])))
        payload = draw(st.sampled_from(payloads))
        kind = draw(st.sampled_from([
            "canonical", "canonical", "canonical", "stamp", "padding",
            "field", "fill", "group", "short", "header", "checksum",
            "skipped", "bare", "odd_field",
        ]))
        sentence = wrap_aivdm(payload, 0, draw(st.sampled_from(["A", "B", ""])))
        stamp = str(receive_time)
        if kind == "stamp":
            odd = draw(st.sampled_from(["0102", "+1", "١", "00", f"{stamp} ", "space"]))
            if odd == "space":
                lines.append(f"{stamp} {sentence}")
                continue
            stamp = odd
        elif kind == "padding":
            pad = draw(st.sampled_from(["\r", "\t", " "]))
            sentence = draw(st.sampled_from([sentence + pad, pad + sentence]))
        elif kind == "field":
            spaced = draw(st.sampled_from(["\t", " 1"]))
            sentence = _checksummed(["1", "1", spaced, "A", payload, "0"])
        elif kind == "odd_field":
            # Canonical all the same: only ASCII whitespace is excluded.
            sentence = _checksummed(["1", "1", "\x85", "\xa0A", payload, "0"])
        elif kind == "fill":
            # Fill bits that cut into a 7-character header as well.
            cut = draw(st.sampled_from([7, 8, len(payload) - 1]))
            sentence = wrap_aivdm(payload[:cut], draw(st.integers(1, 5)))
        elif kind == "group":
            group = wrap_aivdm_fragments(payload, 0, message_id=message_id % 4)
            lines += [format_ingest_line(receive_time, part) for part in group]
            continue
        elif kind == "short":
            sentence = wrap_aivdm(payload[:draw(st.integers(1, 6))], 0)
        elif kind == "header":
            at = draw(st.integers(0, 6))
            bad = draw(st.sampled_from(["~", "é", "!", "X"]))
            sentence = wrap_aivdm(payload[:at] + bad + payload[at + 1:], 0)
        elif kind == "checksum":
            sentence = sentence[:-2] + draw(st.sampled_from(["00", "zz", "0"]))
        elif kind == "skipped":
            lines.append(draw(st.sampled_from(["", "   ", "# comment", "junk line", "\r"])))
            continue
        elif kind == "bare":
            lines.append(sentence)
            continue
        lines.append(f"{stamp}\t{sentence}")
    return lines


def _cut(lines: list[str], cuts: list[int]) -> list[list[str]]:
    """``lines`` cut into reads at the given offsets."""
    edges = sorted({0, len(lines), *(cut % (len(lines) + 1) for cut in cuts)})
    return [lines[start:end] for start, end in zip(edges, edges[1:])]


#: The wall clock the twin gateways stamp bare sentences with.
NOW = 1_000_000


class TestTakeTwin:
    """``GatewayNode._take`` against the read path it replaced
    (``tests/gateway/read_oracle.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        lines=near_canonical_reads(),
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=4),
        drops=st.lists(st.integers(min_value=1, max_value=40), max_size=3, unique=True),
        backends=st.integers(min_value=1, max_value=4),
    )
    def test_equals_the_parse_route_format_path(self, lines, cuts, drops, backends):
        """The same reads, under the same armed ``gateway.link`` plan:
        the same per-link queues, watermarks included, fault-site hits,
        open fragment groups, clock and ``gateway.*`` counters."""
        results = []
        for take in (
            lambda node, read: node._take(read),
            lambda node, read: read_oracle.take(node, read, NOW),
        ):
            registry = MetricsRegistry()
            links = [
                RuntimeLink(f"l{index}", "127.0.0.1", 1, RecordingTransport(), registry)
                for index in range(backends)
            ]
            node = GatewayNode(
                "gw0", "127.0.0.1", 0, create_transport("tcp"), links, registry
            )
            clock = SimpleNamespace(time=lambda: NOW, perf_counter=time.perf_counter)
            with (
                patch.object(node_module, "time", clock),
                faults.inject(_plan("gateway.link", drops)) as injector,
            ):
                for read in _cut(lines, cuts):
                    take(node, read)
            results.append((
                [_queued(link) for link in links],
                injector.snapshot(),
                list(node.router._pending.items()),
                (node._last_time, node._watermark_time),
                registry.snapshot()["counters"],
            ))
        assert results[0] == results[1]

    @settings(max_examples=100, deadline=None)
    @given(lines=near_canonical_reads())
    def test_a_canonical_line_is_its_parse_and_format(self, lines):
        """A canonical line parses to its stamp and sentence and formats
        back to itself, a bare one parses to the clock and its sentence,
        and the header, memoized by an earlier line or not, routes as a
        fresh router routes its sentence."""
        memo = SentenceRouter(4, MetricsRegistry())
        for line in lines:
            match = CANONICAL_INGEST_LINE(line)
            if match is None:
                continue
            stamp, sentence, header = match.groups()
            if stamp is None:
                assert parse_ingest_line(line, NOW) == (NOW, sentence)
            else:
                assert parse_ingest_line(line, NOW) == (int(stamp), sentence)
                assert format_ingest_line(int(stamp), sentence) == line
            owner = SentenceRouter(4, MetricsRegistry()).route(sentence)
            assert memo.route_header(header, sentence) == owner
            assert memo._owners[header] == owner


class TestReadCuts:
    """Reads of 1, 7 and all lines differ only in how many watermarks
    they queue, never in where a runtime's slides can place a line."""

    @settings(max_examples=100, deadline=None)
    @given(
        lines=gateway_reads(),
        drops=st.lists(st.integers(min_value=1, max_value=40), max_size=3, unique=True),
    )
    def test_how_the_read_is_cut_changes_only_watermarks(self, lines, drops):
        """Every cut puts the same data lines on every link, in the same
        order, each behind the same watermark time, counts the same
        late lines and every other counter but
        ``gateway.watermarks``, and a ``gateway.link`` plan drops the
        same sentences, since its hits follow arrival order.  Each read
        that moved the clock leaves the last watermark on every link
        stamped with the clock, and no other read adds one; the
        watermarks strictly increase, and ``gateway.watermarks`` counts
        the control lines of each link."""
        results = []
        for size in (1, 7, max(len(lines), 1)):
            registry = MetricsRegistry()
            links = [
                RuntimeLink(f"l{index}", "127.0.0.1", 1, RecordingTransport(), registry)
                for index in range(3)
            ]
            node = GatewayNode(
                "gw0", "127.0.0.1", 0, create_transport("tcp"), links, registry
            )
            clock = None
            watermarks: list[int] = []
            with faults.inject(_plan("gateway.link", drops)) as injector:
                for start in range(0, len(lines), size):
                    read = lines[start : start + size]
                    node._take(read)
                    stamps = [stamp for stamp, _ in parse_ingest_lines(read, 0)]
                    fresh = [
                        _stamp(line) for line, control in _queued(links[0]) if control
                    ][len(watermarks):]
                    if stamps and (clock is None or max(stamps) > clock):
                        clock = max(stamps)
                        assert fresh[-1] == clock
                    else:
                        assert fresh == []
                    watermarks += fresh
                    for link in links:
                        assert [
                            _stamp(line) for line, control in _queued(link) if control
                        ] == watermarks
            assert watermarks == sorted(set(watermarks))
            counters = registry.snapshot()["counters"]
            assert counters.get("gateway.watermarks", 0) == len(watermarks)
            counters.pop("gateway.watermarks", None)
            results.append((
                [_placed(_queued(link)) for link in links],
                counters, node._last_time, injector.snapshot(),
            ))
        assert results[0] == results[1] == results[2]

    def test_one_runtime_fed_each_cut_publishes_the_same_feed(self, world, small_fleet):
        """A node's link carried to one runtime: reads of 1, 7 and all
        lines, and one read cut only after a line past a slide boundary,
        give a single node's feed, byte for byte; in time order that is
        the offline replay's.  So they do when a late line follows that
        line: it always comes after a watermark at the node's clock, so
        the slide the line closed has run, and the late line lands in
        the next one, as on a single node, not in its own, as in the
        offline replay, which sorts by time."""
        specs = small_fleet["specs"]
        sentences = to_sentences(small_fleet["stream"][:600], fragment_every=40)
        config = SystemConfig()
        slide = config.window.slide_seconds
        crossing = next(
            index for index in range(1, len(sentences))
            if first_query_time(sentences[index - 1][0], slide)
            < first_query_time(sentences[index][0], slide)
            and all(
                sentence.startswith("!AIVDM,1,1,")
                for _, sentence in sentences[index - 1 : index + 1]
            )
        )
        late = [
            *sentences[: crossing - 1], sentences[crossing],
            sentences[crossing - 1], *sentences[crossing + 1 :],
        ]
        for stream in (sentences, late):
            single, _, _ = run_shard(stream, world, specs, config, 0)
            oracle = offline_oracle(stream, world, specs, config)
            assert (single == oracle) == (stream is sentences)
            for cuts in (
                range(0, len(stream), 1), range(0, len(stream), 7), (), (crossing,),
            ):
                forwarded, _ = gateway_records("gw0", stream, cuts)
                feed, _, _ = run_shard(forwarded, world, specs, config, 1)
                assert feed == single, (stream is late, cuts)


async def _subscribe(supervisor):
    """A socket subscribed to the supervisor's feed."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", supervisor.ports()["feed"], limit=1 << 24
    )
    await poll(lambda: supervisor.feed.subscriber_count == 1)
    return reader, writer


class TestLinkSeveredMidBatch:
    def test_runtime_feed_is_byte_identical(self, world, small_fleet):
        """A ``chaos+tcp`` link has one batch cut by an injected send drop
        in its middle, after half of it reached the runtime, and another
        lost to a partition; each is resent from where it stopped, and
        the runtime's feed equals the offline replay: no line lost, none
        duplicated."""
        sentences = to_sentences(small_fleet["stream"], fragment_every=40)
        oracle = offline_oracle(sentences, world, small_fleet["specs"])
        lines = [format_ingest_line(t, s) for t, s in sentences]
        cut = len(lines) // 3
        thirds = [lines[:cut], lines[cut : 2 * cut], lines[2 * cut :]]

        async def run():
            supervisor = ServiceSupervisor(
                world, small_fleet["specs"], None,
                ServiceConfig(ingest_port=0, feed_port=0, http_port=0),
            )
            await supervisor.start()
            port = supervisor.ports()["ingest"]
            feed_reader, feed_writer = await _subscribe(supervisor)
            registry = MetricsRegistry()
            link = RuntimeLink(
                "l0", "127.0.0.1", port, create_transport("chaos+tcp"), registry,
                policy=FAST,
            )
            link.start()
            delivered = 0

            # 1. The first batch fails at its middle line after writing the
            #    lines before it, and is resent from that line.
            plan = FaultPlan.from_spec(f"chaosnet.send:drop@{len(thirds[0]) // 2}")
            with faults.inject(plan) as injector:
                for line in thirds[0]:
                    link.send(line)
                delivered += len(thirds[0])
                await poll(lambda: supervisor.queue.put_count == delivered)
            assert len(injector.fired) == 1
            assert link.redials == 1

            # 2. The endpoint is severed with the next batch in flight and
            #    more lines queued behind it; healed, all of it lands once.
            chaosnet.sever("127.0.0.1", port)
            try:
                for line in thirds[1]:
                    link.send(line)
                await asyncio.sleep(0)
                for line in thirds[2]:
                    link.send(line)
                await poll(lambda: link.redials >= 3)
                assert link.depth == len(thirds[1]) + len(thirds[2])
            finally:
                chaosnet.heal("127.0.0.1", port)
            delivered += len(thirds[1]) + len(thirds[2])
            await poll(lambda: supervisor.queue.put_count == delivered)
            await link.close()
            await supervisor.drain_and_stop()

            feed = []
            while raw := await feed_reader.readline():
                feed.append(raw.decode("utf-8").rstrip("\n"))
            feed_writer.close()
            return registry, link, feed

        try:
            registry, link, feed = asyncio.run(run())
        finally:
            chaosnet.clear_partitions()
        assert feed == oracle
        assert registry.counter("gateway.link.lines").value == len(lines)
        assert registry.counter("gateway.link.lines_dropped").value == 0
