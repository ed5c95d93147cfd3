"""Fuzz the gateway's accept path behind ``receive_many``.

Whatever ingest lines a client sends — bytes flipped, lines cut short,
non-ASCII text, CR and tab where they do not belong, the stream cut
anywhere — the gateway must read them, route them and queue them on its
links without raising past the connection, and account for every line
it read: ``gateway.ingest.lines + gateway.ingest.ignored`` equals the
lines read, and every counted line is queued on exactly one link.
"""

import asyncio

from hypothesis import example, given, settings, strategies as st

from repro.ais import PositionReport, encode_position_report
from repro.ais.nmea import wrap_aivdm, wrap_aivdm_fragments
from repro.gateway import GatewayNode, RuntimeLink
from repro.obs.registry import MetricsRegistry
from repro.service.protocol import format_ingest_line
from repro.transport import create_transport
from repro.transport.tcp import TcpSession
from tests.gateway.test_node import RecordingTransport
from tests.transport.test_websocket_fuzz import SinkWriter

EXAMPLES = settings(max_examples=150, deadline=None)


def _sentences(mmsi: int, message_type: int, message_id: int) -> list[str]:
    payload, fill = encode_position_report(PositionReport(
        message_type=message_type, mmsi=mmsi, lon=23.5, lat=37.9,
        speed_knots=10.0, course_degrees=90.0, second_of_minute=0,
    ))
    if message_type == 19:
        return wrap_aivdm_fragments(payload, fill, message_id=message_id)
    return [wrap_aivdm(payload, fill)]


@st.composite
def ingest_line(draw) -> bytes:
    """One well-formed ingest line, then maybe damaged: a bit flipped,
    cut short, or non-ASCII or whitespace text spliced in."""
    sentences = _sentences(
        draw(st.integers(min_value=0, max_value=2**30 - 1)),
        draw(st.sampled_from([1, 3, 18, 19])),
        draw(st.integers(min_value=0, max_value=9)),
    )
    line = format_ingest_line(
        draw(st.integers(min_value=0, max_value=10**10)),
        draw(st.sampled_from(sentences)),
    ).encode("utf-8")
    damage = draw(st.sampled_from(["none", "flip", "cut", "splice"]))
    at = draw(st.integers(min_value=0, max_value=len(line)))
    if damage == "flip" and at < len(line):
        line = line[:at] + bytes([line[at] ^ 1 << draw(st.integers(0, 7))]) + line[at + 1:]
    elif damage == "cut":
        line = line[:at]
    elif damage == "splice":
        text = draw(
            st.sampled_from(["é", " ", "\x85", "١٢", "\r", "\t", " ", "*", ",", "\x00"])
            | st.text(max_size=4)
        )
        line = line[:at] + text.encode("utf-8") + line[at:]
    return line


@st.composite
def wires(draw) -> bytes:
    """Damaged lines and raw bytes, newline-joined, maybe cut anywhere."""
    lines = draw(st.lists(ingest_line() | st.binary(max_size=30), max_size=12))
    data = b"\n".join(lines) + draw(st.sampled_from([b"\n", b"", b"\r\n"]))
    if draw(st.booleans()):
        data = data[: draw(st.integers(min_value=0, max_value=len(data)))]
    return data


def read_all(data: bytes) -> list[str]:
    """Every line the listener's session reads from ``data``."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        session = TcpSession(reader, SinkWriter())
        lines: list[str] = []
        while batch := await session.receive_many():
            lines += batch
        return lines

    return asyncio.run(run())


@EXAMPLES
@given(data=wires())
@example(data=b"100\t!AIVDM,1,1,,A,0,0*00\n\xff\xfe\n# c\n\n")
@example(data=b"0100\t!AIVDM,1,1,,A,13u?etPv2;0n:dDP\xc3\xa9,0*24\r\n99\t!AIVDM,2,2,3,A,0,0*00")
def test_gateway_survives_and_accounts_for_every_line(data):
    lines = read_all(data)

    async def serve():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        registry = MetricsRegistry()
        links = [
            RuntimeLink(f"l{index}", "127.0.0.1", 1, RecordingTransport(), registry)
            for index in range(3)
        ]
        node = GatewayNode(
            "gw0", "127.0.0.1", 0, create_transport("tcp"), links, registry
        )
        await node._handle(reader, SinkWriter())
        return node, registry

    node, registry = asyncio.run(serve())
    counted = registry.counter("gateway.ingest.lines").value
    assert counted + registry.counter("gateway.ingest.ignored").value == len(lines)
    assert node.open_connections == 0
    data_lines = sum(
        not control for link in node.links for _, _, control in link._items
    )
    assert data_lines == counted
