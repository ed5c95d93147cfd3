"""TCP batch framing: ``receive_many`` under any chunking of the byte
stream yields exactly the lines, and the error, of per-line ``receive``.

Both sides read a ``StreamReader`` fed the same chunks, one chunk per
event-loop turn, so a batch read sees one chunk at a time: cuts inside
``\\r\\n``, inside a UTF-8 sequence and inside an over-long line all
happen.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.transport.base import TransportError
from repro.transport.tcp import TcpSession

#: The StreamReader limit of both sides: small, so long lines are cheap.
LIMIT = 16

#: Pieces of a stream: text, line ends (bare, CRLF, blank lines), invalid
#: and truncated UTF-8, and runs longer than the limit.
pieces = st.sampled_from([
    b"a", b"!AIVDM", b"\t", b"\n", b"\r", b"\r\n", b"\n\n",
    b"\xff", b"\xe2\x82", b"\xe2\x82\xac", "海".encode(),
    b"x" * (LIMIT - 1), b"y" * LIMIT, b"z" * (LIMIT + 1), b"w" * (3 * LIMIT),
])


@st.composite
def chunked_streams(draw):
    data = b"".join(draw(st.lists(pieces, max_size=24)))
    cuts = sorted(draw(st.sets(st.integers(min_value=0, max_value=len(data)))))
    bounds = [0, *cuts, len(data)]
    return [data[start:end] for start, end in zip(bounds, bounds[1:])]


async def _read_all(chunks, batched: bool):
    """``(lines, ended_in_error)`` of one session over ``chunks``."""
    reader = asyncio.StreamReader(limit=LIMIT)
    session = TcpSession(reader, None)

    async def feed():
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.ensure_future(feed())
    lines: list[str] = []
    error = False
    try:
        if batched:
            while batch := await session.receive_many():
                assert batch, "a batch is never empty"
                lines.extend(batch)
        else:
            while (line := await session.receive()) is not None:
                lines.append(line)
    except TransportError:
        error = True
    await feeder
    return lines, error


@settings(max_examples=250, deadline=None)
@given(chunks=chunked_streams())
def test_batches_yield_exactly_the_per_line_lines_and_error(chunks):
    per_line = asyncio.run(_read_all(chunks, batched=False))
    assert asyncio.run(_read_all(chunks, batched=True)) == per_line


def test_the_error_comes_after_the_lines_before_it():
    chunks = [b"ok\n" + b"z" * (LIMIT + 1) + b"\nlost\n"]
    assert asyncio.run(_read_all(chunks, batched=True)) == (["ok"], True)


def test_unterminated_last_line_is_a_line():
    chunks = [b"one\r\ntw", b"o\r"]
    assert asyncio.run(_read_all(chunks, batched=True)) == (["one", "two"], False)
