"""The batch Data Scanner against the per-sentence oracle in ``tests/ais/oracle.py``.

However a stream is cut into ``scan_many`` batches (and however each
batch is cut into framing chunks), the scanner must emit the tuples,
keep the statistics and name the rejection causes that the oracle does
scanning one sentence at a time — over every supported type, interleaved
2- and 3-fragment groups, bad and lower-case checksums, invalid armor
characters, fill bits 0–5, whitespace padding and arbitrary text.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.ais import scanner as scanner_module
from repro.ais.messages import PositionReport, encode_position_report
from repro.ais.nmea import nmea_checksum, wrap_aivdm, wrap_aivdm_fragments
from repro.ais.scanner import DataScanner
from tests.ais.oracle import OracleScanner

ARMOR = [chr(code) for code in range(48, 88)] + [chr(code) for code in range(96, 120)]
#: Characters outside the armor alphabet, framing characters included.
INVALID = ["~", "X", "_", " ", ",", "*", "é", "٠", "\x7f"]
#: First characters of the supported types 1, 2, 3, 18 and 19.
TYPE_CHARS = list("123BC")
HEX = "0123456789ABCDEF"
PADDING = ["", " ", "\t", "\r\n", "  \n", "\x0b"]

EXAMPLES = settings(max_examples=100, deadline=None)

reports = st.builds(
    PositionReport,
    message_type=st.sampled_from([1, 2, 3, 18, 19]),
    mmsi=st.integers(min_value=0, max_value=2**30 - 1),
    # A little past the valid range: sentinels and out-of-range fixes.
    lon=st.floats(min_value=-181.0, max_value=181.0),
    lat=st.floats(min_value=-91.0, max_value=91.0),
    speed_knots=st.floats(min_value=0.0, max_value=110.0),
    course_degrees=st.floats(min_value=0.0, max_value=359.9),
    second_of_minute=st.integers(min_value=0, max_value=59),
)
channels = st.sampled_from(["A", "B", "", "1"])
#: Armored payloads, usually of a supported type, up to past the length
#: whose sentence no longer fits the scanner's checksum lane.
armored = st.builds(
    str.__add__,
    st.sampled_from(TYPE_CHARS) | st.sampled_from(ARMOR),
    st.text(alphabet=ARMOR, max_size=120),
)


def _insert(payload: str, position: int, char: str) -> str:
    position %= len(payload) + 1
    return payload[:position] + char + payload[position:]


def _single(report: PositionReport, channel: str) -> list[str]:
    payload, fill = encode_position_report(report)
    return [wrap_aivdm(payload, fill, channel)]


def _group(report: PositionReport, channel: str, message_id: int, count: int,
           lose: int | None) -> list[str]:
    """A 2- or 3-fragment group, sometimes with one fragment lost."""
    payload, fill = encode_position_report(report)
    fragments = wrap_aivdm_fragments(payload, fill, channel, message_id, count)
    if lose is not None:
        del fragments[lose % count]
    return fragments


def _framed(payload: str, fill: int, channel: str, count: int = 1,
            number: int = 1, message_id: str = "") -> list[str]:
    """Any payload, fill bits 0–5 and fragment fields (a number past the
    count included), framed with a correct checksum."""
    body = f"AIVDM,{count},{number},{message_id},{channel},{payload},{fill}"
    return [f"!{body}*{nmea_checksum(body)}"]


items = st.one_of(
    st.builds(_single, reports, channels),
    st.builds(
        _group, reports, channels, st.integers(min_value=0, max_value=3),
        st.sampled_from([2, 3]), st.none() | st.integers(min_value=0, max_value=2),
    ),
    st.builds(_framed, armored, st.integers(min_value=0, max_value=5), channels),
    st.builds(
        _framed, armored, st.integers(min_value=0, max_value=5), channels,
        st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
        st.sampled_from(["", "1", "2"]),
    ),
    st.builds(
        _framed,
        st.builds(_insert, armored, st.integers(min_value=0, max_value=120),
                  st.sampled_from(INVALID)),
        st.integers(min_value=0, max_value=5),
        channels,
    ),
    st.text(max_size=80).map(lambda text: [text]),
)


@st.composite
def sentences(draw, sentence):
    """One sentence, sometimes with a wrong or lower-case checksum, padded."""
    kind = draw(st.sampled_from(["as is", "bad checksum", "lower case"]))
    if kind == "bad checksum" and sentence[-3:-2] == "*":
        wrong = draw(st.sampled_from(HEX).filter(lambda digit: digit != sentence[-1]))
        sentence = sentence[:-1] + wrong
    elif kind == "lower case":
        sentence = sentence[:-2] + sentence[-2:].lower()
    return draw(st.sampled_from(PADDING)) + sentence + draw(st.sampled_from(PADDING))


@st.composite
def streams(draw):
    """Timestamped sentences, fragment groups interleaved, cut into batches."""
    lines = [
        draw(sentences(sentence))
        for item in draw(st.lists(items, max_size=20))
        for sentence in item
    ]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    stream = [(index, line) for index, line in enumerate(lines)]
    cuts = sorted(set(draw(st.lists(st.integers(0, len(stream)), max_size=6))))
    bounds = [0, *cuts, len(stream)]
    batches = [stream[start:end] for start, end in zip(bounds, bounds[1:])]
    return stream, batches


def _oracle_run(stream):
    oracle = OracleScanner()
    positions, rejections = [], []
    for index, (receive_time, sentence) in enumerate(stream):
        position = oracle.scan(receive_time, sentence)
        if position is not None:
            positions.append(position)
        if oracle.last_rejection is not None:
            rejections.append((index, oracle.last_rejection))
    oracle.flush()
    return positions, rejections, oracle.statistics


def _batch_run(batches, chunk):
    scanner = DataScanner()
    positions, rejections = [], []
    offset = 0
    with mock.patch.object(scanner_module, "SCAN_CHUNK", chunk):
        for batch in batches:
            positions += scanner.scan_many(batch)
            rejections += [(offset + index, cause) for index, cause in scanner.rejections]
            offset += len(batch)
    scanner.flush()
    return positions, rejections, scanner.statistics


@EXAMPLES
@given(cut=streams(), chunk=st.sampled_from([1, 2, 3, 1024]))
def test_any_cut_into_batches_scans_like_the_oracle(cut, chunk):
    stream, batches = cut
    assert _batch_run(batches, chunk) == _oracle_run(stream)


@EXAMPLES
@given(lines=st.lists(st.text(max_size=150), max_size=12), chunk=st.sampled_from([1, 5, 1024]))
def test_arbitrary_text_never_raises_and_always_counts(lines, chunk):
    stream = list(enumerate(lines))
    positions, rejections, statistics = _batch_run([stream], chunk)
    assert (positions, rejections, statistics) == _oracle_run(stream)
    if not statistics.reassembled:
        assert statistics.total == len(lines)


def test_rejections_name_each_cause_in_input_order():
    good = _single(PositionReport(1, 239_000_001, 23.6, 37.9, 10.0, 90.0, 0), "A")[0]
    sentinel = _single(PositionReport(1, 239_000_001, 181.0, 37.9, 10.0, 90.0, 0), "A")[0]
    batch = list(enumerate([
        sentinel,
        good,
        good[:-2] + ("00" if good[-2:] != "00" else "11"),
        "garbage",
        _framed("13u", 0, "A")[0],
        _framed("4" + "0" * 27, 0, "A")[0],
        good[:-2] + good[-2:].lower(),
    ]))
    scanner = DataScanner()
    positions = scanner.scan_many(batch)
    assert len(positions) == 2
    assert scanner.rejections == [
        (0, "invalid_position"),
        (2, "bad_checksum"),
        (3, "bad_format"),
        (4, "bad_payload"),
        (5, "unsupported_type"),
    ]
