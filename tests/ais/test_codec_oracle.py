"""The integer codec against the bit-list reference in ``tests/ais/oracle.py``.

Encode, decode and the router's MMSI read must give the same outcome as
the reference on generated inputs — the same bytes, the same report, or
the same error from both — including out-of-range values, invalid
characters and payloads truncated anywhere.  The scanner's
``decode_fix`` must agree with ``decode_payload`` the same way.
"""

from hypothesis import given, settings, strategies as st

from repro.ais.messages import (
    PositionReport,
    decode_fix,
    decode_payload,
    encode_position_report,
)
from repro.gateway.routing import mmsi_of_payload
from tests.ais import oracle
from tests.gateway.read_oracle import decode_mmsis

ARMOR = [chr(code) for code in range(48, 88)] + [chr(code) for code in range(96, 120)]
#: Characters outside the armor alphabet, including ones ``int()`` would
#: otherwise accept inside a number (``_``, spaces, other scripts' digits).
INVALID = ["~", "X", "_", " ", "+", "٠", "\x7f", "é"]
#: First characters of the supported types 1, 2, 3, 18 and 19.
TYPE_CHARS = list("123BC")

EXAMPLES = settings(max_examples=300, deadline=None)


def outcome(function, *args):
    """The result of ``function(*args)``, or the type of the error it raised:
    ``ValueError``, or ``OverflowError`` for a value scaled past infinity."""
    try:
        return function(*args)
    except (ValueError, OverflowError) as error:
        return type(error)


def _insert(payload: str, position: int, char: str) -> str:
    position %= len(payload) + 1
    return payload[:position] + char + payload[position:]


armored = st.integers(min_value=0, max_value=60).flatmap(
    lambda size: st.text(alphabet=ARMOR, min_size=size, max_size=size)
)
#: Payloads that mostly carry a supported type, around the lengths that
#: matter (a Class B header ends at 139 bits, Class A at 143, type 19 is
#: 312), sometimes with one invalid character anywhere.
payloads = st.one_of(
    st.builds(str.__add__, st.sampled_from(TYPE_CHARS), armored),
    armored,
    st.builds(
        _insert,
        st.builds(str.__add__, st.sampled_from(TYPE_CHARS), armored),
        st.integers(min_value=0, max_value=60),
        st.sampled_from(INVALID),
    ),
)
fills = st.integers(min_value=0, max_value=5)

#: Reports every field of which fits its layout.
valid_reports = st.builds(
    PositionReport,
    message_type=st.sampled_from([1, 2, 3, 18, 19]),
    mmsi=st.integers(min_value=0, max_value=2**30 - 1),
    lon=st.floats(min_value=-181.0, max_value=181.0),
    lat=st.floats(min_value=-91.0, max_value=91.0),
    speed_knots=st.floats(min_value=0.0, max_value=110.0),
    course_degrees=st.floats(min_value=-400.0, max_value=800.0),
    second_of_minute=st.integers(min_value=-70, max_value=130),
)
wild = st.floats()
#: Reports whose values often fall outside their fields: an unsupported
#: type, a negative speed, an MMSI past 30 bits, a lon/lat past 28/27
#: bits, or NaN.
invalid_reports = st.builds(
    PositionReport,
    message_type=st.sampled_from([1, 2, 3, 18, 19]) | st.integers(-1, 64),
    mmsi=st.integers(min_value=-5, max_value=2**31),
    lon=st.floats(min_value=-300.0, max_value=300.0) | wild,
    lat=st.floats(min_value=-150.0, max_value=150.0) | wild,
    speed_knots=st.floats(min_value=-1.0, max_value=110.0) | wild,
    course_degrees=wild,
    second_of_minute=st.integers(),
)


@EXAMPLES
@given(report=valid_reports | invalid_reports)
def test_encode_matches_the_oracle(report):
    assert outcome(encode_position_report, report) == outcome(
        oracle.encode_position_report, report
    )


@EXAMPLES
@given(payload=payloads, fill=fills)
def test_decode_matches_the_oracle(payload, fill):
    assert outcome(decode_payload, payload, fill) == outcome(
        oracle.decode_payload, payload, fill
    )


@EXAMPLES
@given(report=valid_reports, cut=st.integers(min_value=0, max_value=60), fill=fills)
def test_decode_of_truncated_reports_matches_the_oracle(report, cut, fill):
    payload = oracle.encode_position_report(report)[0][:cut]
    assert outcome(decode_payload, payload, fill) == outcome(
        oracle.decode_payload, payload, fill
    )


def _fix(report):
    """What ``decode_fix`` owes for a ``decode_payload`` outcome."""
    if isinstance(report, PositionReport):
        return report.mmsi, report.lon, report.lat
    return report


@EXAMPLES
@given(
    payload=payloads
    | st.builds(
        lambda report, cut: oracle.encode_position_report(report)[0][:cut],
        valid_reports,
        st.integers(min_value=0, max_value=60),
    ),
    fill=fills,
)
def test_decode_fix_agrees_with_decode(payload, fill):
    # The same (mmsi, lon, lat), both None, or both ValueError.
    assert outcome(decode_fix, payload, fill) == _fix(
        outcome(decode_payload, payload, fill)
    )


@EXAMPLES
@given(payload=payloads, fill=fills)
def test_routing_reads_the_oracle_mmsi(payload, fill):
    # The router reads only the 7 header characters, so an invalid
    # character past them does not stop it: it reads what the reference
    # reads from the same payload with that character made valid.
    repaired = payload[:7] + "".join(
        char if char in ARMOR else "0" for char in payload[7:]
    )
    assert mmsi_of_payload(payload, fill) == oracle.mmsi_of_payload(repaired, fill)


@settings(max_examples=100, deadline=None)
@given(payloads=st.lists(payloads, max_size=6))
def test_the_batch_mmsi_read_is_the_one_payload_read(payloads):
    # Headers of one batch are unarmored together; a short or invalid
    # header sends the batch through the one-payload read.
    assert decode_mmsis(payloads) == [mmsi_of_payload(payload, 0) for payload in payloads]
