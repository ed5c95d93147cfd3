"""Routing units: MMSI sharding, fragment-group affinity, and agreement
with the backend's Data Scanner on who owns each sentence."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.ais import DataScanner, PositionReport, encode_position_report
from repro.ais.nmea import frame_aivdm, nmea_checksum, wrap_aivdm, wrap_aivdm_fragments
from repro.gateway import routing
from repro.gateway.routing import (
    PENDING_FRAGMENT_CAPACITY,
    SentenceRouter,
    mmsi_of_payload,
    shard_for_mmsi,
)
from repro.obs.registry import MetricsRegistry
from tests.gateway.read_oracle import route_many


def _sentence(mmsi: int, message_type: int = 1):
    payload, fill = encode_position_report(PositionReport(
        message_type=message_type,
        mmsi=mmsi,
        lon=23.5,
        lat=37.9,
        speed_knots=10.0,
        course_degrees=90.0,
        second_of_minute=0,
    ))
    return payload, fill


#: ``shard_for_mmsi`` outputs for :data:`GOLDEN_MMSIS` at 1, 2, 4 and 7
#: backends.  The hash decides which backend's journal holds a vessel, so
#: it must not change silently.
GOLDEN_MMSIS = (
    0, 1, 2, 7, 123456789, 200000000, 237000001, 237000002, 237000003,
    240123456, 311000042, 538007777, 999999999,
)
GOLDEN_BACKENDS = {
    1: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    2: (0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1),
    4: (0, 1, 2, 3, 1, 0, 1, 2, 3, 0, 2, 1, 3),
    7: (0, 5, 6, 5, 1, 3, 0, 1, 6, 0, 2, 2, 6),
}


class TestShardForMmsi:
    @pytest.mark.parametrize("backends", sorted(GOLDEN_BACKENDS))
    def test_known_values_pinned(self, backends):
        assert tuple(
            shard_for_mmsi(mmsi, backends) for mmsi in GOLDEN_MMSIS
        ) == GOLDEN_BACKENDS[backends]

    def test_deterministic_and_in_range(self):
        for mmsi in (0, 1, 111111111, 999999999):
            for shards in (1, 2, 4, 7):
                index = shard_for_mmsi(mmsi, shards)
                assert index == shard_for_mmsi(mmsi, shards)
                assert 0 <= index < shards

    def test_spreads_consecutive_mmsis(self):
        # A fleet numbered in a block must not all land on one runtime.
        indices = {shard_for_mmsi(237000000 + i, 4) for i in range(16)}
        assert len(indices) == 4

    def test_deterministic_across_calls(self):
        for mmsi in range(200_000_000, 200_000_500):
            assert shard_for_mmsi(mmsi, 4) == shard_for_mmsi(mmsi, 4)

    def test_in_range(self):
        for shards in (1, 2, 3, 4, 8):
            for mmsi in range(200_000_000, 200_001_000, 7):
                assert 0 <= shard_for_mmsi(mmsi, shards) < shards

    def test_spreads_sequential_mmsis(self):
        # Fleet MMSIs are near-sequential; the multiplicative hash must
        # not funnel them all into one backend.
        counts = [0, 0, 0, 0]
        for mmsi in range(200_000_000, 200_000_100):
            counts[shard_for_mmsi(mmsi, 4)] += 1
        assert min(counts) > 0


class TestMmsiOfPayload:
    def test_extracts_the_encoded_mmsi(self):
        payload, fill = _sentence(237006500)
        assert mmsi_of_payload(payload, fill) == 237006500

    def test_truncated_payload_is_none(self):
        assert mmsi_of_payload("1", 0) is None

    def test_invalid_armor_is_none(self):
        assert mmsi_of_payload("\x7f\x7f\x7f\x7f\x7f\x7f\x7f", 0) is None

    def test_invalid_character_past_the_header_still_reads(self):
        payload, fill = _sentence(237006500)
        assert mmsi_of_payload(payload[:10] + "~" + payload[11:], fill) == 237006500

    def test_fill_bits_can_cut_into_the_header(self):
        payload, _ = _sentence(237006500)
        assert mmsi_of_payload(payload[:7], 4) == 237006500  # 38 bits
        assert mmsi_of_payload(payload[:7], 5) is None  # 37 bits


class TestSentenceRouter:
    def setup_method(self):
        self.registry = MetricsRegistry()
        self.router = SentenceRouter(4, self.registry)

    def test_routes_by_mmsi(self):
        payload, fill = _sentence(237006500)
        sentence = wrap_aivdm(payload, fill)
        assert self.router.route(sentence) == shard_for_mmsi(237006500, 4)

    def test_fragments_follow_their_first_fragment(self):
        payload, fill = _sentence(237006500, message_type=19)
        first, second = wrap_aivdm_fragments(payload, fill, message_id=3)
        expected = shard_for_mmsi(237006500, 4)
        assert self.router.route(first) == expected
        assert self.router.route(second) == expected
        # The final fragment retires the group.
        assert not self.router._pending

    def test_orphan_fragment_goes_to_runtime_zero_counted(self):
        payload, fill = _sentence(237006500, message_type=19)
        _, second = wrap_aivdm_fragments(payload, fill, message_id=9)
        assert self.router.route(second) == 0
        assert self.registry.counter("gateway.route.unroutable").value == 1
        assert (
            self.registry.counter(
                "gateway.route.unroutable.orphan_fragment"
            ).value == 1
        )

    def test_unparseable_sentence_goes_to_runtime_zero_counted(self):
        assert self.router.route("!AIVDM,garbage*00") == 0
        assert self.registry.counter("gateway.route.unroutable").value == 1

    def test_abandoned_fragment_groups_are_evicted_counted(self):
        payload, fill = _sentence(237006500, message_type=19)
        for message_id in range(PENDING_FRAGMENT_CAPACITY + 8):
            first, _ = wrap_aivdm_fragments(
                payload, fill, message_id=message_id
            )
            self.router.route(first)
        assert len(self.router._pending) <= PENDING_FRAGMENT_CAPACITY
        assert (
            self.registry.counter(
                "gateway.route.fragment_groups_dropped"
            ).value == 8
        )

    def test_rejects_zero_backends(self):
        with pytest.raises(ValueError):
            SentenceRouter(0, self.registry)

    @pytest.mark.parametrize("fill", ["-1", "-7", "6"])
    def test_fill_bits_outside_0_to_5_are_unparseable(self, fill):
        payload, _ = _sentence(237006500)
        body = f"AIVDM,1,1,,A,{payload},{fill}"
        assert self.router.route(f"!{body}*{nmea_checksum(body)}") == 0
        assert (
            self.registry.counter("gateway.route.unroutable.unparseable").value == 1
        )

    def test_invalid_character_past_the_header_routes_to_its_owner(self):
        # The owner's scanner quarantines it exactly as one node would.
        payload, fill = _sentence(237006501)
        sentence = wrap_aivdm(payload[:10] + "~" + payload[11:], fill)
        assert self.router.route(sentence) == shard_for_mmsi(237006501, 4) == 1
        scanner = DataScanner()
        assert scanner.scan(0, sentence) is None
        assert scanner.last_rejection == "bad_payload"

    def test_bad_checksum_routes_to_its_owner_which_quarantines_it(self):
        # The router frames without checksumming; the owner's scanner is
        # the one checksum and counts the sentence there.
        payload, fill = _sentence(237006501)
        sentence = wrap_aivdm(payload, fill)
        corrupted = f"{sentence[:-2]}{int(sentence[-2:], 16) ^ 1:02X}"
        assert self.router.route(corrupted) == shard_for_mmsi(237006501, 4) == 1
        assert self.registry.counter("gateway.route.unroutable").value == 0
        scanner = DataScanner()
        assert scanner.scan(0, corrupted) is None
        assert scanner.last_rejection == "bad_checksum"

    def test_groups_of_different_sizes_sharing_an_id_stay_apart(self):
        # A 2-fragment and a 3-fragment group with the same id on the same
        # channel are two groups to the scanner, so they are to the router.
        mmsi_a, mmsi_b = (
            next(m for m in range(237_000_000, 237_001_000) if shard_for_mmsi(m, 4) == shard)
            for shard in (1, 2)
        )
        a1, a2 = wrap_aivdm_fragments(*_sentence(mmsi_a, 19), message_id=5)
        b1, b2, b3 = wrap_aivdm_fragments(
            *_sentence(mmsi_b, 19), message_id=5, fragments=3
        )
        arrivals = [a1, b1, a2, b2, b3]
        routes = [self.router.route(sentence) for sentence in arrivals]
        assert routes == [1, 2, 1, 2, 2]
        single = DataScanner()
        backends = [DataScanner() for _ in range(4)]
        expected = [single.scan(t, s) for t, s in enumerate(arrivals)]
        got = [backends[r].scan(t, s) for t, (r, s) in enumerate(zip(routes, arrivals))]
        assert got == expected
        assert sorted(p.mmsi for p in got if p) == sorted([mmsi_a, mmsi_b])


#: Reports the Data Scanner accepts, of all five position types.
accepted_reports = st.builds(
    PositionReport,
    message_type=st.sampled_from([1, 2, 3, 18, 19]),
    mmsi=st.integers(min_value=0, max_value=2**30 - 1),
    lon=st.floats(min_value=-180.0, max_value=180.0),
    lat=st.floats(min_value=-90.0, max_value=90.0),
    speed_knots=st.floats(min_value=0.0, max_value=102.2),
    course_degrees=st.floats(min_value=0.0, max_value=359.9),
    second_of_minute=st.integers(min_value=0, max_value=59),
)


def _framed(report: PositionReport, fragmented: bool, message_id: int) -> list[str]:
    payload, fill = encode_position_report(report)
    if fragmented and report.message_type == 19:
        return wrap_aivdm_fragments(payload, fill, message_id=message_id % 10)
    return [wrap_aivdm(payload, fill)]


def _checksummed(fields: list[str]) -> str:
    """An AIVDM sentence of arbitrary fields that passes the checksum."""
    body = ",".join(["AIVDM", *fields])
    return f"!{body}*{nmea_checksum(body)}"


class TestRouterAgreesWithTheScanner:
    @settings(max_examples=200, deadline=None)
    @given(
        reports=st.lists(
            st.tuples(accepted_reports, st.booleans()), min_size=1, max_size=6
        ),
        backends=st.integers(min_value=1, max_value=8),
    )
    def test_every_accepted_sentence_goes_to_its_owner(self, reports, backends):
        router = SentenceRouter(backends, MetricsRegistry())
        scanner = DataScanner()
        for message_id, (report, fragmented) in enumerate(reports):
            sentences = _framed(report, fragmented, message_id)
            routes = [router.route(sentence) for sentence in sentences]
            scanned = [scanner.scan(0, sentence) for sentence in sentences][-1]
            assert scanned is not None
            assert routes == [shard_for_mmsi(scanned.mmsi, backends)] * len(sentences)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.text(max_size=80)
            | st.builds(wrap_aivdm, st.text(max_size=40), st.integers(-9, 9))
            | st.lists(
                st.text(alphabet="01235ABC-~", max_size=8), min_size=6, max_size=6
            ).map(_checksummed)
            # The same with a wrong checksum, which routing does not read.
            | st.lists(
                st.text(alphabet="01235ABC-~", max_size=8), min_size=6, max_size=6
            ).map(lambda fields: _checksummed(fields)[:-2] + "ZZ"),
            max_size=10,
        ),
        backends=st.integers(min_value=1, max_value=8),
    )
    def test_arbitrary_text_never_raises_and_every_fallback_is_counted(
        self, lines, backends
    ):
        registry = MetricsRegistry()
        router = SentenceRouter(backends, registry)
        for line in lines:
            before = registry.counter("gateway.route.unroutable").value
            backend = router.route(line)
            fallbacks = registry.counter("gateway.route.unroutable").value - before
            assert 0 <= backend < backends
            assert fallbacks in (0, 1)
            if fallbacks:
                assert backend == 0
            try:
                parsed = frame_aivdm(line)
            except ValueError:
                assert fallbacks == 1
                continue
            if parsed.fragment_number == 1 and (
                mmsi_of_payload(parsed.payload, parsed.fill_bits) is None
            ):
                assert fallbacks == 1


@st.composite
def routed_sentences(draw) -> list[str]:
    """Sentences as a gateway reads them: whole fragment groups, orphan
    continuations, many open groups at once, and framing the fast path
    must leave to the per-sentence path."""
    sentences: list[str] = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        report = draw(accepted_reports)
        payload, fill = encode_position_report(report)
        kind = draw(st.sampled_from([
            "single", "group", "opened", "orphan", "bad_checksum", "star",
            "non_hex", "bad_header", "short", "whitespace", "odd_digits",
        ]))
        sentence = wrap_aivdm(payload, fill)
        if kind in ("group", "opened", "orphan"):
            group = wrap_aivdm_fragments(
                payload, fill, message_id=draw(st.integers(0, 3)),
                fragments=draw(st.integers(min_value=2, max_value=3)),
            )
            sentences += {"group": group, "opened": group[:1], "orphan": group[1:]}[kind]
            continue
        if kind == "bad_checksum":
            sentence = f"{sentence[:-2]}{int(sentence[-2:], 16) ^ 1:02X}"
        elif kind == "star":
            sentence = wrap_aivdm(payload[:9] + "*" + payload[9:], fill)
        elif kind == "non_hex":
            digits = draw(st.sampled_from(["ZZ", "G1", "0g", "١٢", "5 ", "\t\t"]))
            sentence = sentence[:-2] + digits
        elif kind == "bad_header":
            at = draw(st.integers(0, 6))
            bad = draw(st.sampled_from(["~", "\x7f", "\xe9", " ", "!"]))
            sentence = wrap_aivdm(payload[:at] + bad + payload[at + 1:], fill)
        elif kind == "short":
            sentence = wrap_aivdm(payload[:draw(st.integers(1, 8))], draw(st.integers(0, 5)))
        elif kind == "whitespace":
            pad = draw(st.sampled_from(["\r", "\t", " ", "\r\n"]))
            sentence = draw(st.sampled_from([sentence + pad, pad + sentence]))
        elif kind == "odd_digits":
            sentence = _checksummed([
                draw(st.sampled_from(["01", "١", " 1", "+1"])), "1", "", "A",
                payload, str(fill),
            ])
        sentences.append(sentence)
    return sentences


def _twin_routes(sentences, backends, capacity):
    """Routes and counters of the batch router the gateway once used
    (``read_oracle.route_many``) and of ``route`` per sentence, on two
    routers."""
    results = []
    with patch.object(routing, "PENDING_FRAGMENT_CAPACITY", capacity):
        for route in (
            lambda router: route_many(router, sentences),
            lambda router: [router.route(sentence) for sentence in sentences],
        ):
            registry = MetricsRegistry()
            router = SentenceRouter(backends, registry)
            results.append((
                route(router),
                registry.snapshot()["counters"],
                list(router._pending.items()),
            ))
    return results


class TestRouteMany:
    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(routed_sentences(), min_size=1, max_size=4),
        backends=st.integers(min_value=1, max_value=8),
        capacity=st.integers(min_value=1, max_value=4),
    )
    def test_equals_route_per_sentence(self, batches, backends, capacity):
        sentences = [sentence for batch in batches for sentence in batch]
        batch, one_by_one = _twin_routes(sentences, backends, capacity)
        assert batch == one_by_one

    def test_fill_bits_that_cut_into_the_header(self):
        # Seven characters with 5 fill bits leave 37 bits: no MMSI.
        payload, _ = _sentence(237006500)
        sentences = [wrap_aivdm(payload[:7], fill) for fill in range(6)]
        batch, one_by_one = _twin_routes(sentences, 4, PENDING_FRAGMENT_CAPACITY)
        assert batch == one_by_one
        assert batch[0] == [shard_for_mmsi(237006500, 4)] * 5 + [0]

    def test_more_open_groups_than_the_capacity(self):
        payload, fill = _sentence(237006500, message_type=19)
        groups = [
            wrap_aivdm_fragments(payload, fill, message_id=message_id)
            for message_id in range(PENDING_FRAGMENT_CAPACITY + 8)
        ]
        sentences = [first for first, _ in groups] + [second for _, second in groups]
        batch, one_by_one = _twin_routes(sentences, 4, PENDING_FRAGMENT_CAPACITY)
        assert batch == one_by_one
        assert batch[1]["gateway.route.fragment_groups_dropped"] == 8
        assert batch[1]["gateway.route.unroutable.orphan_fragment"] == 8


class TestHeaderMemo:
    def test_stays_within_its_bound(self):
        """More distinct headers than the bound: the memo never holds
        more, and every header still routes to its owner."""
        registry = MetricsRegistry()
        router = SentenceRouter(4, registry)
        with patch.object(routing, "HEADER_MEMO_CAPACITY", 8):
            for mmsi in range(237_000_000, 237_000_030):
                payload, fill = _sentence(mmsi)
                sentence = wrap_aivdm(payload, fill)
                assert router.route_header(payload[:7], sentence) == shard_for_mmsi(mmsi, 4)
                assert len(router._owners) <= 8
        assert "gateway.route.unroutable" not in registry.snapshot()["counters"]

    def test_an_undecodable_header_is_counted_on_every_line(self):
        """A header that is not armor routes to backend 0 and is counted
        as unroutable on every repeat: it is never memoized."""
        registry = MetricsRegistry()
        router = SentenceRouter(4, registry)
        payload, fill = _sentence(237006500)
        payload = payload[:3] + "~" + payload[4:]
        sentence = wrap_aivdm(payload, fill)
        for repeat in range(1, 4):
            assert router.route_header(payload[:7], sentence) == 0
            assert registry.counter("gateway.route.unroutable").value == repeat
            assert registry.counter("gateway.route.unroutable.short_payload").value == repeat
        assert not router._owners
