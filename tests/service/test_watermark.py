"""The slide cadence, rule by rule: what makes a gateway-cluster shard,
a single node and the offline replay cut the same slides.

The parity matrix (tests/integration/test_deployment_parity.py) proves
the end result; these tests pin the individual rules — barrier
advancement, final-watermark exemption, batch partition and sort, the
empty trailing drain slide, and a node with no upstream sources taking
its own arrivals as its watermark — so a regression names the broken
rule, not just "bytes differ somewhere"."""

import asyncio
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.ais import PositionReport, encode_position_report, wrap_aivdm
from repro.ais.scanner import DataScanner
from repro.ais.stream import (
    PositionalTuple,
    StreamReplayer,
    TimedArrival,
    first_query_time,
)
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.resilience import FaultPlan, inject
from repro.service.batcher import SlideBatcher
from repro.service.ingest import IngestQueue
from repro.service.protocol import (
    WATERMARK_PREFIX,
    format_watermark,
    parse_watermark,
    slide_feed_line,
)
from tests.gateway.conftest import split_round_robin
from tests.parity import (
    HandOver,
    first_watermark_at,
    gateway_records,
    offline_oracle,
    run_shard,
)
from tests.service.conftest import to_sentences


@functools.cache
def _sentence(mmsi: int) -> str:
    payload, fill = encode_position_report(PositionReport(
        message_type=1,
        mmsi=mmsi,
        lon=23.5,
        lat=37.9,
        speed_knots=10.0,
        course_degrees=90.0,
        second_of_minute=0,
    ))
    return wrap_aivdm(payload, fill)


def _wm(source: str, final: bool = False) -> str:
    return f"{WATERMARK_PREFIX}{source},final" if final else (
        f"{WATERMARK_PREFIX}{source}"
    )


class FakeSystem:
    """Records every pipeline call the batcher makes: per close, the
    positions handed to ``track`` since the previous close, in the
    ``(timestamp, mmsi)`` order the tracker closes them in, and the query
    time of every slide it archived."""

    def __init__(self):
        self.calls = []
        self.archived = []
        #: What the open slide handed ``track`` so far.
        self.tracking = []

    def close_slide(self, query_time):
        self.calls.append((query_time, sorted(self.tracking)))
        self.tracking = []
        return query_time  # stands in for the slide report

    def archive(self):
        self.archived.append(self.calls[-1][0])

    def archive_touches_mod(self):
        return False  # there is no MOD

    def finalize(self):
        self.calls.append(("finalize", None))
        return None

    def track(self, positions):
        self.tracking += [(p.timestamp, p.mmsi) for p in positions]

    def untrack(self):
        self.tracking = []


async def _drive(lines, watermark_sources=2, drain=False, size=None):
    """Feed ``(receive_time, sentence)`` lines through a fresh batcher,
    ``size`` lines per hand-over (all at once by default)."""
    system = FakeSystem()
    batcher = SlideBatcher(
        system, HandOver(lines, size or len(lines)), slide_seconds=60,
        watermark_sources=watermark_sources,
    )
    await batcher.run()
    if drain:
        await batcher.drain()
    # Every slide the batcher closed was archived once a later hand-over,
    # slide or drain came; only the last one may still be owed.
    closed = [qt for qt, _ in system.calls if qt != "finalize"]
    assert system.archived == (closed if drain else closed[:-1])
    return system, batcher


def _offline_slides(reports) -> list:
    """:class:`StreamReplayer`'s 60 s slides over ``(timestamp, mmsi)``
    reports, each batch sorted by ``(timestamp, mmsi)``."""
    arrivals = [
        TimedArrival(ts, PositionalTuple(mmsi, 23.5, 37.9, ts)) for ts, mmsi in reports
    ]
    return [
        (qt, sorted((p.timestamp, p.mmsi) for p in batch))
        for qt, batch in StreamReplayer(arrivals, 60).batches()
    ]


def test_rejects_a_nonpositive_slide():
    with pytest.raises(ValueError):
        SlideBatcher(FakeSystem(), IngestQueue(10), slide_seconds=0)


class TestWatermarkProtocol:
    def test_roundtrip(self):
        line = format_watermark(7200, "gw0")
        assert line == "7200\t!REPRO,WM,gw0"
        assert parse_watermark(line.split("\t")[1]) == ("gw0", False)

    def test_final_flag(self):
        line = format_watermark(7200, "gw1", final=True)
        assert parse_watermark(line.split("\t")[1]) == ("gw1", True)

    def test_non_watermarks_and_malformed_are_none(self):
        assert parse_watermark("!AIVDM,1,1,,A,x,0*00") is None
        assert parse_watermark(WATERMARK_PREFIX) is None  # no source
        assert parse_watermark(f"{WATERMARK_PREFIX}gw0,bogus") is None


class TestWatermarkCadence:
    def test_slide_waits_for_every_source(self):
        held, _ = asyncio.run(_drive([
            (10, _sentence(111)),
            (70, _wm("gw0")),
        ]))
        assert held.calls == []  # gw1 has not reported: the slide holds

        released, _ = asyncio.run(_drive([
            (10, _sentence(111)),
            (70, _wm("gw0")),
            (70, _wm("gw1")),
        ]))
        assert released.calls == [(60, [(10, 111)])]

    def test_intermediate_empty_slides_run(self):
        # Watermarks far past the data release every boundary the single
        # node would run, empty ones included (windows must still slide).
        system, _ = asyncio.run(_drive([
            (10, _sentence(111)),
            (200, _wm("gw0")),
            (200, _wm("gw1")),
        ]))
        assert system.calls == [(60, [(10, 111)]), (120, []), (180, [])]

    def test_final_watermark_exempts_its_source(self):
        # gw0 said goodbye at 50; its stale clock must not hold slides
        # back while gw1 keeps advancing.
        system, _ = asyncio.run(_drive([
            (10, _sentence(111)),
            (50, _wm("gw0", final=True)),
            (130, _wm("gw1")),
        ]))
        assert [qt for qt, _ in system.calls] == [60, 120]

    def test_batch_partition_and_deterministic_sort(self):
        # Arrival interleaving across gateway links is erased: each slide
        # takes only positions due at its boundary, sorted by
        # (timestamp, mmsi).
        system, _ = asyncio.run(_drive([
            (70, _sentence(300)),
            (10, _sentence(111)),
            (70, _sentence(100)),
            (200, _wm("gw0")),
            (200, _wm("gw1")),
        ]))
        assert system.calls == [
            (60, [(10, 111)]),
            (120, [(70, 100), (70, 300)]),
            (180, []),
        ]

    def test_the_closing_watermark_tracks_what_it_releases_first(self):
        # A shard tracks what every source has passed: at frontier 100,
        # the positions at 80 and 90.  The watermarks at 130 close slide
        # 120 and release the position at 110 too; it is tracked before
        # the close, so the tracker is handed the whole slide and its
        # close only orders the held events.
        system, _ = asyncio.run(_drive([
            (10, _sentence(111)),
            (70, _wm("gw0")),
            (70, _wm("gw1")),
            (80, _sentence(222)),
            (90, _sentence(333)),
            (100, _wm("gw0")),
            (100, _wm("gw1")),
            (110, _sentence(222)),
            (130, _wm("gw0")),
            (130, _wm("gw1")),
        ]))
        slide = [(80, 222), (90, 333), (110, 222)]
        assert system.calls == [(60, [(10, 111)]), (120, slide)]

    def test_watermark_clocks_snapshot_is_monotonic(self):
        async def run():
            with obs.activate(obs.MetricsRegistry()) as registry:
                _, batcher = await _drive([
                    (100, _wm("gw0")),
                    (90, _wm("gw1")),
                    (50, _wm("gw0")),  # stale: must not regress the clock
                ])
                return batcher, registry

        batcher, registry = asyncio.run(run())
        assert batcher.watermark_clocks == {"gw0": 100, "gw1": 90}
        assert registry.counter("service.ingest.watermarks").value == 3

    def test_drain_runs_the_trailing_slide_even_empty(self):
        # Every shard must finalize at the same query time for the fan-in
        # merge to line up, so the trailing drain slide runs with an
        # empty batch too.
        system, _ = asyncio.run(_drive([
            (10, _sentence(111)),
            (70, _wm("gw0")),
            (70, _wm("gw1")),
        ], drain=True))
        assert system.calls == [
            (60, [(10, 111)]),
            (120, []),
            ("finalize", None),
        ]

    def test_drain_slides_until_nothing_is_pending(self):
        # A forced stop mid-stream (no final watermarks, positions past
        # the last released boundary) keeps sliding rather than
        # stranding positions.
        system, _ = asyncio.run(_drive([
            (10, _sentence(111)),
            (70, _wm("gw0")),
            (70, _wm("gw1")),
            (150, _sentence(222)),
        ], drain=True))
        assert system.calls == [
            (60, [(10, 111)]),
            (120, []),
            (180, [(150, 222)]),
            ("finalize", None),
        ]

    def test_an_injected_slide_error_loses_only_that_slide(self):
        # The lost slide takes its own positions with it, not the ones
        # already pending for later slides.
        with inject(FaultPlan.from_spec("service.slide:error@1")):
            system, batcher = asyncio.run(_drive([
                (10, _sentence(111)),
                (70, _sentence(222)),
                (130, _wm("gw0")),
                (130, _wm("gw1")),
            ]))
        assert batcher.pipeline_errors == 1
        assert system.calls == [(120, [(70, 222)])]


class TestNodeWithoutSources:
    """``watermark_sources = 0``: the node's own arrivals are its
    watermark, and the cadence is the cluster shard's."""

    def test_watermarks_are_counted_and_ignored(self):
        async def run():
            with obs.activate(obs.MetricsRegistry()) as registry:
                system, batcher = await _drive([
                    (10, _sentence(111)),
                    (70, _wm("gw0")),
                ], watermark_sources=0)
                return system, batcher, registry

        system, batcher, registry = asyncio.run(run())
        # One position, stamped before the first boundary: nothing has
        # passed it yet, whatever the watermark line claims.
        assert system.calls == []
        assert batcher.watermark_clocks == {}
        assert (
            registry.counter("service.ingest.watermarks_ignored").value == 1
        )

    def test_late_arrivals_are_sorted_into_their_slide(self):
        # Two clients interleave: positions stamped inside one slide
        # arrive out of order, and the slide still runs them in
        # (timestamp, mmsi) order, once an arrival passes its boundary.
        system, _ = asyncio.run(_drive([
            (30, _sentence(200)),
            (10, _sentence(111)),
            (30, _sentence(100)),
            (20, _sentence(300)),
            (70, _sentence(111)),
        ], watermark_sources=0, drain=True))
        assert system.calls == [
            (60, [(10, 111), (20, 300), (30, 100), (30, 200)]),
            (120, [(70, 111)]),
            ("finalize", None),
        ]

    def test_an_early_straggler_reanchors_the_grid(self):
        # The first arrival anchors the grid at 120; a straggler stamped
        # 30 moves it down to 60 before any slide ran, as offline.
        system, _ = asyncio.run(_drive([
            (100, _sentence(111)),
            (30, _sentence(222)),
        ], watermark_sources=0, drain=True))
        assert system.calls == [
            (60, [(30, 222)]),
            (120, [(100, 111)]),
            ("finalize", None),
        ]
        assert system.calls[:-1] == _offline_slides([(100, 111), (30, 222)])

    @settings(max_examples=60, deadline=None)
    @given(
        reports=st.lists(
            st.tuples(st.integers(1, 600), st.sampled_from([111, 222, 333])),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    def test_in_slide_disorder_equals_the_offline_replay(self, reports, data):
        # Any order inside a slide, cut into hand-overs of any size: the
        # node's slides are the offline replay's, each sorted by
        # (timestamp, mmsi).
        by_slide: dict[int, list] = {}
        for report in reports:
            by_slide.setdefault(-(-report[0] // 60), []).append(report)
        arrived = [
            report
            for slide in sorted(by_slide)
            for report in data.draw(st.permutations(by_slide[slide]))
        ]
        system, _ = asyncio.run(_drive(
            [(ts, _sentence(mmsi)) for ts, mmsi in arrived],
            watermark_sources=0,
            drain=True,
            size=data.draw(st.integers(1, len(arrived))),
        ))
        assert system.calls == _offline_slides(reports) + [("finalize", None)]

    def test_an_injected_slide_error_loses_only_that_slide(
        self, world, small_fleet
    ):
        # The node has already tracked the lost slide's positions on
        # arrival: they are rolled back before the slide is dropped, so
        # every later line is that of a pipeline that never saw the
        # slide — the lost slide skipped whole, as when the node tracked
        # only at the close.
        config = SystemConfig()
        specs = small_fleet["specs"]
        sentences = to_sentences(small_fleet["stream"])
        lost = 3
        feed = []

        async def serve(batcher):
            await batcher.run()
            await batcher.drain()

        with obs.activate(obs.MetricsRegistry()) as registry:
            with SurveillanceSystem(world, specs, config) as system:
                batcher = SlideBatcher(
                    system, HandOver(sentences, 7),
                    slide_seconds=config.window.slide_seconds,
                    on_report=lambda r, kind: feed.append(slide_feed_line(r, kind)),
                )
                with inject(FaultPlan.from_spec(f"service.slide:error@{lost}")):
                    asyncio.run(serve(batcher))
        assert batcher.pipeline_errors == 1
        assert registry.counter("tracking.arrival_rollbacks").value == 0
        assert feed == _replay_skipping(sentences, lost, world, specs, config)


def _replay_skipping(sentences, lost: int, world, specs, config) -> list[str]:
    """The offline replay's feed with slide ``lost`` (1-based) skipped
    whole, as if the pipeline never saw it."""
    positions = DataScanner().scan_many(sentences)
    slides = StreamReplayer(
        [TimedArrival(p.timestamp, p) for p in positions],
        config.window.slide_seconds,
    ).batches()
    expected = []
    with SurveillanceSystem(world, specs, config) as reference:
        for index, (query_time, batch) in enumerate(slides, start=1):
            if index != lost:
                report = reference.process_slide(batch, query_time)
                expected.append(slide_feed_line(report))
        expected.append(slide_feed_line(reference.finalize(), "finalize"))
    return expected


class TestShardTracksBehindTheFrontier:
    """``watermark_sources = 2`` with a real pipeline: each vessel's
    reports alternate between two gateways that read five lines at a
    time, so the shard tracks most of every slide on arrival."""

    SLIDE = SystemConfig().window.slide_seconds

    def _sources(self, small_fleet):
        sentences = to_sentences(small_fleet["stream"][:700])
        return sentences, split_round_robin(sentences, 2)

    def _forward(self, name, share, extra_cuts=()):
        cuts = {*range(0, len(share), 5), *extra_cuts}
        return gateway_records(name, share, cuts)

    def test_an_injected_slide_error_loses_only_that_slide(
        self, world, small_fleet
    ):
        # The lost slide was tracked on arrival: it is rolled back before
        # it is dropped, so the feed is that of a pipeline that skipped
        # the slide whole.
        config = SystemConfig()
        specs = small_fleet["specs"]
        sentences, shares = self._sources(small_fleet)
        links = [
            self._forward(f"gw{index}", share)[0]
            for index, share in enumerate(shares)
        ]
        merged = [
            record
            for start in range(0, max(map(len, links)), 8)
            for link in links
            for record in link[start : start + 8]
        ]
        lost = 3
        feed, batcher, registry = run_shard(
            merged, world, specs, config, 2, faults=f"service.slide:error@{lost}"
        )
        assert batcher.pipeline_errors == 1
        assert registry.span_histogram("tracking.arrival").count > 0
        assert registry.counter("tracking.arrival_rollbacks").value == 0
        assert feed == _replay_skipping(sentences, lost, world, specs, config)

    def test_a_late_line_rolls_back_and_keeps_the_replay(self, world, small_fleet):
        # gw0 forwards a report after a later report of its vessel in the
        # same slide, behind its own watermark.  The shard has tracked
        # the later one by then: the vessel rolls back, and the feed is
        # still the offline replay's.
        config = SystemConfig()
        specs = small_fleet["specs"]
        sentences, (share, other) = self._sources(small_fleet)
        slide_of = [first_query_time(t, self.SLIDE) for t, _ in share]
        mmsi = [DataScanner().scan_many([pair])[0].mmsi for pair in share]
        early, later = next(
            (early, later)
            for later in range(len(share))
            for early in range(later)
            if mmsi[early] == mmsi[later]
            and slide_of[early] == slide_of[later] > slide_of[0]
            and share[early][0] < share[later][0]
        )
        end = next(
            (i for i, slide in enumerate(slide_of) if slide > slide_of[later]),
            len(share),
        )
        share = list(share)
        share.insert(end - 1, share.pop(early))
        late, gateway = self._forward("gw0", share, extra_cuts={end - 1})
        ahead, _ = self._forward("gw1", other)
        ready = first_watermark_at(ahead, share[later - 1][0])
        feed, _, registry = run_shard(
            ahead[: ready + 1] + late + ahead[ready + 1 :], world, specs, config, 2
        )
        assert gateway.counter("gateway.ingest.late_lines").value == 1
        assert registry.counter("tracking.arrival_rollbacks").value > 0
        assert feed == offline_oracle(sentences, world, specs, config)
