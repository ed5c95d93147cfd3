"""Tests for the assembled surveillance system."""

import pytest

from repro.ais.stream import PositionalTuple, StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.tracking import WindowSpec


@pytest.fixture()
def system(world, small_fleet):
    config = SystemConfig(window=WindowSpec.of_hours(1, 0.25))
    return SurveillanceSystem(world, small_fleet["specs"], config)


def run_stream(system, stream, slide=900):
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    reports = []
    for query_time, batch in StreamReplayer(arrivals, slide).batches():
        reports.append(system.process_slide(batch, query_time))
    return reports


class TestProcessing:
    def test_slide_reports_accumulate(self, system, small_fleet):
        reports = run_stream(system, small_fleet["stream"])
        assert len(reports) > 4
        assert sum(r.raw_positions for r in reports) == len(small_fleet["stream"])
        assert all(set(r.timings) >= {"tracking", "staging", "recognition"}
                   for r in reports)

    def test_compression_achieved(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        ratio = system.compressor.statistics.compression_ratio
        assert ratio > 0.8

    def test_phase_timings_recorded(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        averages = system.timings.averages()
        assert averages["tracking"] > 0.0
        assert system.timings.slides > 0

    def test_database_receives_expired_points(self, system, small_fleet):
        reports = run_stream(system, small_fleet["stream"])
        expired_total = sum(r.expired_critical_points for r in reports)
        if expired_total:
            archived = system.database.staged_count() + sum(
                t["point_count"] for t in system.database.all_trips()
            )
            assert archived > 0

    def test_finalize_flushes_synopsis(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        in_window = len(system.current_synopsis())
        final = system.finalize()
        assert final is not None
        # Everything left the window into the archive.
        archived = system.database.staged_count() + sum(
            t["point_count"] for t in system.database.all_trips()
        )
        assert archived >= in_window

    def test_finalize_without_stream_is_noop(self, world, small_fleet):
        system = SurveillanceSystem(world, small_fleet["specs"])
        assert system.finalize() is None

    def test_a_slide_owed_its_archive_cannot_be_overwritten(
        self, system, small_fleet
    ):
        """A second close before the archive would drop the MOD rows the
        first slide still owes; it raises instead, and archiving clears it."""
        arrivals = [TimedArrival(p.timestamp, p) for p in small_fleet["stream"]]
        (first, batch), (second, _) = list(
            StreamReplayer(arrivals, 900).batches()
        )[:2]
        system.track(batch)
        system.close_slide(first)
        with pytest.raises(RuntimeError, match=f"slide {first} "):
            system.close_slide(second)
        with pytest.raises(RuntimeError, match=f"slide {first} "):
            system.finalize()
        system.archive()
        assert system.timings.slides == 1
        assert system.finalize() is not None


def _counted_positions():
    """A :class:`PositionalTuple` subclass that counts its instances alive."""

    class Counted(PositionalTuple):
        alive = 0

        def __new__(cls, *fields):
            cls.alive += 1
            return super().__new__(cls, *fields)

        def __del__(self):
            type(self).alive -= 1

    return Counted


def _held(system, counted):
    """The counted positions that vessel state still holds: each
    vessel's last fix and its stop and slow runs."""
    held = []
    for state in system.tracker._vessels.values():
        held += [state.last, *state.stop_run]
        held += [position for position, _ in state.slow_run]
    return {id(position) for position in held if isinstance(position, counted)}


def _slides(stream, slide):
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    return list(StreamReplayer(arrivals, slide).batches())


class TestSlideRelease:
    """A closed slide's tracked positions and vessel snapshots are freed
    by its archive, after the slide's alerts are out, and no later."""

    def test_the_close_frees_nothing_and_the_archive_the_rest(
        self, system, small_fleet
    ):
        counted = _counted_positions()
        slides = _slides(small_fleet["stream"], 900)
        assert len(slides) > 4
        for query_time, batch in slides[:3]:
            system.process_slide(batch, query_time)
        query_time, batch = slides[3]
        batch = [counted(*position) for position in batch]
        handed = len(batch)
        system.track(batch)
        del batch
        assert counted.alive == handed
        system.close_slide(query_time)
        assert counted.alive == handed
        system.archive()
        held = _held(system, counted)
        assert 0 < counted.alive == len(held) < handed

    def test_no_closed_slide_outlives_its_archive(self, world, small_fleet):
        config = SystemConfig(window=WindowSpec.of_hours(1, 0.2))
        system = SurveillanceSystem(world, small_fleet["specs"], config)
        counted = _counted_positions()
        peaks = []
        archive = system.archive

        def sampled_archive():
            peaks.append(counted.alive)
            archive()

        system.archive = sampled_archive
        slides = _slides(small_fleet["stream"], 720)
        assert len(slides) >= 20
        for query_time, batch in slides[:20]:
            carried = counted.alive
            assert carried == len(_held(system, counted))
            batch = [counted(*position) for position in batch]
            handed = len(batch)
            system.process_slide(batch, query_time)
            del batch
            # The archive meets one slide plus the carry-over: the close
            # freed nothing, and no earlier slide is left to free.
            assert peaks[-1] == carried + handed
            assert counted.alive == len(_held(system, counted))
        carried = counted.alive
        system.finalize()
        assert peaks[-1] <= carried
        # Only each vessel's last fix outlives the end of the stream.
        assert counted.alive == len(_held(system, counted)) == system.vessel_count()


class TestOutputs:
    def test_kml_export(self, system, small_fleet):
        import xml.etree.ElementTree as ET

        run_stream(system, small_fleet["stream"])
        document = system.export_kml()
        assert ET.fromstring(document).tag.endswith("kml")

    def test_geojson_export(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        collection = system.export_geojson()
        assert collection["type"] == "FeatureCollection"

    def test_alerts_accessible(self, system, small_fleet):
        run_stream(system, small_fleet["stream"])
        assert isinstance(system.alerts(), list)
